// Tests for the metro-memory refactor (PR 10): CSR adjacency layout and
// neighbor-order parity against the legacy per-tile subgraph path, the
// shared struct-of-arrays agent-state slab, the medium's pooled transmit
// rings, event-rate-adaptive tiling (balance + digest invariance against
// the grid tiler), and end-to-end manifest identity across shard counts on
// the shared-CSR engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/ap_state.hpp"
#include "core/network.hpp"
#include "cryptox/identity.hpp"
#include "graphx/graph.hpp"
#include "osmx/citygen.hpp"
#include "shardx/tiling.hpp"
#include "sim/medium.hpp"
#include "sim/simulator.hpp"
#include "trafficx/runner.hpp"
#include "trafficx/workload.hpp"

namespace core = citymesh::core;
namespace osmx = citymesh::osmx;
namespace geo = citymesh::geo;
namespace graphx = citymesh::graphx;
namespace mesh = citymesh::mesh;
namespace obsx = citymesh::obsx;
namespace relayx = citymesh::relayx;
namespace shardx = citymesh::shardx;
namespace sim = citymesh::sim;
namespace trafficx = citymesh::trafficx;
namespace cryptox = citymesh::cryptox;

namespace {

osmx::City town(std::uint64_t seed, double w = 700, double h = 550) {
  osmx::CityProfile p;
  p.name = "metromem-town-" + std::to_string(seed);
  p.width_m = w;
  p.height_m = h;
  p.park_fraction = 0.0;
  p.seed = seed;
  return osmx::generate_city(p);
}

core::NetworkConfig base_config(std::size_t shards, std::uint64_t seed = 99) {
  core::NetworkConfig cfg;
  cfg.placement.density_per_m2 = 1.0 / 60.0;
  cfg.placement.seed = 5;
  cfg.medium.jitter_s = 0.0;
  cfg.medium.loss_probability = 0.0;
  cfg.seed = seed;
  cfg.shards = shards;
  return cfg;
}

}  // namespace

// ------------------------------------------------------------ CSR layout ----

TEST(GraphCsr, NeighborsFollowEdgeInsertionOrder) {
  // The counting sort in GraphBuilder::build is stable, so each vertex's
  // CSR slice lists its incident edges in add_edge order — the invariant
  // the tile-filtered medium walk and the relayx ETX rows both lean on.
  graphx::GraphBuilder builder(5);
  builder.add_edge(1, 3, 13.0);
  builder.add_edge(0, 1, 1.0);
  builder.add_edge(1, 2, 12.0);
  builder.add_edge(4, 1, 14.0);  // reversed endpoints still land on both rows
  builder.add_edge(0, 2, 2.0);
  const graphx::Graph g = builder.build();

  ASSERT_EQ(g.vertex_count(), 5u);
  EXPECT_EQ(g.edge_count(), 5u);
  EXPECT_EQ(g.directed_edge_count(), 10u);

  const auto row = [&](graphx::VertexId v) {
    std::vector<std::pair<graphx::VertexId, double>> out;
    for (const graphx::Edge& e : g.neighbors(v)) out.push_back({e.to, e.weight});
    return out;
  };
  using Row = std::vector<std::pair<graphx::VertexId, double>>;
  EXPECT_EQ(row(0), (Row{{1, 1.0}, {2, 2.0}}));
  EXPECT_EQ(row(1), (Row{{3, 13.0}, {0, 1.0}, {2, 12.0}, {4, 14.0}}));
  EXPECT_EQ(row(2), (Row{{1, 12.0}, {0, 2.0}}));
  EXPECT_EQ(row(3), (Row{{1, 13.0}}));
  EXPECT_EQ(row(4), (Row{{1, 14.0}}));
}

TEST(GraphCsr, OffsetsDegreesAndSplitArraysAgree) {
  graphx::GraphBuilder builder(4);
  builder.add_edge(0, 1, 5.0);
  builder.add_edge(1, 2, 6.0);
  builder.add_edge(2, 3, 7.0);
  const graphx::Graph g = builder.build();

  // edge_offset is valid at vertex_count() (one-past-the-end), and the
  // per-vertex slices tile the packed arrays exactly.
  EXPECT_EQ(g.edge_offset(0), 0u);
  std::size_t total = 0;
  for (graphx::VertexId v = 0; v < g.vertex_count(); ++v) {
    EXPECT_EQ(g.edge_offset(v), total) << "vertex " << v;
    EXPECT_EQ(g.degree(v), g.neighbors(v).size()) << "vertex " << v;
    total += g.degree(v);
  }
  EXPECT_EQ(g.edge_offset(static_cast<graphx::VertexId>(g.vertex_count())), total);
  EXPECT_EQ(total, g.directed_edge_count());

  // ids()/weights() views and Edge-yielding iteration see the same data.
  for (graphx::VertexId v = 0; v < g.vertex_count(); ++v) {
    const auto range = g.neighbors(v);
    const auto ids = range.ids();
    const auto weights = range.weights();
    ASSERT_EQ(ids.size(), range.size());
    ASSERT_EQ(weights.size(), range.size());
    for (std::size_t i = 0; i < range.size(); ++i) {
      EXPECT_EQ(range[i].to, ids[i]);
      EXPECT_DOUBLE_EQ(range[i].weight, weights[i]);
    }
  }
  EXPECT_TRUE(g.neighbors(0).size() == 1 && !g.neighbors(0).empty());
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 3));
}

// ----------------------------------------- filtered walk vs tile_subgraph ---

TEST(GraphCsr, TileFilteredWalkMatchesTileSubgraphExactly) {
  // The tiled engine used to copy each tile's subgraph; now every tile
  // walks the one shared CSR and skips cross-tile neighbors. Both views
  // must present the same edges in the same order, for both tilers.
  const auto compiled = core::compile_city(town(21), base_config(1));
  const graphx::Graph& full = compiled->aps.graph();
  for (const shardx::TilingMode mode :
       {shardx::TilingMode::kGrid, shardx::TilingMode::kAdaptive}) {
    const shardx::TilePlan plan =
        shardx::plan_tiles(compiled->map.centroid_grid(),
                           compiled->map.building_count(), compiled->aps, 4, mode);
    for (shardx::TileId tile = 0; tile < plan.tile_count; ++tile) {
      const graphx::Graph sub =
          shardx::tile_subgraph(full, plan.ap_tile, tile);
      for (graphx::VertexId v = 0; v < full.vertex_count(); ++v) {
        // Filtered walk of the shared CSR, exactly as the medium fans out.
        std::vector<std::pair<graphx::VertexId, double>> filtered;
        if (plan.ap_tile[v] == tile) {
          for (const graphx::Edge& e : full.neighbors(v)) {
            if (plan.ap_tile[e.to] == tile) filtered.push_back({e.to, e.weight});
          }
        }
        const auto range = sub.neighbors(v);
        ASSERT_EQ(range.size(), filtered.size())
            << "mode " << static_cast<int>(mode) << " tile " << tile
            << " vertex " << v;
        for (std::size_t i = 0; i < filtered.size(); ++i) {
          EXPECT_EQ(range[i].to, filtered[i].first) << "vertex " << v << " slot " << i;
          EXPECT_DOUBLE_EQ(range[i].weight, filtered[i].second)
              << "vertex " << v << " slot " << i;
        }
      }
    }
  }
}

// -------------------------------------------------------- agent state slab --

TEST(AgentStateSlab, MarkSeenDeduplicatesPerApAndMessage) {
  core::AgentStateSlab slab{3};
  EXPECT_TRUE(slab.mark_seen(0, 7));
  EXPECT_FALSE(slab.mark_seen(0, 7));
  EXPECT_TRUE(slab.mark_seen(1, 7));  // same message, different AP
  EXPECT_TRUE(slab.mark_seen(0, 8));  // same AP, different message
  EXPECT_EQ(slab.seen_count(0), 2u);
  EXPECT_EQ(slab.seen_count(1), 1u);
  EXPECT_EQ(slab.seen_count(2), 0u);

  // Message ids arrive in any order; the sorted per-AP set still finds
  // each one, before and after the insertion point.
  EXPECT_TRUE(slab.mark_seen(2, 9));
  EXPECT_TRUE(slab.mark_seen(2, 3));
  EXPECT_TRUE(slab.mark_seen(2, 7));
  EXPECT_FALSE(slab.mark_seen(2, 3));
  EXPECT_FALSE(slab.mark_seen(2, 9));
  EXPECT_FALSE(slab.mark_seen(2, 7));
  EXPECT_EQ(slab.seen_count(2), 3u);

  EXPECT_EQ(slab.behavior(2), core::AgentBehavior::kNormal);
  slab.set_behavior(2, core::AgentBehavior::kCompromisedDrop);
  EXPECT_EQ(slab.behavior(2), core::AgentBehavior::kCompromisedDrop);
}

TEST(AgentStateSlab, PostboxChainsReplaceByTagAndVisitAll) {
  core::AgentStateSlab slab{2};
  const auto k1 = cryptox::KeyPair::from_seed(1);
  const auto k2 = cryptox::KeyPair::from_seed(2);
  auto box1 = std::make_shared<core::Postbox>(k1.id());
  auto box2 = std::make_shared<core::Postbox>(k2.id());
  slab.host_postbox(0, box1);
  slab.host_postbox(0, box2);
  EXPECT_EQ(slab.postbox_for_tag(0, k1.id().tag()), box1);
  EXPECT_EQ(slab.postbox_for_tag(0, k2.id().tag()), box2);
  EXPECT_EQ(slab.postbox_for_tag(1, k1.id().tag()), nullptr);

  // Re-hosting the same tag replaces the box (old per-agent map semantics).
  auto box1b = std::make_shared<core::Postbox>(k1.id());
  slab.host_postbox(0, box1b);
  EXPECT_EQ(slab.postbox_for_tag(0, k1.id().tag()), box1b);

  std::size_t visited = 0;
  bool saw_replacement = false;
  slab.for_each_postbox(0, [&](const std::shared_ptr<core::Postbox>& box) {
    ++visited;
    if (box == box1b) saw_replacement = true;
    EXPECT_NE(box, box1);
  });
  EXPECT_EQ(visited, 2u);
  EXPECT_TRUE(saw_replacement);
}

// ------------------------------------------------------ medium ring queues --

namespace {
struct TestPacket {
  int id = 0;
};
}  // namespace

TEST(MediumRings, TransmitQueueIsFifoWithCapacityDrops) {
  sim::Simulator s;
  graphx::GraphBuilder builder(2);
  builder.add_edge(0, 1, 10.0);
  const graphx::Graph g = builder.build();

  sim::MediumConfig cfg;
  cfg.bitrate_bps = 1000.0;  // 400 framing bits -> 0.4 s serialization each
  cfg.jitter_s = 0.0;
  cfg.loss_probability = 0.0;
  cfg.tx_queue_capacity = 2;
  sim::BroadcastMedium<TestPacket> medium{s, g, cfg};

  std::vector<int> received;
  medium.set_delivery_handler(
      [&](sim::NodeId to, sim::NodeId, const std::shared_ptr<const TestPacket>& p) {
        EXPECT_EQ(to, 1u);
        received.push_back(p->id);
      });

  // Five transmits at t=0: one airs, two queue, two drop.
  for (int i = 0; i < 5; ++i) {
    medium.transmit(0, std::make_shared<const TestPacket>(TestPacket{i}));
  }
  EXPECT_EQ(medium.queued(0), 2u);
  EXPECT_EQ(medium.deferrals(), 2u);
  EXPECT_EQ(medium.queue_drops(), 2u);
  s.run();
  EXPECT_EQ(medium.transmissions(), 3u);
  EXPECT_EQ(medium.queued(0), 0u);
  EXPECT_EQ(received, (std::vector<int>{0, 1, 2}));  // strict FIFO

  // The drained ring was released; a second burst reuses it and stays FIFO.
  received.clear();
  for (int i = 10; i < 13; ++i) {
    medium.transmit(0, std::make_shared<const TestPacket>(TestPacket{i}));
  }
  EXPECT_EQ(medium.queued(0), 2u);
  s.run();
  EXPECT_EQ(received, (std::vector<int>{10, 11, 12}));
  EXPECT_EQ(medium.queue_drops(), 2u);  // no new drops
}

// --------------------------------------------------------- adaptive tiling --

TEST(AdaptiveTiling, BalancesSkewedCitiesBetterThanGrid) {
  // Dense downtown in the left sixth of the map, sparse tail to the right:
  // the uniform grid piles the downtown into one column while the adaptive
  // tiler cuts at equal event-weight, so its heaviest tile must be lighter.
  osmx::City city{"skew", {{0, 0}, {1200, 300}}};
  for (int gx = 0; gx < 8; ++gx) {
    for (int gy = 0; gy < 6; ++gy) {
      const double x0 = 10.0 + gx * 24.0;
      const double y0 = 10.0 + gy * 46.0;
      city.add_building(geo::Polygon::rectangle({{x0, y0}, {x0 + 16, y0 + 38}}));
    }
  }
  for (int i = 0; i < 6; ++i) {
    const double x0 = 300.0 + i * 150.0;
    city.add_building(geo::Polygon::rectangle({{x0, 120}, {x0 + 20, 160}}));
  }
  const auto compiled = core::compile_city(city, base_config(1));

  const auto max_tile_weight = [&](shardx::TilingMode mode) {
    const shardx::TilePlan plan =
        shardx::plan_tiles(compiled->map.centroid_grid(),
                           compiled->map.building_count(), compiled->aps, 4, mode);
    std::vector<std::uint64_t> weight(plan.tile_count, 0);
    const graphx::Graph& g = compiled->aps.graph();
    for (const auto& ap : compiled->aps.aps()) {
      weight[plan.ap_tile[ap.id]] += 1 + g.degree(ap.id);
    }
    return *std::max_element(weight.begin(), weight.end());
  };

  const std::uint64_t grid_max = max_tile_weight(shardx::TilingMode::kGrid);
  const std::uint64_t adaptive_max = max_tile_weight(shardx::TilingMode::kAdaptive);
  EXPECT_LT(adaptive_max, grid_max);
}

TEST(AdaptiveTiling, DigestMatchesGridTilerUnderJitterAndLoss) {
  // Tiling mode moves tile boundaries, never outcomes: K >= 2 runs use
  // per-link hashed randomness, so grid and adaptive runs at the same K
  // must agree flow for flow even with jitter + loss on.
  const auto compiled = core::compile_city(town(33), base_config(1));
  trafficx::WorkloadSpec spec;
  spec.seed = 11;
  spec.duration_s = 3.0;
  spec.rate_per_s = 3.0;
  const trafficx::FlowSchedule schedule = trafficx::compile(spec, compiled->city);
  ASSERT_GT(schedule.flows.size(), 2u);

  const auto run_mode = [&](shardx::TilingMode mode) {
    auto cfg = base_config(4, 404);
    cfg.tiling = mode;
    cfg.medium.bitrate_bps = 250'000.0;
    cfg.medium.jitter_s = 2e-3;
    cfg.medium.loss_probability = 0.05;
    cfg.relay.kind = relayx::PolicyKind::kBuildingBackoff;
    core::CityMeshNetwork net{compiled, cfg};
    return trafficx::run_workload(net, schedule);
  };

  const auto grid = run_mode(shardx::TilingMode::kGrid);
  const auto adaptive = run_mode(shardx::TilingMode::kAdaptive);
  ASSERT_EQ(grid.flows.size(), adaptive.flows.size());
  for (std::size_t i = 0; i < grid.flows.size(); ++i) {
    EXPECT_EQ(grid.flows[i].delivered, adaptive.flows[i].delivered) << i;
    EXPECT_DOUBLE_EQ(grid.flows[i].latency_s, adaptive.flows[i].latency_s) << i;
    EXPECT_EQ(grid.flows[i].transmissions, adaptive.flows[i].transmissions) << i;
  }
  // Tiled shards accumulate exact quantized histogram sums, so the merged
  // metrics are byte-identical between the two partitions.
  EXPECT_EQ(grid.metrics.to_json(), adaptive.metrics.to_json());
}

// -------------------------------------------- end-to-end manifest identity --

TEST(MetroMemIdentity, WorkloadManifestsIdenticalAcrossCitiesSeedsAndShards) {
  // The shared-CSR + SoA engine must keep the original contract: in the
  // draw-free contention regime the tiled run reproduces the sequential
  // engine exactly, across cities, workload seeds, and shard counts.
  const std::vector<osmx::City> cities{town(21), town(34, 600, 600), town(55, 500, 650)};
  const std::uint64_t seeds[] = {101, 202, 303};
  for (std::size_t c = 0; c < cities.size(); ++c) {
    const auto compiled = core::compile_city(cities[c], base_config(1));
    for (const std::uint64_t seed : seeds) {
      trafficx::WorkloadSpec spec;
      spec.seed = seed;
      spec.duration_s = 2.5;
      spec.rate_per_s = 3.0;
      const trafficx::FlowSchedule schedule = trafficx::compile(spec, compiled->city);
      ASSERT_GT(schedule.flows.size(), 1u) << "city " << c << " seed " << seed;

      std::vector<trafficx::WorkloadResult> results;
      for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
        auto cfg = base_config(shards, 505);
        cfg.medium.bitrate_bps = 250'000.0;
        core::CityMeshNetwork net{compiled, cfg};
        results.push_back(trafficx::run_workload(net, schedule));
      }
      const std::string label = "city " + std::to_string(c) + " seed " + std::to_string(seed);
      ASSERT_EQ(results[0].flows.size(), results[1].flows.size()) << label;
      for (std::size_t i = 0; i < results[0].flows.size(); ++i) {
        EXPECT_EQ(results[1].flows[i].delivered, results[0].flows[i].delivered)
            << label << " flow " << i;
        EXPECT_DOUBLE_EQ(results[1].flows[i].latency_s, results[0].flows[i].latency_s)
            << label << " flow " << i;
        EXPECT_EQ(results[1].flows[i].transmissions, results[0].flows[i].transmissions)
            << label << " flow " << i;
      }
      EXPECT_EQ(results[0].summary.transmissions, results[1].summary.transmissions) << label;
      EXPECT_EQ(results[0].summary.flows_offered, results[1].summary.flows_offered) << label;
    }
  }
}
