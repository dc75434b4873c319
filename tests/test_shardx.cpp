// Tests for the shardx tiled execution engine, the only engine a network
// runs (K = 1 is one tile): byte-identical merged manifests, flow states and
// send outcomes for every shard count under loss, jitter and randomized
// relay policies; the draw-free identity across cities and seeds; the
// deterministic cross-tile handoff sequence; boundary-AP membership against
// a brute-force recomputation; empty-tile / single-tile edge cases; and
// coordinator control events.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/network.hpp"
#include "cryptox/identity.hpp"
#include "osmx/citygen.hpp"
#include "shardx/tiling.hpp"
#include "trafficx/runner.hpp"

namespace core = citymesh::core;
namespace osmx = citymesh::osmx;
namespace geo = citymesh::geo;
namespace mesh = citymesh::mesh;
namespace obsx = citymesh::obsx;
namespace relayx = citymesh::relayx;
namespace shardx = citymesh::shardx;
namespace sim = citymesh::sim;
namespace trafficx = citymesh::trafficx;
namespace cryptox = citymesh::cryptox;

namespace {

std::span<const std::uint8_t> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

osmx::City row_city(std::size_t n, double gap = 20.0) {
  const double stride = 20.0 + gap;
  osmx::City city{"row", {{0, 0}, {stride * static_cast<double>(n), 40}}};
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = static_cast<double>(i) * stride;
    city.add_building(geo::Polygon::rectangle({{x0, 0}, {x0 + 20, 20}}));
  }
  return city;
}

osmx::City town(std::uint64_t seed, double w = 800, double h = 600) {
  osmx::CityProfile p;
  p.name = "shardx-town-" + std::to_string(seed);
  p.width_m = w;
  p.height_m = h;
  p.park_fraction = 0.0;
  p.seed = seed;
  return osmx::generate_city(p);
}

/// Draw-free regime: flood policy, zero loss, zero jitter (jitter_s
/// defaults to 2e-3, which is why it is explicitly zeroed here).
core::NetworkConfig draw_free_config(std::size_t shards, std::uint64_t seed = 99) {
  core::NetworkConfig cfg;
  cfg.placement.density_per_m2 = 1.0 / 60.0;
  cfg.placement.seed = 5;
  cfg.medium.jitter_s = 0.0;
  cfg.medium.loss_probability = 0.0;
  cfg.seed = seed;
  cfg.shards = shards;
  return cfg;
}

/// draw_free_config on the uniform grid tiler (the ShardxTiling cases).
core::NetworkConfig grid_config(std::size_t shards, std::uint64_t seed) {
  core::NetworkConfig cfg = draw_free_config(shards, seed);
  cfg.tiling = shardx::TilingMode::kGrid;
  return cfg;
}

struct SendRun {
  core::SendOutcome outcome;
  core::SendOutcome acked;
  obsx::MetricsSnapshot metrics;
};

/// One deterministic protocol exercise: a long unicast send plus an
/// ack-requested send, then the merged manifest snapshot.
SendRun exercise(const std::shared_ptr<const core::CompiledCity>& compiled,
                 const core::NetworkConfig& cfg) {
  core::CityMeshNetwork net{compiled, cfg};
  const osmx::BuildingId last =
      static_cast<osmx::BuildingId>(compiled->city.building_count() - 1);
  const auto keys = cryptox::KeyPair::from_seed(7);
  const auto info = core::PostboxInfo::for_key(keys, last);
  const auto back_keys = cryptox::KeyPair::from_seed(8);
  const auto back = core::PostboxInfo::for_key(back_keys, 0);
  net.register_postbox(info);
  net.register_postbox(back);

  SendRun run;
  run.outcome = net.send(0, info, bytes_of("shardx-payload"));
  core::SendOptions opts;
  opts.request_ack = true;
  opts.ack_to = back;
  run.acked = net.send(0, info, bytes_of("shardx-acked"), opts);
  run.metrics = net.merged_metrics();
  return run;
}

void expect_same_run(const SendRun& a, const SendRun& b, const std::string& label) {
  EXPECT_EQ(a.outcome.delivered, b.outcome.delivered) << label;
  EXPECT_EQ(a.outcome.delivery_time_s, b.outcome.delivery_time_s) << label;
  EXPECT_EQ(a.outcome.transmissions, b.outcome.transmissions) << label;
  EXPECT_EQ(a.acked.delivered, b.acked.delivered) << label;
  EXPECT_EQ(a.acked.ack_received, b.acked.ack_received) << label;
  EXPECT_EQ(a.acked.transmissions, b.acked.transmissions) << label;
  EXPECT_EQ(a.metrics.to_json(), b.metrics.to_json()) << label;
}

/// Everything one run reports: the merged manifest JSON, the FlowState of
/// every injected flow, and the outcome of one acked send after the load.
struct EngineRun {
  std::string metrics_json;
  std::vector<core::FlowState> flows;
  core::SendOutcome acked;
};

EngineRun run_load_then_acked_send(const std::shared_ptr<const core::CompiledCity>& compiled,
                                   const core::NetworkConfig& cfg,
                                   const trafficx::FlowSchedule& schedule) {
  core::CityMeshNetwork net{compiled, cfg};
  std::vector<std::uint32_t> ids(schedule.flows.size(), 0);
  const std::vector<std::uint8_t> payload(128, 0x5a);
  for (std::size_t i = 0; i < schedule.flows.size(); ++i) {
    const trafficx::Flow& flow = schedule.flows[i];
    const auto info =
        core::PostboxInfo::for_key(cryptox::KeyPair::from_seed(1000 + flow.dst), flow.dst);
    net.register_postbox(info);
    net.schedule_control(flow.start_s, [&net, &ids, &payload, &flow, info, i] {
      ids[i] = net.inject(flow.src, info, {payload.data(), flow.payload_bytes}).message_id;
    });
  }
  net.run_until(schedule.spec.duration_s + 10.0);

  EngineRun run;
  for (const std::uint32_t id : ids) {
    if (id == 0) continue;
    const core::FlowState* state = net.flow_state(id);
    EXPECT_NE(state, nullptr);
    if (state != nullptr) run.flows.push_back(*state);
  }
  const osmx::BuildingId last =
      static_cast<osmx::BuildingId>(compiled->city.building_count() - 1);
  const auto to = core::PostboxInfo::for_key(cryptox::KeyPair::from_seed(7), last);
  const auto back = core::PostboxInfo::for_key(cryptox::KeyPair::from_seed(8), 0);
  net.register_postbox(to);
  net.register_postbox(back);
  core::SendOptions opts;
  opts.request_ack = true;
  opts.ack_to = back;
  opts.collect_trace = true;
  run.acked = net.send(0, to, bytes_of("k-invariance"), opts);
  run.metrics_json = net.merged_metrics().to_json();
  return run;
}

void expect_same_flow(const core::FlowState& a, const core::FlowState& b,
                      const std::string& label) {
  EXPECT_EQ(a.injected_at_s, b.injected_at_s) << label;
  EXPECT_EQ(a.delivered, b.delivered) << label;
  EXPECT_EQ(a.delivery_time_s, b.delivery_time_s) << label;
  EXPECT_EQ(a.postboxes_reached, b.postboxes_reached) << label;
  EXPECT_EQ(a.transmissions, b.transmissions) << label;
}

void expect_same_outcome(const core::SendOutcome& a, const core::SendOutcome& b,
                         const std::string& label) {
  EXPECT_EQ(a.route_found, b.route_found) << label;
  EXPECT_EQ(a.source_has_ap, b.source_has_ap) << label;
  EXPECT_EQ(a.delivered, b.delivered) << label;
  EXPECT_EQ(a.delivery_time_s, b.delivery_time_s) << label;
  EXPECT_EQ(a.message_id, b.message_id) << label;
  EXPECT_EQ(a.route.waypoints, b.route.waypoints) << label;
  EXPECT_EQ(a.header_bits, b.header_bits) << label;
  EXPECT_EQ(a.transmissions, b.transmissions) << label;
  EXPECT_EQ(a.min_hops, b.min_hops) << label;
  EXPECT_EQ(a.ack_received, b.ack_received) << label;
  EXPECT_EQ(a.ack_message_id, b.ack_message_id) << label;
  EXPECT_EQ(a.rebroadcast_aps, b.rebroadcast_aps) << label;
  EXPECT_EQ(a.received_only_aps, b.received_only_aps) << label;
}

}  // namespace

// ------------------------------------------------------------ one engine ---

TEST(ShardxInvariance, LossyRandomizedRunsAreByteIdenticalForEveryShardCount) {
  // Loss, jitter and randomized relay policies draw on every link and every
  // election: the shard count may change speed, never what is simulated.
  const auto compiled = core::compile_city(town(63), draw_free_config(1));
  trafficx::WorkloadSpec spec;
  spec.seed = 17;
  spec.duration_s = 3.0;
  spec.rate_per_s = 4.0;
  spec.payload_min_bytes = 64;
  spec.payload_max_bytes = 128;
  const trafficx::FlowSchedule schedule = trafficx::compile(spec, compiled->city);
  ASSERT_GT(schedule.flows.size(), 4u);

  for (const auto kind :
       {relayx::PolicyKind::kBuildingBackoff, relayx::PolicyKind::kEtxPriority}) {
    std::vector<EngineRun> runs;
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      auto cfg = draw_free_config(shards, 909);
      cfg.medium.loss_probability = 0.1;
      cfg.medium.jitter_s = 2e-3;
      cfg.medium.bitrate_bps = 250'000.0;
      cfg.relay.kind = kind;
      runs.push_back(run_load_then_acked_send(compiled, cfg, schedule));
    }
    const std::string policy{relayx::to_string(kind)};
    ASSERT_FALSE(runs[0].flows.empty()) << policy;
    EXPECT_TRUE(runs[0].acked.delivered) << policy;
    EXPECT_NE(runs[0].metrics_json.find("\"medium.losses\""), std::string::npos);
    for (std::size_t k = 1; k < runs.size(); ++k) {
      const std::string label = policy + " shards index " + std::to_string(k);
      EXPECT_EQ(runs[k].metrics_json, runs[0].metrics_json) << label;
      ASSERT_EQ(runs[k].flows.size(), runs[0].flows.size()) << label;
      for (std::size_t i = 0; i < runs[0].flows.size(); ++i) {
        expect_same_flow(runs[k].flows[i], runs[0].flows[i], label + " flow " + std::to_string(i));
      }
      expect_same_outcome(runs[k].acked, runs[0].acked, label);
    }
  }
}

// ----------------------------------------------------- digest identity ------

TEST(ShardxDigest, TiledMatchesLegacyAcrossCitiesAndSeeds) {
  const std::vector<osmx::City> cities{row_city(12), town(21), town(34, 600, 600)};
  const std::uint64_t seeds[] = {101, 202, 303};
  for (std::size_t c = 0; c < cities.size(); ++c) {
    const auto compiled = core::compile_city(cities[c], draw_free_config(1));
    for (const std::uint64_t seed : seeds) {
      const SendRun legacy = exercise(compiled, draw_free_config(1, seed));
      ASSERT_TRUE(legacy.outcome.delivered) << "city " << c << " seed " << seed;
      for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
        const SendRun tiled = exercise(compiled, draw_free_config(shards, seed));
        expect_same_run(legacy, tiled,
                        "city " + std::to_string(c) + " seed " + std::to_string(seed) +
                            " shards " + std::to_string(shards));
      }
    }
  }
}

TEST(ShardxDigest, ShardCountInvariantUnderJitterAndLoss) {
  // Hashed link randomness + per-AP policy streams: every K agrees, up to
  // eight tiles.
  const auto compiled = core::compile_city(town(55), draw_free_config(1));
  auto cfg2 = draw_free_config(2, 404);
  cfg2.medium.jitter_s = 2e-3;
  cfg2.medium.loss_probability = 0.05;
  cfg2.relay.kind = relayx::PolicyKind::kBuildingBackoff;
  auto cfg4 = cfg2;
  cfg4.shards = 4;
  auto cfg8 = cfg2;
  cfg8.shards = 8;
  const SendRun two = exercise(compiled, cfg2);
  expect_same_run(two, exercise(compiled, cfg4), "2 vs 4");
  expect_same_run(two, exercise(compiled, cfg8), "2 vs 8");
}

TEST(ShardxDigest, WorkloadMatchesLegacyInDrawFreeRegime) {
  const auto compiled = core::compile_city(town(77), draw_free_config(1));
  trafficx::WorkloadSpec spec;
  spec.seed = 9;
  spec.duration_s = 4.0;
  spec.rate_per_s = 3.0;
  const trafficx::FlowSchedule schedule = trafficx::compile(spec, compiled->city);
  ASSERT_GT(schedule.flows.size(), 2u);

  std::vector<trafficx::WorkloadResult> results;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    auto cfg = draw_free_config(shards, 505);
    cfg.medium.bitrate_bps = 250'000.0;  // contention on: deterministic, draw-free
    core::CityMeshNetwork net{compiled, cfg};
    results.push_back(trafficx::run_workload(net, schedule));
  }
  for (std::size_t k = 1; k < results.size(); ++k) {
    ASSERT_EQ(results[k].flows.size(), results[0].flows.size());
    for (std::size_t i = 0; i < results[0].flows.size(); ++i) {
      EXPECT_EQ(results[k].flows[i].delivered, results[0].flows[i].delivered) << i;
      EXPECT_DOUBLE_EQ(results[k].flows[i].latency_s, results[0].flows[i].latency_s) << i;
      EXPECT_EQ(results[k].flows[i].transmissions, results[0].flows[i].transmissions) << i;
    }
    EXPECT_EQ(results[k].metrics.to_json(), results[0].metrics.to_json())
        << "shards index " << k;
  }
}

// ------------------------------------------------------ handoff sequence ----

TEST(ShardxHandoffs, SequenceIsDeterministicAndCrossesTiles) {
  const auto compiled = core::compile_city(town(21), draw_free_config(1));
  const auto run_once = [&] {
    core::CityMeshNetwork net{compiled, draw_free_config(4, 101)};
    net.record_handoffs(true);
    const osmx::BuildingId last =
        static_cast<osmx::BuildingId>(compiled->city.building_count() - 1);
    const auto keys = cryptox::KeyPair::from_seed(7);
    const auto info = core::PostboxInfo::for_key(keys, last);
    net.register_postbox(info);
    net.send(0, info, bytes_of("handoffs"));
    EXPECT_EQ(net.handoffs_exchanged(), net.handoff_log().size());
    const shardx::TilePlan* plan = net.tile_plan();
    EXPECT_NE(plan, nullptr);
    for (const auto& h : net.handoff_log()) {
      // Every logged handoff leaves its source tile.
      EXPECT_NE(plan->ap_tile[h.to], h.src_tile);
      EXPECT_EQ(plan->ap_tile[h.from], h.src_tile);
    }
    return net.handoff_log();
  };

  const auto first = run_once();
  const auto second = run_once();
  ASSERT_FALSE(first.empty());
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_DOUBLE_EQ(first[i].time_s, second[i].time_s) << i;
    EXPECT_EQ(first[i].src_tile, second[i].src_tile) << i;
    EXPECT_EQ(first[i].seq, second[i].seq) << i;
    EXPECT_EQ(first[i].to, second[i].to) << i;
    EXPECT_EQ(first[i].from, second[i].from) << i;
    EXPECT_EQ(first[i].message_id, second[i].message_id) << i;
  }
  // The log is ingestion order: concatenated barrier batches, each sorted by
  // (time, src_tile, seq). Batches are not globally time-sorted against each
  // other (a long-delay arrival can outlive the next window's early ones),
  // but within a batch the order is total and deterministic; per source tile
  // every seq appears exactly once.
  std::vector<std::unordered_set<std::uint64_t>> seqs(4);
  for (const auto& h : first) {
    EXPECT_TRUE(seqs[h.src_tile].insert(h.seq).second)
        << "duplicate seq " << h.seq << " from tile " << h.src_tile;
  }
}

// ------------------------------------------------------------- tiling -------

TEST(ShardxTiling, BoundaryMembershipMatchesBruteForce) {
  const auto compiled = core::compile_city(town(21), draw_free_config(1));
  const shardx::TilePlan plan =
      shardx::plan_tiles(compiled->map.centroid_grid(), compiled->map.building_count(),
                         compiled->aps, 4, shardx::TilingMode::kGrid);

  // Brute force: an AP is boundary iff any topology edge leaves its tile;
  // the cut-edge list is exactly the directed edges whose endpoints differ.
  const auto& graph = compiled->aps.graph();
  std::vector<bool> boundary(compiled->aps.ap_count(), false);
  std::vector<shardx::CrossLink> cross;
  for (mesh::ApId ap = 0; ap < compiled->aps.ap_count(); ++ap) {
    for (const auto& edge : graph.neighbors(ap)) {
      if (plan.ap_tile[ap] == plan.ap_tile[edge.to]) continue;
      boundary[ap] = true;
      boundary[edge.to] = true;
      cross.push_back({ap, edge.to, edge.weight});
    }
  }
  ASSERT_FALSE(cross.empty());
  EXPECT_EQ(plan.boundary_ap, boundary);
  ASSERT_EQ(plan.cross.size(), cross.size());
  const auto key = [](const shardx::CrossLink& l) {
    return (std::uint64_t{l.from} << 32) | l.to;
  };
  auto expected = cross;
  auto actual = plan.cross;
  std::sort(expected.begin(), expected.end(),
            [&](const auto& a, const auto& b) { return key(a) < key(b); });
  std::sort(actual.begin(), actual.end(),
            [&](const auto& a, const auto& b) { return key(a) < key(b); });
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].from, expected[i].from) << i;
    EXPECT_EQ(actual[i].to, expected[i].to) << i;
    EXPECT_DOUBLE_EQ(actual[i].length_m, expected[i].length_m) << i;
  }

  // Every AP sits in its building's tile; every building has a tile.
  for (const auto& ap : compiled->aps.aps()) {
    EXPECT_EQ(plan.ap_tile[ap.id], plan.building_tile[ap.building]);
  }
}

TEST(ShardxTiling, EmptyTilesDegradeGracefully) {
  // 3 buildings, 8 requested shards: most tiles own nothing. The run must
  // still match the single-tile run.
  const osmx::City city = row_city(3);
  const auto compiled = core::compile_city(city, draw_free_config(1));
  const SendRun legacy = exercise(compiled, draw_free_config(1, 606));
  const SendRun tiled = exercise(compiled, grid_config(8, 606));
  ASSERT_TRUE(legacy.outcome.delivered);
  expect_same_run(legacy, tiled, "empty tiles");
}

TEST(ShardxTiling, SingleOccupiedTileRunsOneWindow) {
  // One building: no cut edges, lookahead is infinite, and the whole run is
  // one window on one occupied tile.
  const osmx::City city = row_city(1);
  const auto compiled = core::compile_city(city, draw_free_config(1));
  core::CityMeshNetwork net{compiled, grid_config(4, 707)};
  EXPECT_EQ(net.lookahead_s(), sim::kForever);
  const auto keys = cryptox::KeyPair::from_seed(7);
  const auto info = core::PostboxInfo::for_key(keys, 0);
  net.register_postbox(info);
  const auto outcome = net.send(0, info, bytes_of("self"));
  EXPECT_TRUE(outcome.delivered);
  EXPECT_EQ(net.handoffs_exchanged(), 0u);
}

TEST(ShardxTiling, LookaheadIsMinCutEdgeDelay) {
  const auto compiled = core::compile_city(town(21), draw_free_config(1));
  const auto cfg = grid_config(4, 1);
  core::CityMeshNetwork net{compiled, cfg};
  const shardx::TilePlan* plan = net.tile_plan();
  ASSERT_NE(plan, nullptr);
  ASSERT_FALSE(plan->cross.empty());
  double expect = sim::kForever;
  for (const auto& link : plan->cross) {
    expect = std::min(expect, cfg.medium.tx_delay_s +
                                  cfg.medium.prop_delay_s_per_m * link.length_m);
  }
  EXPECT_DOUBLE_EQ(net.lookahead_s(), expect);
  EXPECT_GT(net.lookahead_s(), 0.0);
}

// ------------------------------------------------------- coordination -------

TEST(ShardxControl, ControlEventsRunSynchronizedBetweenWindows) {
  const auto compiled = core::compile_city(town(21), draw_free_config(1));
  core::CityMeshNetwork net{compiled, draw_free_config(4, 2)};
  std::vector<double> fired;
  net.schedule_control(0.5, [&] { fired.push_back(net.sim_now()); });
  net.schedule_control(0.25, [&] {
    fired.push_back(net.sim_now());
    // Nested control events land after the current one, same run.
    net.schedule_control(0.75, [&] { fired.push_back(net.sim_now()); });
  });
  net.run_until(2.0);
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_DOUBLE_EQ(fired[0], 0.25);
  EXPECT_DOUBLE_EQ(fired[1], 0.5);
  EXPECT_DOUBLE_EQ(fired[2], 0.75);
  EXPECT_DOUBLE_EQ(net.sim_now(), 2.0);
  EXPECT_THROW(net.schedule_control(1.0, [] {}), std::runtime_error);
}
