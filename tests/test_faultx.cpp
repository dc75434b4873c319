// Tests for the disaster-scenario subsystem (src/faultx): deterministic
// scenario compilation, blackout-polygon membership, live up/down filtering
// in the broadcast medium, the scenario engine against a real network
// (restoration re-enables delivery), spec parsing, and checkpointed
// scenario evaluation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "core/evaluation.hpp"
#include "core/network.hpp"
#include "cryptox/identity.hpp"
#include "faultx/engine.hpp"
#include "faultx/scenario.hpp"
#include "faultx/scenario_eval.hpp"
#include "faultx/spec.hpp"
#include "graphx/graph.hpp"
#include "mesh/ap_network.hpp"
#include "osmx/citygen.hpp"
#include "medium_test_owner.hpp"
#include "sim/medium.hpp"
#include "sim/simulator.hpp"
#include "trafficx/runner.hpp"

namespace core = citymesh::core;
namespace faultx = citymesh::faultx;
namespace geo = citymesh::geo;
namespace graphx = citymesh::graphx;
namespace mesh = citymesh::mesh;
namespace osmx = citymesh::osmx;
namespace sim = citymesh::sim;
namespace cryptox = citymesh::cryptox;
namespace obsx = citymesh::obsx;
namespace trafficx = citymesh::trafficx;

namespace {

/// A straight row of `n` 20x20 buildings with `gap` meters between them.
osmx::City row_city(std::size_t n, double gap = 20.0) {
  const double stride = 20.0 + gap;
  osmx::City city{"row", {{0, 0}, {stride * static_cast<double>(n), 40}}};
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = static_cast<double>(i) * stride;
    city.add_building(geo::Polygon::rectangle({{x0, 0}, {x0 + 20, 20}}));
  }
  return city;
}

core::NetworkConfig fast_network_config() {
  core::NetworkConfig cfg;
  cfg.placement.density_per_m2 = 1.0 / 60.0;  // dense enough for a small city
  cfg.placement.seed = 5;
  cfg.medium.jitter_s = 1e-4;
  return cfg;
}

std::span<const std::uint8_t> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// A hand-built AP network: one AP per given position, 50 m disc links.
mesh::ApNetwork grid_aps(const std::vector<geo::Point>& positions) {
  std::vector<mesh::AccessPoint> aps;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    aps.push_back({static_cast<mesh::ApId>(i), 0, positions[i]});
  }
  return mesh::ApNetwork{std::move(aps), 50.0};
}

faultx::BlackoutEvent blackout_at(geo::Polygon region, sim::SimTime at,
                                  std::optional<sim::SimTime> restore = std::nullopt,
                                  std::size_t stages = 1, sim::SimTime every = 60.0) {
  faultx::BlackoutEvent event;
  event.region = std::move(region);
  event.at_s = at;
  event.restore_at_s = restore;
  event.restore_stages = stages;
  event.stage_interval_s = every;
  return event;
}

bool same_timeline(const faultx::CompiledScenario& a, const faultx::CompiledScenario& b) {
  if (a.actions.size() != b.actions.size()) return false;
  for (std::size_t i = 0; i < a.actions.size(); ++i) {
    const auto& x = a.actions[i];
    const auto& y = b.actions[i];
    if (x.time != y.time || x.kind != y.kind || x.ap != y.ap || x.region != y.region) {
      return false;
    }
  }
  return true;
}

}  // namespace

// --------------------------------------------------------------- compile ---

TEST(ScenarioCompile, SameSeedIdenticalTimeline) {
  const auto city = row_city(10, 20.0);
  const auto aps = mesh::place_aps(city, {.density_per_m2 = 1.0 / 60.0, .seed = 5});

  faultx::Scenario scenario;
  scenario.seed = 77;
  scenario.blackouts.push_back(
      blackout_at(geo::Polygon::rectangle({{0, 0}, {200, 40}}), 10.0, 300.0, 3, 60.0));
  scenario.churn.push_back({0.3, 100.0, 50.0, 0.0, 600.0});
  scenario.brownouts.push_back({true, 100.0, 0.0, 400.0});

  const auto a = faultx::compile(scenario, aps);
  const auto b = faultx::compile(scenario, aps);
  ASSERT_GT(a.actions.size(), 0u);
  EXPECT_TRUE(same_timeline(a, b));
  EXPECT_EQ(a.aps_affected, b.aps_affected);
  EXPECT_DOUBLE_EQ(a.horizon_s, b.horizon_s);

  // A different seed reshuffles churn arrivals and restoration stages.
  scenario.seed = 78;
  const auto c = faultx::compile(scenario, aps);
  EXPECT_FALSE(same_timeline(a, c));
}

TEST(ScenarioCompile, TimelineIsTimeSorted) {
  const auto city = row_city(8, 20.0);
  const auto aps = mesh::place_aps(city, {.density_per_m2 = 1.0 / 60.0, .seed = 5});
  faultx::Scenario scenario;
  scenario.churn.push_back({0.5, 60.0, 30.0, 0.0, 500.0});
  scenario.blackouts.push_back(blackout_at(geo::Polygon::rectangle({{0, 0}, {100, 40}}), 250.0));
  const auto compiled = faultx::compile(scenario, aps);
  ASSERT_GT(compiled.actions.size(), 1u);
  for (std::size_t i = 1; i < compiled.actions.size(); ++i) {
    EXPECT_LE(compiled.actions[i - 1].time, compiled.actions[i].time);
  }
  EXPECT_DOUBLE_EQ(compiled.horizon_s, compiled.actions.back().time);
}

TEST(ScenarioCompile, BlackoutMembershipRect) {
  // APs at x = 5, 15, 25, 35; blackout covers [10, 30).
  const auto aps = grid_aps({{5, 5}, {15, 5}, {25, 5}, {35, 5}});
  faultx::Scenario scenario;
  scenario.blackouts.push_back(blackout_at(geo::Polygon::rectangle({{10, 0}, {30, 10}}), 0.0));
  const auto compiled = faultx::compile(scenario, aps);
  std::vector<mesh::ApId> downed;
  for (const auto& action : compiled.actions) {
    ASSERT_EQ(action.kind, faultx::FaultKind::kApDown);
    downed.push_back(action.ap);
  }
  std::sort(downed.begin(), downed.end());
  EXPECT_EQ(downed, (std::vector<mesh::ApId>{1, 2}));
  ASSERT_EQ(compiled.outage_regions.size(), 1u);
  EXPECT_EQ(compiled.aps_affected, 2u);
}

TEST(ScenarioCompile, BlackoutMembershipConcavePolygon) {
  // A U-shaped region: the notch (the inside of the U) must stay up.
  //   outline: (0,0) (30,0) (30,30) (20,30) (20,10) (10,10) (10,30) (0,30)
  geo::Polygon u{{{0, 0}, {30, 0}, {30, 30}, {20, 30}, {20, 10}, {10, 10}, {10, 30}, {0, 30}}};
  // AP 0 in the left arm, AP 1 inside the notch, AP 2 in the right arm,
  // AP 3 below the notch (inside the U's base), AP 4 outside entirely.
  const auto aps = grid_aps({{5, 20}, {15, 20}, {25, 20}, {15, 5}, {45, 20}});
  faultx::Scenario scenario;
  scenario.blackouts.push_back(blackout_at(u, 0.0));
  const auto compiled = faultx::compile(scenario, aps);
  std::unordered_set<mesh::ApId> downed;
  for (const auto& action : compiled.actions) downed.insert(action.ap);
  EXPECT_TRUE(downed.count(0));
  EXPECT_FALSE(downed.count(1));  // the notch is outside the polygon
  EXPECT_TRUE(downed.count(2));
  EXPECT_TRUE(downed.count(3));
  EXPECT_FALSE(downed.count(4));
}

TEST(ScenarioCompile, EmptyBlackoutRegionNoActions) {
  const auto aps = grid_aps({{5, 5}, {15, 5}});
  faultx::Scenario scenario;
  scenario.blackouts.push_back(
      blackout_at(geo::Polygon::rectangle({{100, 100}, {200, 200}}), 0.0, 50.0, 2, 10.0));
  const auto compiled = faultx::compile(scenario, aps);
  EXPECT_TRUE(compiled.actions.empty());
  EXPECT_EQ(compiled.aps_affected, 0u);
  // The outage polygon is still retained for rendering.
  EXPECT_EQ(compiled.outage_regions.size(), 1u);
}

TEST(ScenarioCompile, StagedRestorationRestoresEveryAp) {
  const auto city = row_city(10, 20.0);
  const auto aps = mesh::place_aps(city, {.density_per_m2 = 1.0 / 60.0, .seed = 5});
  faultx::Scenario scenario;
  faultx::BlackoutEvent blackout;
  blackout.region = geo::Polygon::rectangle({{0, 0}, {400, 40}});
  blackout.at_s = 5.0;
  blackout.restore_at_s = 100.0;
  blackout.restore_stages = 3;
  blackout.stage_interval_s = 50.0;
  scenario.blackouts.push_back(blackout);
  const auto compiled = faultx::compile(scenario, aps);

  std::unordered_set<mesh::ApId> down, up;
  for (const auto& action : compiled.actions) {
    if (action.kind == faultx::FaultKind::kApDown) {
      EXPECT_DOUBLE_EQ(action.time, 5.0);
      down.insert(action.ap);
    } else if (action.kind == faultx::FaultKind::kApUp) {
      // Restoration times are restore_at + stage * interval.
      const double stage = (action.time - 100.0) / 50.0;
      EXPECT_DOUBLE_EQ(stage, std::floor(stage));
      EXPECT_GE(stage, 0.0);
      EXPECT_LT(stage, 3.0);
      up.insert(action.ap);
    }
  }
  ASSERT_GT(down.size(), 0u);
  EXPECT_EQ(down, up);  // every downed AP comes back
}

TEST(ScenarioCompile, BrownoutDownBeforeUpWithinWindow) {
  const auto city = row_city(10, 20.0);
  const auto aps = mesh::place_aps(city, {.density_per_m2 = 1.0 / 60.0, .seed = 5});
  faultx::Scenario scenario;
  scenario.brownouts.push_back({true, 120.0, 10.0, 300.0});
  const auto compiled = faultx::compile(scenario, aps);
  ASSERT_GT(compiled.actions.size(), 0u);

  std::vector<double> down_at(aps.ap_count(), -1.0), up_at(aps.ap_count(), -1.0);
  for (const auto& action : compiled.actions) {
    if (action.kind == faultx::FaultKind::kApDown) down_at[action.ap] = action.time;
    if (action.kind == faultx::FaultKind::kApUp) up_at[action.ap] = action.time;
  }
  for (std::size_t i = 0; i < aps.ap_count(); ++i) {
    if (down_at[i] < 0.0) continue;  // front never covered this AP
    EXPECT_GE(down_at[i], 10.0);
    EXPECT_LE(up_at[i], 310.0);
    EXPECT_LT(down_at[i], up_at[i]);
  }
}

TEST(ScenarioCompile, ChurnWindowClosesRestored) {
  const auto city = row_city(10, 20.0);
  const auto aps = mesh::place_aps(city, {.density_per_m2 = 1.0 / 60.0, .seed = 5});
  faultx::Scenario scenario;
  scenario.seed = 3;
  scenario.churn.push_back({0.4, 40.0, 40.0, 0.0, 300.0});
  const auto compiled = faultx::compile(scenario, aps);
  ASSERT_GT(compiled.actions.size(), 0u);
  // Balanced down/up per AP, nothing after the window, everything ends up.
  std::vector<int> state(aps.ap_count(), 1);
  for (const auto& action : compiled.actions) {
    EXPECT_LE(action.time, 300.0);
    state[action.ap] = action.kind == faultx::FaultKind::kApUp ? 1 : 0;
  }
  for (std::size_t i = 0; i < state.size(); ++i) EXPECT_EQ(state[i], 1) << "ap " << i;
}

// ---------------------------------------------------------------- medium ---

namespace {

/// A line topology: 0 - 1 - 2 - ... with 10 m links.
graphx::Graph line_topology(std::size_t n) {
  graphx::GraphBuilder b{n};
  for (graphx::VertexId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1, 10.0);
  return b.build();
}

struct TestPacket {
  int value = 0;
};

}  // namespace

TEST(MediumFaults, DownSenderBlocksTransmission) {
  sim::Simulator s;
  const auto topo = line_topology(2);
  citymesh::testkit::TestMedium<TestPacket> medium{s, topo, {}};
  std::vector<bool> up{false, true};
  medium.set_node_filter([&](sim::NodeId n) { return up[n]; });
  std::size_t received = 0;
  medium.set_delivery_handler(
      [&](sim::NodeId, sim::NodeId, const std::shared_ptr<const TestPacket>&) {
        ++received;
      });
  medium.transmit(0, std::make_shared<const TestPacket>());
  s.run();
  EXPECT_EQ(received, 0u);
  EXPECT_EQ(medium.transmissions(), 0u);
  EXPECT_EQ(medium.blocked_transmissions(), 1u);
}

TEST(MediumFaults, ReceiverDownMidFlightMissesPacket) {
  // The receiver is up at transmit time but goes down while the packet is in
  // the air: status is sampled at delivery time, so it must miss it.
  sim::Simulator s;
  const auto topo = line_topology(2);
  sim::MediumConfig cfg;
  cfg.tx_delay_s = 1.0;
  cfg.jitter_s = 0.0;
  citymesh::testkit::TestMedium<TestPacket> medium{s, topo, cfg};
  std::vector<bool> up{true, true};
  medium.set_node_filter([&](sim::NodeId n) { return up[n]; });
  std::size_t received = 0;
  medium.set_delivery_handler(
      [&](sim::NodeId, sim::NodeId, const std::shared_ptr<const TestPacket>&) {
        ++received;
      });
  medium.transmit(0, std::make_shared<const TestPacket>());
  s.schedule_at(0.5, [&] { up[1] = false; });  // delivery lands at t=1.0
  s.run();
  EXPECT_EQ(received, 0u);
  EXPECT_EQ(medium.transmissions(), 1u);
  EXPECT_EQ(medium.blocked_receptions(), 1u);
}

TEST(MediumFaults, RecoveredReceiverHearsAgain) {
  sim::Simulator s;
  const auto topo = line_topology(2);
  citymesh::testkit::TestMedium<TestPacket> medium{s, topo, {}};
  std::vector<bool> up{true, false};
  medium.set_node_filter([&](sim::NodeId n) { return up[n]; });
  std::size_t received = 0;
  medium.set_delivery_handler(
      [&](sim::NodeId, sim::NodeId, const std::shared_ptr<const TestPacket>&) {
        ++received;
      });
  medium.transmit(0, std::make_shared<const TestPacket>());
  s.run();
  EXPECT_EQ(received, 0u);
  up[1] = true;
  medium.transmit(0, std::make_shared<const TestPacket>());
  s.run();
  EXPECT_EQ(received, 1u);
}

TEST(MediumFaults, LinkLossOneAlwaysDrops) {
  sim::Simulator s;
  const auto topo = line_topology(2);
  citymesh::testkit::TestMedium<TestPacket> medium{s, topo, {}};
  medium.set_link_loss([](sim::NodeId, sim::NodeId) { return 1.0; });
  std::size_t received = 0;
  medium.set_delivery_handler(
      [&](sim::NodeId, sim::NodeId, const std::shared_ptr<const TestPacket>&) {
        ++received;
      });
  medium.transmit(0, std::make_shared<const TestPacket>());
  s.run();
  EXPECT_EQ(received, 0u);
  EXPECT_EQ(medium.losses(), 1u);
}

// ---------------------------------------------------------------- engine ---

TEST(ScenarioEngine, RestorationReenablesDeliveryOnLineCity) {
  // 3 buildings in a line; buildings 0 and 2 are 60 m apart edge-to-edge, so
  // with 50 m AP range every 0 -> 2 route must relay through building 1.
  const auto city = row_city(3, 20.0);
  core::CityMeshNetwork net{city, fast_network_config()};

  const auto bob = cryptox::KeyPair::from_seed(42);
  const auto info = core::PostboxInfo::for_key(bob, 2);
  ASSERT_NE(net.register_postbox(info), nullptr);

  // Healthy baseline: delivery works.
  EXPECT_TRUE(net.send(0, info, bytes_of("pre")).delivered);
  const std::size_t all_up = net.aps_up();

  // Blackout over building 1 (x in [40, 60]) at t=10, restored at t=1e6.
  faultx::Scenario scenario;
  scenario.blackouts.push_back(
      blackout_at(geo::Polygon::rectangle({{35, -5}, {65, 45}}), 10.0, 1e6));
  faultx::ScenarioEngine engine{net, scenario};
  ASSERT_GT(engine.scenario().aps_affected, 0u);

  engine.apply_until(10.0);
  EXPECT_LT(net.aps_up(), all_up);
  EXPECT_FALSE(net.live_ap(1).has_value());  // the whole building is dark
  EXPECT_FALSE(net.send(0, info, bytes_of("mid")).delivered);

  engine.apply_until(1e6);
  EXPECT_EQ(net.aps_up(), all_up);
  EXPECT_TRUE(net.live_ap(1).has_value());
  EXPECT_TRUE(net.send(0, info, bytes_of("post")).delivered);
}

TEST(ScenarioEngine, ApplyUntilCursorIsMonotonic) {
  const auto city = row_city(3, 20.0);
  core::CityMeshNetwork net{city, fast_network_config()};
  faultx::Scenario scenario;
  scenario.blackouts.push_back(
      blackout_at(geo::Polygon::rectangle({{35, -5}, {65, 45}}), 10.0, 100.0));
  faultx::ScenarioEngine engine{net, scenario};

  engine.apply_until(50.0);
  const std::size_t applied = engine.applied();
  EXPECT_GT(applied, 0u);
  engine.apply_until(5.0);  // going backwards is a no-op
  EXPECT_EQ(engine.applied(), applied);
  engine.apply_until(100.0);
  EXPECT_GT(engine.applied(), applied);
}

TEST(ScenarioEngine, InstalledFaultsFireDuringSends) {
  // Live mode: install the timeline into the simulator and let sends advance
  // time across the blackout edge. The first send (before the blackout) must
  // deliver; a later send (after the scheduled down events fired) must fail.
  const auto city = row_city(3, 20.0);
  auto cfg = fast_network_config();
  cfg.max_sim_time_s = 50.0;
  core::CityMeshNetwork net{city, cfg};

  const auto bob = cryptox::KeyPair::from_seed(43);
  const auto info = core::PostboxInfo::for_key(bob, 2);
  ASSERT_NE(net.register_postbox(info), nullptr);

  faultx::Scenario scenario;
  scenario.blackouts.push_back(
      blackout_at(geo::Polygon::rectangle({{35, -5}, {65, 45}}), 25.0));  // no restoration
  faultx::ScenarioEngine engine{net, scenario};
  engine.install();

  EXPECT_TRUE(net.send(0, info, bytes_of("first")).delivered);   // quiesces ~t<25
  net.run_until(60.0);                                           // cross the edge
  EXPECT_FALSE(net.send(0, info, bytes_of("second")).delivered);
}

TEST(ScenarioEngine, LiveBlackoutIsShardInvariant) {
  // A live blackout installed under a traffic workload, in the draw-free
  // regime (flood, no loss, no jitter) where the tiled engine reproduces the
  // single event loop: every shard count must apply every action, trace
  // every AP going down and leave the identical outcome behind.
  osmx::CityProfile profile;
  profile.name = "faultx-shards";
  profile.width_m = 800;
  profile.height_m = 600;
  profile.park_fraction = 0.0;
  profile.seed = 21;
  core::NetworkConfig base = fast_network_config();
  base.medium.jitter_s = 0.0;
  base.medium.bitrate_bps = 250'000.0;
  base.trace_capacity = std::size_t{1} << 18;  // the whole run, no ring wrap
  const auto compiled = core::compile_city(osmx::generate_city(profile), base);

  trafficx::WorkloadSpec spec;
  spec.seed = 9;
  spec.duration_s = 4.0;
  spec.rate_per_s = 4.0;
  const trafficx::FlowSchedule schedule = trafficx::compile(spec, compiled->city);
  faultx::Scenario scenario;
  scenario.blackouts.push_back(
      blackout_at(geo::Polygon::rectangle({{0, 0}, {400, 600}}), 1.5, 3.0));

  struct Run {
    std::size_t applied = 0;
    std::size_t actions = 0;
    std::size_t down_traced = 0;
    trafficx::WorkloadResult result;
  };
  std::vector<Run> runs;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    core::NetworkConfig cfg = base;
    cfg.shards = shards;
    core::CityMeshNetwork net{compiled, cfg};
    net.set_tracing(true);
    faultx::ScenarioEngine engine{net, scenario};
    engine.install();
    Run run;
    run.result = trafficx::run_workload(net, schedule);
    run.applied = engine.applied();
    run.actions = engine.scenario().actions.size();
    EXPECT_EQ(net.trace_lost(), 0u) << "shards " << shards;
    for (const obsx::TraceEvent& ev : net.merged_trace_events()) {
      if (ev.kind == obsx::TraceKind::kApDown) ++run.down_traced;
    }
    runs.push_back(std::move(run));
  }

  ASSERT_GT(runs[0].actions, 0u);
  EXPECT_EQ(runs[0].applied, runs[0].actions);
  EXPECT_GT(runs[0].down_traced, 0u);
  EXPECT_EQ(runs[0].down_traced * 2, runs[0].actions);  // each AP: down, then up
  EXPECT_GT(runs[0].result.summary.flows_delivered, 0u);
  for (std::size_t k = 1; k < runs.size(); ++k) {
    const std::string label = "run " + std::to_string(k);
    EXPECT_EQ(runs[k].applied, runs[0].applied) << label;
    EXPECT_EQ(runs[k].down_traced, runs[0].down_traced) << label;
    const auto& flows = runs[k].result.flows;
    ASSERT_EQ(flows.size(), runs[0].result.flows.size()) << label;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      EXPECT_EQ(flows[i].delivered, runs[0].result.flows[i].delivered) << label << " flow " << i;
      EXPECT_DOUBLE_EQ(flows[i].latency_s, runs[0].result.flows[i].latency_s) << label;
      EXPECT_EQ(flows[i].transmissions, runs[0].result.flows[i].transmissions) << label;
    }
    EXPECT_EQ(runs[k].result.metrics.counters, runs[0].result.metrics.counters) << label;
    // Histogram sums differ in the last bits only (tiles quantize them).
    for (const auto& [name, h] : runs[0].result.metrics.histograms) {
      const auto& other = runs[k].result.metrics.histograms.at(name);
      EXPECT_EQ(other.counts, h.counts) << label << " " << name;
      EXPECT_EQ(other.total, h.total) << label << " " << name;
    }
  }
  // Tiled runs accumulate exactly quantized latency sums: byte-identical.
  EXPECT_EQ(runs[1].result.metrics.to_json(), runs[2].result.metrics.to_json());
}

TEST(ScenarioEngine, OverheadMeasuredFromTheApThatTransmitted) {
  // A live blackout downs exactly the representative AP of a multi-AP source
  // building, so the flow leaves from another AP of that building. The
  // workload's ideal-hop baseline must be measured from that AP, not from
  // the (down) representative.
  core::NetworkConfig cfg = fast_network_config();
  cfg.medium.jitter_s = 0.0;
  cfg.medium.loss_probability = 0.0;
  const auto compiled =
      core::compile_city(osmx::generate_city(osmx::profile_by_name("cambridge")), cfg);
  const mesh::ApNetwork& aps = compiled->aps;
  const osmx::City& city = compiled->city;

  std::size_t checked = 0;
  for (osmx::BuildingId src = 0; src < city.building_count() && checked == 0; ++src) {
    const auto& own = aps.aps_of_building(src);
    if (own.size() < 2) continue;
    const mesh::ApId rep = *aps.representative_ap(city, src);
    const geo::Point at = aps.ap(rep).position;
    const geo::Polygon region =
        geo::Polygon::rectangle({{at.x - 0.01, at.y - 0.01}, {at.x + 0.01, at.y + 0.01}});
    faultx::Scenario scenario;
    scenario.blackouts.push_back(blackout_at(region, 0.5));
    if (faultx::compile(scenario, aps).aps_affected != 1) continue;
    // The AP live_ap falls back to: the next closest to the centroid.
    const geo::Point centroid = city.building(src).centroid;
    mesh::ApId alt = rep;
    for (const mesh::ApId id : own) {
      if (id == rep) continue;
      if (alt == rep || geo::distance2(aps.ap(id).position, centroid) <
                            geo::distance2(aps.ap(alt).position, centroid)) {
        alt = id;
      }
    }
    for (osmx::BuildingId dst = 0; dst < city.building_count() && checked == 0; ++dst) {
      const auto& targets = aps.aps_of_building(dst);
      const auto from_rep = aps.min_hops(rep, targets);
      const auto from_alt = aps.min_hops(alt, targets);
      if (!from_rep || !from_alt || *from_alt == 0 || *from_alt > 4 || *from_rep == *from_alt) {
        continue;
      }
      trafficx::FlowSchedule schedule;
      schedule.spec.duration_s = 2.0;
      schedule.flows.push_back({1.0, src, dst, 64});
      core::CityMeshNetwork net{compiled, cfg};
      net.set_tracing(true);
      faultx::ScenarioEngine engine{net, scenario};
      engine.install();
      trafficx::RunConfig run_cfg;
      run_cfg.measure_overhead = true;
      const auto result = trafficx::run_workload(net, schedule, run_cfg);
      ASSERT_EQ(engine.applied(), 1u);
      if (!result.flows[0].delivered) continue;
      std::optional<std::uint32_t> origin;
      for (const obsx::TraceEvent& ev : net.merged_trace_events()) {
        if (ev.kind == obsx::TraceKind::kOriginate) origin = ev.node;
      }
      ASSERT_EQ(origin, std::optional<std::uint32_t>{alt}) << "src " << src << " dst " << dst;
      EXPECT_EQ(result.flows[0].min_hops, *from_alt) << "src " << src << " dst " << dst;
      EXPECT_NE(result.flows[0].min_hops, *from_rep) << "src " << src << " dst " << dst;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 1u);
}

TEST(ScenarioEngine, DegradedRegionRaisesLoss) {
  const auto city = row_city(3, 20.0);
  core::CityMeshNetwork net{city, fast_network_config()};
  faultx::Scenario scenario;
  scenario.degraded_links.push_back(
      {geo::Polygon::rectangle({{35, -5}, {65, 45}}), 0.75, 10.0, 200.0});
  faultx::ScenarioEngine engine{net, scenario};

  EXPECT_EQ(net.degraded_regions().size(), 0u);
  engine.apply_until(10.0);
  ASSERT_EQ(net.degraded_regions().size(), 1u);
  EXPECT_TRUE(net.degraded_regions()[0].active);
  // Any AP of building 1 sits inside the region; its links suffer the loss.
  const auto mid_ap = net.live_ap(1);
  ASSERT_TRUE(mid_ap.has_value());
  EXPECT_DOUBLE_EQ(net.extra_link_loss(*mid_ap, *mid_ap), 0.75);
  engine.apply_until(200.0);
  EXPECT_FALSE(net.degraded_regions()[0].active);
  EXPECT_DOUBLE_EQ(net.extra_link_loss(*mid_ap, *mid_ap), 0.0);
}

// ------------------------------------------------------------ evaluation ---

TEST(ScenarioEval, SnapshotSeesBlackout) {
  const auto city = row_city(8, 20.0);
  core::CityMeshNetwork net{city, fast_network_config()};

  core::SnapshotConfig snap_cfg;
  snap_cfg.pairs = 40;
  snap_cfg.deliver_pairs = 4;
  const auto healthy = core::evaluate_snapshot(net, snap_cfg);
  EXPECT_EQ(healthy.aps_up, healthy.aps_total);
  EXPECT_DOUBLE_EQ(healthy.reachability(), 1.0);
  EXPECT_DOUBLE_EQ(healthy.deliverability(), 1.0);

  // Cut the row in the middle: buildings 3-4 around x in [120, 200].
  faultx::Scenario scenario;
  scenario.blackouts.push_back(
      blackout_at(geo::Polygon::rectangle({{115, -5}, {205, 45}}), 0.0));
  faultx::ScenarioEngine engine{net, scenario};
  engine.apply_all();

  const auto cut = core::evaluate_snapshot(net, snap_cfg);
  EXPECT_LT(cut.aps_up, cut.aps_total);
  EXPECT_LT(cut.reachability(), 1.0);
}

TEST(ScenarioEval, CheckpointTraceIsDeterministic) {
  const auto city = row_city(6, 20.0);

  faultx::Scenario scenario;
  scenario.seed = 11;
  scenario.blackouts.push_back(
      blackout_at(geo::Polygon::rectangle({{75, -5}, {145, 45}}), 10.0, 60.0, 2, 30.0));

  faultx::ScenarioEvalConfig cfg;
  cfg.checkpoints = {0.0, 10.0, 60.0, 120.0};
  cfg.snapshot.pairs = 30;
  cfg.snapshot.deliver_pairs = 3;

  auto run_once = [&] {
    core::CityMeshNetwork net{city, fast_network_config()};
    return faultx::evaluate_scenario(net, scenario, cfg);
  };
  const auto a = run_once();
  const auto b = run_once();

  ASSERT_EQ(a.snapshots.size(), 4u);
  ASSERT_EQ(b.snapshots.size(), 4u);
  for (std::size_t i = 0; i < a.snapshots.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.snapshots[i].at_s, b.snapshots[i].at_s);
    EXPECT_EQ(a.snapshots[i].aps_up, b.snapshots[i].aps_up);
    EXPECT_EQ(a.snapshots[i].pairs_reachable, b.snapshots[i].pairs_reachable);
    EXPECT_EQ(a.snapshots[i].deliveries_succeeded, b.snapshots[i].deliveries_succeeded);
    EXPECT_EQ(a.snapshots[i].rescues_succeeded, b.snapshots[i].rescues_succeeded);
  }
  // The blackout dents the middle checkpoints; the last one has recovered.
  EXPECT_EQ(a.snapshots[0].aps_up, a.snapshots[0].aps_total);
  EXPECT_LT(a.snapshots[1].aps_up, a.snapshots[1].aps_total);
  EXPECT_EQ(a.snapshots[3].aps_up, a.snapshots[3].aps_total);
}

// ------------------------------------------------------------------ spec ---

TEST(ScenarioSpec, ParsesFullSpec) {
  const std::string text = R"(# a disaster script
name downtown-blackout
seed 7
blackout rect 400 400 1200 1200 at 10 restore 300 stages 3 every 60
blackout poly 0 0 500 0 500 500 at 20
churn frac 0.15 up 200 down 80 from 0 to 900
brownout axis y width 200 from 100 duration 400
degrade rect 0 0 800 800 loss 0.4 from 50 to 600
checkpoints 0 60 120 300 600
)";
  std::string error;
  const auto parsed = faultx::parse_scenario(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const auto& s = parsed->scenario;
  EXPECT_EQ(s.name, "downtown-blackout");
  EXPECT_EQ(s.seed, 7u);
  ASSERT_EQ(s.blackouts.size(), 2u);
  EXPECT_DOUBLE_EQ(s.blackouts[0].at_s, 10.0);
  ASSERT_TRUE(s.blackouts[0].restore_at_s.has_value());
  EXPECT_DOUBLE_EQ(*s.blackouts[0].restore_at_s, 300.0);
  EXPECT_EQ(s.blackouts[0].restore_stages, 3u);
  EXPECT_DOUBLE_EQ(s.blackouts[0].stage_interval_s, 60.0);
  EXPECT_FALSE(s.blackouts[1].restore_at_s.has_value());
  EXPECT_EQ(s.blackouts[1].region.vertices().size(), 3u);
  ASSERT_EQ(s.churn.size(), 1u);
  EXPECT_DOUBLE_EQ(s.churn[0].ap_fraction, 0.15);
  EXPECT_DOUBLE_EQ(s.churn[0].mean_up_s, 200.0);
  EXPECT_DOUBLE_EQ(s.churn[0].mean_down_s, 80.0);
  ASSERT_EQ(s.brownouts.size(), 1u);
  EXPECT_FALSE(s.brownouts[0].sweep_x);
  EXPECT_DOUBLE_EQ(s.brownouts[0].front_width_m, 200.0);
  ASSERT_EQ(s.degraded_links.size(), 1u);
  EXPECT_DOUBLE_EQ(s.degraded_links[0].extra_loss, 0.4);
  EXPECT_EQ(parsed->checkpoints,
            (std::vector<sim::SimTime>{0, 60, 120, 300, 600}));
}

TEST(ScenarioSpec, ErrorNamesOffendingLine) {
  const std::string text = "name ok\nblackout rect 1 2 3\n";
  std::string error;
  const auto parsed = faultx::parse_scenario(text, &error);
  EXPECT_FALSE(parsed.has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST(ScenarioSpec, RejectsUnknownDirective) {
  std::string error;
  EXPECT_FALSE(faultx::parse_scenario(std::string{"earthquake 5\n"}, &error).has_value());
  EXPECT_FALSE(error.empty());
}
