// Tests for the traffic-workload subsystem (src/trafficx) and the airtime
// contention model it rides on (sim/medium): spec parsing, seeded schedule
// determinism, spatial sampling modes, queue-overflow drop accounting, a
// pinned deferral-ordering event sequence, loss-stream invariance under the
// jitter toggle, and end-to-end workload runs against a real network.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "core/evaluation.hpp"
#include "core/network.hpp"
#include "core/postbox.hpp"
#include "cryptox/identity.hpp"
#include "graphx/graph.hpp"
#include "obsx/trace.hpp"
#include "osmx/building.hpp"
#include "sim/medium.hpp"
#include "sim/simulator.hpp"
#include "trafficx/runner.hpp"
#include "trafficx/spec.hpp"
#include "trafficx/workload.hpp"

namespace trafficx = citymesh::trafficx;
namespace core = citymesh::core;
namespace osmx = citymesh::osmx;
namespace geo = citymesh::geo;
namespace sim = citymesh::sim;
namespace obsx = citymesh::obsx;
namespace graphx = citymesh::graphx;
namespace cryptox = citymesh::cryptox;

namespace {

/// A line topology: 0 - 1 - 2 - ... with 10 m links.
graphx::Graph line_topology(std::size_t n) {
  graphx::GraphBuilder b{n};
  for (graphx::VertexId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1, 10.0);
  return b.build();
}

struct TestPacket {
  std::uint32_t id = 0;
};

/// Contention-model medium config with clean numbers: 1000 bits per frame
/// (no packet-bits hook) at 1 Mbit/s = exactly 1 ms on air per packet.
sim::MediumConfig contention_config() {
  sim::MediumConfig cfg;
  cfg.jitter_s = 0.0;
  cfg.prop_delay_s_per_m = 0.0;
  cfg.loss_probability = 0.0;
  cfg.bitrate_bps = 1e6;
  cfg.frame_overhead_bits = 1000;
  return cfg;
}

/// 10 buildings in a row, the first two downtown.
osmx::City biased_city() {
  osmx::City city{"biased", {{0, 0}, {500, 10}}};
  for (int i = 0; i < 10; ++i) {
    const double x = 50.0 * i;
    city.add_building(
        geo::Polygon::rectangle({{x, 0}, {x + 10, 10}}),
        i < 2 ? osmx::AreaType::kDowntown : osmx::AreaType::kResidential);
  }
  return city;
}

osmx::City three_building_city() {
  osmx::City city{"three", {{0, 0}, {90, 10}}};
  city.add_building(geo::Polygon::rectangle({{0, 0}, {10, 10}}));
  city.add_building(geo::Polygon::rectangle({{40, 0}, {50, 10}}));
  city.add_building(geo::Polygon::rectangle({{80, 0}, {90, 10}}));
  return city;
}

core::NetworkConfig contention_network_config() {
  core::NetworkConfig cfg;
  cfg.placement.density_per_m2 = 1.0 / 100.0;
  cfg.placement.transmission_range_m = 55.0;
  cfg.placement.seed = 3;
  cfg.medium.jitter_s = 0.0;
  cfg.medium.prop_delay_s_per_m = 0.0;
  cfg.medium.bitrate_bps = 1e6;
  cfg.medium.frame_overhead_bits = 400;
  return cfg;
}

}  // namespace

// -------------------------------------------------------------- Spec text ---

TEST(WorkloadSpecText, ParsesFullSpec) {
  const std::string text = R"(# rush hour profile
name rush-hour
seed 7
duration 20
rate 8
spatial hotspot bias 4.5
payload 64 512
)";
  std::string error;
  const auto spec = trafficx::parse_workload(text, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->name, "rush-hour");
  EXPECT_EQ(spec->seed, 7u);
  EXPECT_DOUBLE_EQ(spec->duration_s, 20.0);
  EXPECT_DOUBLE_EQ(spec->rate_per_s, 8.0);
  EXPECT_EQ(spec->spatial, trafficx::SpatialMode::kHotspot);
  EXPECT_DOUBLE_EQ(spec->hotspot_bias, 4.5);
  EXPECT_EQ(spec->payload_min_bytes, 64u);
  EXPECT_EQ(spec->payload_max_bytes, 512u);
}

TEST(WorkloadSpecText, ParsesEmergencyOriginAndFixedPayload) {
  const auto spec =
      trafficx::parse_workload("spatial emergency origin 12\npayload 128\n");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->spatial, trafficx::SpatialMode::kEmergency);
  ASSERT_TRUE(spec->emergency_origin.has_value());
  EXPECT_EQ(*spec->emergency_origin, 12u);
  EXPECT_EQ(spec->payload_min_bytes, 128u);
  EXPECT_EQ(spec->payload_max_bytes, 128u);
}

TEST(WorkloadSpecText, ErrorNamesOffendingLine) {
  std::string error;
  const auto spec = trafficx::parse_workload("name ok\nrate fast\n", &error);
  EXPECT_FALSE(spec.has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST(WorkloadSpecText, RejectsUnknownDirectiveAndBadClauses) {
  EXPECT_FALSE(trafficx::parse_workload("tempo 9\n").has_value());
  EXPECT_FALSE(trafficx::parse_workload("spatial sideways\n").has_value());
  // `bias` belongs to hotspot, `origin` to emergency.
  EXPECT_FALSE(trafficx::parse_workload("spatial uniform bias 2\n").has_value());
  EXPECT_FALSE(trafficx::parse_workload("spatial hotspot origin 3\n").has_value());
  EXPECT_FALSE(trafficx::parse_workload("payload 512 64\n").has_value());
  EXPECT_FALSE(trafficx::parse_workload("rate -3\n").has_value());
}

TEST(WorkloadSpecText, SpatialModeNamesRoundTrip) {
  for (const auto mode :
       {trafficx::SpatialMode::kUniform, trafficx::SpatialMode::kHotspot,
        trafficx::SpatialMode::kEmergency}) {
    const auto back = trafficx::spatial_mode_from(trafficx::to_string(mode));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, mode);
  }
}

// ---------------------------------------------------------------- Compile ---

TEST(WorkloadCompile, SameSeedSameSchedule) {
  const auto city = biased_city();
  trafficx::WorkloadSpec spec;
  spec.seed = 42;
  spec.duration_s = 10.0;
  spec.rate_per_s = 20.0;
  const auto a = trafficx::compile(spec, city);
  const auto b = trafficx::compile(spec, city);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  EXPECT_GT(a.flows.size(), 0u);
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.flows[i].start_s, b.flows[i].start_s);
    EXPECT_EQ(a.flows[i].src, b.flows[i].src);
    EXPECT_EQ(a.flows[i].dst, b.flows[i].dst);
    EXPECT_EQ(a.flows[i].payload_bytes, b.flows[i].payload_bytes);
  }
  EXPECT_EQ(a.digest(), b.digest());

  trafficx::WorkloadSpec other = spec;
  other.seed = 43;
  EXPECT_NE(trafficx::compile(other, city).digest(), a.digest());
}

TEST(WorkloadCompile, PoissonArrivalsMatchOfferedLoad) {
  const auto city = biased_city();
  trafficx::WorkloadSpec spec;
  spec.seed = 5;
  spec.duration_s = 50.0;
  spec.rate_per_s = 20.0;  // expect ~1000 arrivals, sd ~32
  const auto schedule = trafficx::compile(spec, city);
  EXPECT_GT(schedule.flows.size(), 850u);
  EXPECT_LT(schedule.flows.size(), 1150u);
  // Arrivals are sorted, inside [0, duration), and src != dst throughout.
  for (std::size_t i = 0; i < schedule.flows.size(); ++i) {
    const auto& f = schedule.flows[i];
    EXPECT_GE(f.start_s, 0.0);
    EXPECT_LT(f.start_s, spec.duration_s);
    if (i > 0) {
      EXPECT_GE(f.start_s, schedule.flows[i - 1].start_s);
    }
    EXPECT_NE(f.src, f.dst);
    EXPECT_GE(f.payload_bytes, spec.payload_min_bytes);
    EXPECT_LE(f.payload_bytes, spec.payload_max_bytes);
  }
}

TEST(WorkloadCompile, HotspotBiasConcentratesEndpoints) {
  const auto city = biased_city();  // buildings 0 and 1 are downtown
  trafficx::WorkloadSpec spec;
  spec.seed = 11;
  spec.duration_s = 100.0;
  spec.rate_per_s = 20.0;
  spec.spatial = trafficx::SpatialMode::kHotspot;
  spec.hotspot_bias = 16.0;
  const auto schedule = trafficx::compile(spec, city);
  std::size_t downtown = 0, total = 0;
  for (const auto& f : schedule.flows) {
    downtown += (f.src < 2) + (f.dst < 2);
    total += 2;
  }
  // Weights 16:1 over 2 downtown + 8 other buildings: expect 80% of
  // endpoints downtown; uniform would give 20%.
  EXPECT_GT(static_cast<double>(downtown) / total, 0.6);
}

TEST(WorkloadCompile, EmergencyFansOutFromOneOrigin) {
  const auto city = biased_city();
  trafficx::WorkloadSpec spec;
  spec.seed = 13;
  spec.duration_s = 30.0;
  spec.rate_per_s = 10.0;
  spec.spatial = trafficx::SpatialMode::kEmergency;
  spec.emergency_origin = 4;
  const auto schedule = trafficx::compile(spec, city);
  ASSERT_GT(schedule.flows.size(), 10u);
  std::vector<bool> dst_seen(city.building_count(), false);
  for (const auto& f : schedule.flows) {
    EXPECT_EQ(f.src, 4u);
    EXPECT_NE(f.dst, 4u);
    dst_seen[f.dst] = true;
  }
  // One origin reaches many distinct destinations.
  EXPECT_GT(std::count(dst_seen.begin(), dst_seen.end(), true), 5);

  // Default origin: the first downtown building.
  spec.emergency_origin.reset();
  for (const auto& f : trafficx::compile(spec, city).flows) {
    EXPECT_EQ(f.src, 0u);
  }
}

// ------------------------------------------------- Medium contention model ---

TEST(MediumContention, QueueOverflowDropsAreCounted) {
  sim::Simulator s;
  const auto topo = line_topology(2);
  auto cfg = contention_config();
  cfg.tx_queue_capacity = 1;
  sim::BroadcastMedium<TestPacket> medium{s, topo, cfg};
  std::size_t delivered = 0;
  medium.set_delivery_handler(
      [&](sim::NodeId, sim::NodeId, const std::shared_ptr<const TestPacket>&) {
        ++delivered;
      });

  // Four back-to-back transmits: one airs, one queues, two overflow.
  for (std::uint32_t i = 0; i < 4; ++i) {
    medium.transmit(0, std::make_shared<const TestPacket>(TestPacket{i}));
  }
  EXPECT_EQ(medium.deferrals(), 1u);
  EXPECT_EQ(medium.queue_drops(), 2u);
  EXPECT_EQ(medium.queued(0), 1u);

  s.run();
  EXPECT_EQ(medium.transmissions(), 2u);
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(medium.queued(0), 0u);
  // Two 1 ms frames of airtime, all charged to node 0.
  EXPECT_NEAR(medium.airtime_s(0), 2e-3, 1e-12);
  EXPECT_NEAR(medium.total_airtime_s(), 2e-3, 1e-12);
}

TEST(MediumContention, PinnedDeferralOrderingTwoConcurrentSenders) {
  // 3 APs in a line; nodes 0 and 2 transmit at t=0 and node 1 relays
  // whatever it hears. Node 1's second relay must defer behind its first,
  // and the full event sequence is pinned: serialization is 1 ms per frame,
  // so the relayed packets leave node 1 at exactly t=1ms and t=2ms.
  sim::Simulator s;
  const auto topo = line_topology(3);
  sim::BroadcastMedium<TestPacket> medium{s, topo, contention_config()};
  obsx::TraceBuffer trace{256};
  trace.enable();
  medium.set_trace(&trace, [](const TestPacket& p) { return p.id; });
  medium.set_delivery_handler(
      [&](sim::NodeId to, sim::NodeId, const std::shared_ptr<const TestPacket>& p) {
        if (to == 1) medium.transmit(1, p);
      });

  medium.transmit(0, std::make_shared<const TestPacket>(TestPacket{100}));
  medium.transmit(2, std::make_shared<const TestPacket>(TestPacket{200}));
  s.run();

  using K = obsx::TraceKind;
  struct Expected {
    K kind;
    std::uint32_t node;
    std::uint32_t packet;
    double t;
  };
  const std::vector<Expected> expected{
      {K::kTx, 0, 100, 0.0},       // A on the air at node 0
      {K::kTx, 2, 200, 0.0},       // B on the air at node 2 (no contention: other node)
      {K::kRx, 1, 100, 1e-3},      // A arrives at the relay...
      {K::kTx, 1, 100, 1e-3},      // ...which relays it immediately
      {K::kRx, 1, 200, 1e-3},      // B arrives while the relay is busy...
      {K::kDeferred, 1, 200, 1e-3},// ...and queues behind A
      {K::kTx, 1, 200, 2e-3},      // A done: B leaves the queue
      {K::kRx, 0, 100, 2e-3},      // relayed A fans out
      {K::kRx, 2, 100, 2e-3},
      {K::kRx, 0, 200, 3e-3},      // relayed B one frame later
      {K::kRx, 2, 200, 3e-3},
  };
  const auto events = trace.events();
  ASSERT_EQ(events.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(events[i].kind, expected[i].kind) << "event " << i;
    EXPECT_EQ(events[i].node, expected[i].node) << "event " << i;
    EXPECT_EQ(events[i].packet, expected[i].packet) << "event " << i;
    EXPECT_DOUBLE_EQ(events[i].time_s, expected[i].t) << "event " << i;
  }
  EXPECT_EQ(medium.deferrals(), 1u);
  EXPECT_EQ(medium.queue_drops(), 0u);
  EXPECT_EQ(medium.transmissions(), 4u);
}

TEST(MediumContention, PacketBitsDriveSerializationDelay) {
  sim::Simulator s;
  const auto topo = line_topology(2);
  auto cfg = contention_config();  // 1000 framing bits at 1 Mbit/s
  sim::BroadcastMedium<TestPacket> medium{s, topo, cfg};
  // 9000 packet bits + 1000 framing = 10 ms on the air.
  medium.set_packet_bits([](const TestPacket&) { return std::size_t{9000}; });
  double delivered_at = -1.0;
  medium.set_delivery_handler(
      [&](sim::NodeId, sim::NodeId, const std::shared_ptr<const TestPacket>&) {
        delivered_at = s.now();
      });
  medium.transmit(0, std::make_shared<const TestPacket>(TestPacket{1}));
  s.run();
  EXPECT_DOUBLE_EQ(delivered_at, 1e-2);
  EXPECT_NEAR(medium.airtime_s(0), 1e-2, 1e-12);
}

TEST(MediumJitter, LossOutcomesInvariantUnderJitterToggle) {
  // The loss and jitter streams are independent: turning jitter on must not
  // change which deliveries are lost, and zero jitter draws nothing.
  const auto run = [](double jitter_s) {
    sim::Simulator s;
    const auto topo = line_topology(2);
    sim::MediumConfig cfg;
    cfg.jitter_s = jitter_s;
    cfg.loss_probability = 0.5;
    cfg.seed = 99;
    sim::BroadcastMedium<TestPacket> medium{s, topo, cfg};
    std::vector<std::uint32_t> arrived;
    medium.set_delivery_handler(
        [&](sim::NodeId, sim::NodeId, const std::shared_ptr<const TestPacket>& p) {
          arrived.push_back(p->id);
        });
    for (std::uint32_t i = 0; i < 200; ++i) {
      medium.transmit(0, std::make_shared<const TestPacket>(TestPacket{i}));
      s.run();
    }
    return arrived;
  };
  const auto without = run(0.0);
  const auto with = run(2e-3);
  // Sanity: the coin actually flipped both ways.
  EXPECT_GT(without.size(), 50u);
  EXPECT_LT(without.size(), 150u);
  EXPECT_EQ(without, with);
}

// ------------------------------------------------------- Capacity summary ---

TEST(CapacitySummary, FoldsFlowRecords) {
  std::vector<core::FlowRecord> flows(4);
  flows[0] = {0.1, 100, true, true, 0.010};
  flows[1] = {0.2, 300, true, true, 0.030};
  flows[2] = {0.3, 500, true, false, 0.0};
  flows[3] = {0.4, 700, false, false, 0.0};  // never injected
  const auto sum = core::summarize_capacity(flows, 2.0, /*queue_drops=*/5,
                                            /*deferrals=*/9, /*airtime_s=*/0.25);
  EXPECT_EQ(sum.flows_offered, 4u);
  EXPECT_EQ(sum.flows_injected, 3u);
  EXPECT_EQ(sum.flows_delivered, 2u);
  EXPECT_DOUBLE_EQ(sum.offered_load_per_s, 2.0);
  EXPECT_DOUBLE_EQ(sum.delivery_rate(), 0.5);
  EXPECT_DOUBLE_EQ(sum.goodput_bytes_per_s, 200.0);  // (100+300)/2s
  EXPECT_DOUBLE_EQ(sum.latency_p50_s, 0.020);
  EXPECT_EQ(sum.queue_drops, 5u);
  EXPECT_EQ(sum.deferrals, 9u);
  EXPECT_DOUBLE_EQ(sum.airtime_s, 0.25);
}

// ------------------------------------------------------------ Runner (e2e) ---

TEST(WorkloadRunner, LightLoadDeliversEverythingDeterministically) {
  const auto city = three_building_city();
  trafficx::WorkloadSpec spec;
  spec.seed = 21;
  spec.duration_s = 5.0;
  spec.rate_per_s = 2.0;
  spec.payload_min_bytes = 32;
  spec.payload_max_bytes = 32;
  const auto schedule = trafficx::compile(spec, city);
  ASSERT_GT(schedule.flows.size(), 2u);

  const auto run = [&] {
    core::CityMeshNetwork net{city, contention_network_config()};
    return trafficx::run_workload(net, schedule);
  };
  const auto a = run();
  EXPECT_EQ(a.summary.flows_offered, schedule.flows.size());
  EXPECT_EQ(a.summary.flows_injected, schedule.flows.size());
  EXPECT_EQ(a.summary.flows_delivered, schedule.flows.size());
  EXPECT_EQ(a.summary.queue_drops, 0u);
  EXPECT_GT(a.summary.goodput_bytes_per_s, 0.0);
  EXPECT_GT(a.summary.airtime_s, 0.0);
  for (const auto& f : a.flows) {
    EXPECT_TRUE(f.delivered);
    EXPECT_GT(f.latency_s, 0.0);
  }

  const auto b = run();
  ASSERT_EQ(b.flows.size(), a.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_DOUBLE_EQ(b.flows[i].latency_s, a.flows[i].latency_s) << "flow " << i;
  }
  EXPECT_EQ(b.summary.deferrals, a.summary.deferrals);
  EXPECT_DOUBLE_EQ(b.summary.airtime_s, a.summary.airtime_s);
}

TEST(WorkloadRunner, OverloadDropsFlowsAtTheQueue) {
  const auto city = three_building_city();
  trafficx::WorkloadSpec spec;
  spec.seed = 22;
  spec.duration_s = 2.0;
  spec.rate_per_s = 100.0;
  spec.payload_min_bytes = 256;
  spec.payload_max_bytes = 256;
  const auto schedule = trafficx::compile(spec, city);

  auto cfg = contention_network_config();
  cfg.medium.bitrate_bps = 5e4;  // ~2500 bits/frame -> ~50 ms on air each
  cfg.medium.tx_queue_capacity = 1;
  core::CityMeshNetwork net{city, cfg};
  const auto result = trafficx::run_workload(net, schedule);
  EXPECT_GT(result.summary.queue_drops, 0u);
  EXPECT_GT(result.summary.deferrals, 0u);
  EXPECT_LT(result.summary.flows_delivered, result.summary.flows_offered);
  // The medium's counters surface through the network registry too.
  const auto it = result.metrics.counters.find("medium.queue_drops");
  ASSERT_NE(it, result.metrics.counters.end());
  EXPECT_EQ(it->second, result.summary.queue_drops);
}

TEST(WorkloadRunner, FlowStateBookkeepingIsCleared) {
  const auto city = three_building_city();
  trafficx::WorkloadSpec spec;
  spec.seed = 23;
  spec.duration_s = 1.0;
  spec.rate_per_s = 3.0;
  const auto schedule = trafficx::compile(spec, city);
  core::CityMeshNetwork net{city, contention_network_config()};
  const auto result = trafficx::run_workload(net, schedule);
  EXPECT_EQ(net.flow_count(), 0u);
  EXPECT_EQ(result.flows.size(), schedule.flows.size());

  // Plain send() still works on the same network after a workload.
  const auto keys = cryptox::KeyPair::from_seed(31);
  const auto info = core::PostboxInfo::for_key(keys, 2);
  ASSERT_NE(net.register_postbox(info), nullptr);
  const std::vector<std::uint8_t> payload{1, 2, 3};
  const auto outcome = net.send(0, info, payload);
  EXPECT_TRUE(outcome.delivered);
}
