// Tests for the discrete-event engine and the broadcast medium.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "graphx/graph.hpp"
#include "sim/medium.hpp"
#include "sim/simulator.hpp"

namespace sim = citymesh::sim;
namespace graphx = citymesh::graphx;

// ------------------------------------------------------------ Simulator ---

TEST(Simulator, RunsEventsInTimeOrder) {
  sim::Simulator s;
  std::vector<int> order;
  s.schedule_at(3.0, [&] { order.push_back(3); });
  s.schedule_at(1.0, [&] { order.push_back(1); });
  s.schedule_at(2.0, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
  EXPECT_EQ(s.events_processed(), 3u);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  sim::Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, NestedScheduling) {
  sim::Simulator s;
  std::vector<std::string> log;
  s.schedule_at(1.0, [&] {
    log.push_back("a");
    s.schedule_in(0.5, [&] { log.push_back("b"); });
  });
  s.schedule_at(2.0, [&] { log.push_back("c"); });
  s.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Simulator, SchedulingInThePastThrows) {
  sim::Simulator s;
  s.schedule_at(5.0, [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(4.0, [] {}), std::invalid_argument);
  EXPECT_THROW(s.schedule_in(-1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, UntilBoundsExecution) {
  sim::Simulator s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    s.schedule_at(static_cast<double>(i), [&] { ++count; });
  }
  const auto ran = s.run(5.5);
  EXPECT_EQ(ran, 5u);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(s.pending(), 5u);
  s.run();
  EXPECT_EQ(count, 10);
}

TEST(Simulator, MaxEventsBoundsExecution) {
  sim::Simulator s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    s.schedule_at(static_cast<double>(i), [&] { ++count; });
  }
  s.run(sim::kForever, 3);
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(s.empty());
}

TEST(Simulator, SelfPerpetuatingChainStopsAtUntil) {
  sim::Simulator s;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    s.schedule_in(1.0, tick);
  };
  s.schedule_at(0.0, tick);
  s.run(100.5);
  EXPECT_EQ(ticks, 101);  // t = 0..100
}

TEST(Simulator, EmptyRunAdvancesToUntil) {
  sim::Simulator s;
  s.run(42.0);
  EXPECT_DOUBLE_EQ(s.now(), 42.0);
}

// Cancel on a fired, already-cancelled, or foreign event id is a counted
// no-op — never UB. Per-shard timer ownership (src/shardx) relies on this:
// an overhear-cancel may race a backoff that already fired on its own tile.

TEST(Simulator, CancelAfterFireIsCountedMiss) {
  sim::Simulator s;
  int fired = 0;
  const auto id = s.schedule_cancelable_at(1.0, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(s.cancel(id));
  EXPECT_EQ(s.cancel_misses(), 1u);
  EXPECT_EQ(s.cancelable_pending(), 0u);
}

TEST(Simulator, DoubleCancelSecondIsMiss) {
  sim::Simulator s;
  int fired = 0;
  const auto id = s.schedule_cancelable_at(1.0, [&] { ++fired; });
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));
  EXPECT_EQ(s.cancel_misses(), 1u);
  s.run();
  EXPECT_EQ(fired, 0);
  // The cancelled event still occupied its heap slot and advanced time.
  EXPECT_DOUBLE_EQ(s.now(), 1.0);
}

TEST(Simulator, ForeignEventIdIsCountedMiss) {
  sim::Simulator a;
  sim::Simulator b;
  int fired = 0;
  const auto id = a.schedule_cancelable_at(1.0, [&] { ++fired; });
  // `id` belongs to simulator a; b has never seen it.
  EXPECT_FALSE(b.cancel(id));
  EXPECT_EQ(b.cancel_misses(), 1u);
  EXPECT_EQ(a.cancel_misses(), 0u);
  EXPECT_FALSE(b.cancel(sim::Simulator::kInvalidEvent));
  EXPECT_EQ(b.cancel_misses(), 2u);
  a.run();
  EXPECT_EQ(fired, 1);  // the foreign-cancel attempt never touched a's event
}

// --------------------------------------------------------------- Medium ---

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

TEST(Medium, DeliversToAllNeighbors) {
  sim::Simulator s;
  const auto topo = line_topology(3);
  sim::BroadcastMedium<TestPacket> medium{s, topo, {}};
  std::vector<sim::NodeId> receivers;
  medium.set_delivery_handler(
      [&](sim::NodeId to, sim::NodeId from, const std::shared_ptr<const TestPacket>& p) {
        EXPECT_EQ(from, 1u);
        EXPECT_EQ(p->value, 42);
        receivers.push_back(to);
      });
  medium.transmit(1, std::make_shared<const TestPacket>(TestPacket{42}));
  s.run();
  std::sort(receivers.begin(), receivers.end());
  EXPECT_EQ(receivers, (std::vector<sim::NodeId>{0, 2}));
  EXPECT_EQ(medium.transmissions(), 1u);
  EXPECT_EQ(medium.deliveries(), 2u);
}

TEST(Medium, DeliveryIsDelayed) {
  sim::Simulator s;
  const auto topo = line_topology(2);
  sim::MediumConfig cfg;
  cfg.tx_delay_s = 0.25;
  cfg.jitter_s = 0.0;
  sim::BroadcastMedium<TestPacket> medium{s, topo, cfg};
  double delivered_at = -1.0;
  medium.set_delivery_handler(
      [&](sim::NodeId, sim::NodeId, const std::shared_ptr<const TestPacket>&) {
        delivered_at = s.now();
      });
  medium.transmit(0, std::make_shared<const TestPacket>());
  s.run();
  EXPECT_NEAR(delivered_at, 0.25, 1e-6);  // prop delay over 10 m is negligible
}

TEST(Medium, LossDropsDeliveries) {
  sim::Simulator s;
  // Star topology: center 0 with 200 leaves.
  graphx::GraphBuilder b{201};
  for (graphx::VertexId v = 1; v <= 200; ++v) b.add_edge(0, v, 10.0);
  const auto topo = b.build();
  sim::MediumConfig cfg;
  cfg.loss_probability = 0.5;
  sim::BroadcastMedium<TestPacket> medium{s, topo, cfg};
  std::size_t received = 0;
  medium.set_delivery_handler(
      [&](sim::NodeId, sim::NodeId, const std::shared_ptr<const TestPacket>&) {
        ++received;
      });
  medium.transmit(0, std::make_shared<const TestPacket>());
  s.run();
  EXPECT_EQ(received + medium.losses(), 200u);
  EXPECT_NEAR(static_cast<double>(received), 100.0, 30.0);
}

TEST(Medium, LossZeroAndOne) {
  sim::Simulator s;
  const auto topo = line_topology(2);
  sim::MediumConfig lossy;
  lossy.loss_probability = 1.0;
  sim::BroadcastMedium<TestPacket> medium{s, topo, lossy};
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

TEST(Medium, CountersResettable) {
  sim::Simulator s;
  const auto topo = line_topology(2);
  sim::BroadcastMedium<TestPacket> medium{s, topo, {}};
  medium.transmit(0, std::make_shared<const TestPacket>());
  s.run();
  EXPECT_EQ(medium.transmissions(), 1u);
  medium.reset_counters();
  EXPECT_EQ(medium.transmissions(), 0u);
  EXPECT_EQ(medium.deliveries(), 0u);
}

TEST(Medium, FloodOverLineReachesEnd) {
  // A relay protocol on the medium: every first-time receiver retransmits.
  sim::Simulator s;
  const std::size_t n = 50;
  const auto topo = line_topology(n);
  sim::BroadcastMedium<TestPacket> medium{s, topo, {}};
  std::vector<bool> seen(n, false);
  medium.set_delivery_handler(
      [&](sim::NodeId to, sim::NodeId, const std::shared_ptr<const TestPacket>& p) {
        if (seen[to]) return;
        seen[to] = true;
        medium.transmit(to, p);
      });
  seen[0] = true;
  medium.transmit(0, std::make_shared<const TestPacket>());
  s.run();
  EXPECT_TRUE(seen[n - 1]);
  EXPECT_EQ(medium.transmissions(), n);  // everyone transmits exactly once
}

namespace {

/// One flood over a 6-node clique with jitter: every first-time receiver
/// retransmits. With `settle` on, the medium's settler drops receptions
/// at nodes that have already seen the packet, as a network does.
struct CliqueFlood {
  std::vector<std::tuple<double, sim::NodeId, sim::NodeId>> first_receptions;
  std::size_t handled = 0;
  std::size_t deliveries = 0;
  std::size_t settled = 0;
  std::size_t events = 0;
  std::uint64_t latency_total = 0;
};

CliqueFlood clique_flood(bool settle) {
  const std::size_t n = 6;
  graphx::GraphBuilder b{n};
  for (graphx::VertexId u = 0; u < n; ++u) {
    for (graphx::VertexId v = u + 1; v < n; ++v) b.add_edge(u, v, 10.0 * (u + v + 1));
  }
  const auto topo = b.build();
  sim::Simulator s;
  citymesh::obsx::Histogram latency{citymesh::obsx::exponential_buckets(1e-4, 4.0, 10)};
  s.set_latency_histogram(&latency);
  sim::MediumConfig cfg;
  cfg.jitter_s = 5e-3;
  sim::BroadcastMedium<TestPacket> medium{s, topo, cfg};
  std::vector<bool> seen(n, false);
  CliqueFlood out;
  medium.set_delivery_handler(
      [&](sim::NodeId to, sim::NodeId from, const std::shared_ptr<const TestPacket>& p) {
        ++out.handled;
        if (seen[to]) return;
        seen[to] = true;
        out.first_receptions.emplace_back(s.now(), to, from);
        medium.transmit(to, p);
      });
  if (settle) {
    medium.set_duplicate_settler(
        [&](sim::NodeId to, const TestPacket&, sim::SimTime, std::uint64_t) {
          return static_cast<bool>(seen[to]);
        });
  }
  seen[0] = true;
  medium.transmit(0, std::make_shared<const TestPacket>());
  s.run();
  out.deliveries = medium.deliveries();
  out.settled = medium.settled();
  out.events = s.events_processed();
  out.latency_total = latency.total();
  return out;
}

}  // namespace

TEST(Medium, SettledDuplicatesCountButAreNeverQueued) {
  const CliqueFlood queued = clique_flood(false);
  const CliqueFlood settled = clique_flood(true);
  ASSERT_EQ(queued.settled, 0u);
  ASSERT_GT(settled.settled, 0u);
  // A settled reception is a delivery and a processed event that never
  // reached the handler; its latency is recorded like a queued one's.
  EXPECT_EQ(settled.deliveries, queued.deliveries);
  EXPECT_EQ(settled.handled + settled.settled, queued.handled);
  EXPECT_EQ(settled.events, queued.events);
  EXPECT_EQ(settled.latency_total, queued.latency_total);
  // Surviving receptions keep their (time, seq) keys: the flood unfolds
  // identically, first receptions, times and senders included.
  EXPECT_EQ(settled.first_receptions, queued.first_receptions);
  EXPECT_EQ(settled.first_receptions.size(), 5u);
}
