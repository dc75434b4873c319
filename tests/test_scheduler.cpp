// Reference-oracle lockdown for the allocation-free event hot path (sim/):
//
//  - the 4-ary event heap against a sorted-vector oracle, over randomized
//    schedule / cancel / batch streams (both must realize the identical
//    (time, seq) total order, cancel accounting included);
//  - batched medium delivery against a delivery log computed directly from
//    the medium's per-link hashed draws (sim::link_unit);
//  - inline handler storage;
//  - end-to-end manifest identity across worker pools of one and two
//    threads, at one and four shards (the golden-digest guarantee in test
//    form).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "geo/rng.hpp"
#include "graphx/graph.hpp"
#include "runx/city_cache.hpp"
#include "runx/sweep.hpp"
#include "medium_test_owner.hpp"
#include "sim/medium.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulator.hpp"

namespace citymesh {
namespace {

// ------------------------------------------------ scheduler oracle ----------

/// The obvious implementation of the Simulator contract the replay uses:
/// pending events in a vector sorted descending by (time, seq), so the next
/// event is back(). Batches pop and re-insert; cancelled events still
/// advance time and count.
class SortedVectorSim {
 public:
  using EventId = std::uint64_t;

  double now() const { return now_; }
  std::uint64_t reserve_seq() { return next_seq_++; }

  void schedule_at(double t, std::function<void()> fn) {
    insert({t, next_seq_++, nullptr, std::move(fn)});
  }
  void schedule_in(double delay, std::function<void()> fn) {
    schedule_at(now_ + delay, std::move(fn));
  }
  EventId schedule_cancelable_at(double t, std::function<void()> fn) {
    const EventId id = next_seq_;
    schedule_at(t, std::move(fn));
    cancelable_.insert(id);
    return id;
  }
  void schedule_batch(double t, std::uint64_t seq, sim::BatchEvent* batch) {
    insert({t, seq, batch, {}});
  }
  bool cancel(EventId id) {
    if (cancelable_.erase(id) == 0) {
      ++cancel_misses_;
      return false;
    }
    cancelled_.insert(id);
    return true;
  }

  std::size_t run() {
    std::size_t count = 0;
    while (!pending_.empty()) {
      Event ev = std::move(pending_.back());
      pending_.pop_back();
      now_ = ev.time;
      ++count;
      if (ev.batch != nullptr) {
        const sim::BatchFire next = ev.batch->fire(now_);
        if (next.more) insert({next.time, next.seq, ev.batch, {}});
        continue;
      }
      if (cancelled_.erase(ev.seq) > 0) continue;
      cancelable_.erase(ev.seq);
      ev.fn();
    }
    return count;
  }

  std::uint64_t cancel_misses() const { return cancel_misses_; }
  std::size_t cancelable_pending() const { return cancelable_.size(); }

 private:
  struct Event {
    double time;
    std::uint64_t seq;
    sim::BatchEvent* batch;
    std::function<void()> fn;
  };

  void insert(Event ev) {
    const auto pos = std::upper_bound(
        pending_.begin(), pending_.end(), ev, [](const Event& a, const Event& b) {
          return std::tie(a.time, a.seq) > std::tie(b.time, b.seq);
        });
    pending_.insert(pos, std::move(ev));
  }

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t cancel_misses_ = 0;
  std::vector<Event> pending_;
  std::unordered_set<EventId> cancelable_;
  std::unordered_set<EventId> cancelled_;
};

/// One fired event: when it ran and which scripted op it was.
struct Fired {
  double time;
  std::uint64_t label;

  bool operator==(const Fired& o) const { return time == o.time && label == o.label; }
};

/// Everything observable about one simulator's execution of a script.
struct Execution {
  std::vector<Fired> log;
  std::size_t processed = 0;
  std::uint64_t cancel_misses = 0;
  std::size_t cancelable_pending = 0;
};

/// A multi-shot event like the medium's DeliveryBatch: entries keyed by
/// reserved seqs, fired in (time, seq) order. Every other firing schedules a
/// child at exactly `now` — the case the in-place root advance must survive.
template <typename Sim>
class ProbeBatch final : public sim::BatchEvent {
 public:
  ProbeBatch(Sim& s, Execution& out, std::uint64_t label) : s_(s), out_(out), label_(label) {}

  /// Reserve one seq per entry (creation order), sort, and enqueue.
  void start(const std::vector<double>& times) {
    for (const double t : times) entries_.emplace_back(t, s_.reserve_seq());
    std::sort(entries_.begin(), entries_.end());
    s_.schedule_batch(entries_.front().first, entries_.front().second, this);
  }

  sim::BatchFire fire(double now) override {
    const std::uint64_t entry = head_++;
    out_.log.push_back({now, label_ | (3ull << 32) | (entry << 48)});
    if (entry % 2 == 0) {
      Sim& s = s_;
      Execution& out = out_;
      const std::uint64_t label = label_ | (4ull << 32) | (entry << 48);
      s_.schedule_at(now, [&s, &out, label] { out.log.push_back({s.now(), label}); });
    }
    if (head_ < entries_.size()) return {true, entries_[head_].first, entries_[head_].second};
    return {};
  }

 private:
  Sim& s_;
  Execution& out_;
  std::uint64_t label_;
  std::vector<std::pair<double, std::uint64_t>> entries_;
  std::size_t head_ = 0;
};

/// Replay one randomized schedule/cancel/batch stream derived purely from
/// `seed`, so the heap and the oracle see the byte-identical op stream.
/// Times come from a quantized grid to force frequent ties (the FIFO
/// tie-break), span twelve orders of magnitude, and include +inf timers;
/// handlers re-schedule children and start batches mid-run, and cancellers
/// fire from inside the run so some cancels chase already-fired events.
template <typename Sim>
Execution replay(std::uint64_t seed, std::size_t events) {
  Sim s;
  Execution out;
  std::vector<std::unique_ptr<ProbeBatch<Sim>>> batches;
  std::uint64_t state = seed;
  std::vector<typename Sim::EventId> tokens;
  tokens.reserve(events);

  const auto grid_time = [&state]() {
    // A 1e-2 grid over [0, 100) (~10k distinct instants, heavy tie traffic);
    // a quarter of the draws are scaled by 10^-6 .. 10^5, so the set spans
    // twelve orders of magnitude.
    const double base = static_cast<double>(geo::splitmix64(state) % 10'000) * 1e-2;
    const std::uint64_t scale = geo::splitmix64(state) % 48;
    return scale < 12 ? base * std::pow(10.0, static_cast<double>(scale) - 6.0) : base;
  };
  const auto batch_times = [&state](double t0) {
    std::vector<double> times;
    const std::size_t n = 1 + geo::splitmix64(state) % 6;
    for (std::size_t k = 0; k < n; ++k)
      times.push_back(t0 + static_cast<double>(geo::splitmix64(state) % 4) * 0.25);
    return times;
  };

  for (std::uint64_t i = 0; i < events; ++i) {
    const std::uint64_t roll = geo::splitmix64(state) % 100;
    const double t = grid_time();
    if (roll < 45) {
      const std::uint64_t label = i;
      if (roll % 7 == 0) {
        // Handler reschedules a child at now (+ quantized delay for some):
        // insertion during the run, at and ahead of the queue's head.
        const double delay = (roll % 14 == 0) ? 0.0 : 0.25;
        s.schedule_at(t, [&s, &out, label, delay] {
          out.log.push_back({s.now(), label});
          s.schedule_in(delay, [&s, &out, label] {
            out.log.push_back({s.now(), label | (1ull << 32)});
          });
        });
      } else {
        s.schedule_at(t, [&s, &out, label] { out.log.push_back({s.now(), label}); });
      }
    } else if (roll < 55) {
      // A batch: started up front, or from a handler mid-run (the way a
      // transmission starts its receptions).
      batches.push_back(std::make_unique<ProbeBatch<Sim>>(s, out, i));
      ProbeBatch<Sim>* batch = batches.back().get();
      std::vector<double> times = batch_times(t);
      if (roll % 2 == 0) {
        batch->start(times);
      } else {
        s.schedule_at(t, [batch, times] { batch->start(times); });
      }
    } else if (roll < 80) {
      const std::uint64_t label = i;
      tokens.push_back(s.schedule_cancelable_at(
          t, [&s, &out, label] { out.log.push_back({s.now(), label | (2ull << 32)}); }));
    } else if (!tokens.empty()) {
      // A canceller event: cancels a previously issued token when it runs.
      // Depending on the draw it fires before or after its target — the
      // latter must count as a miss, identically on both queues.
      const std::size_t victim = geo::splitmix64(state) % tokens.size();
      const auto id = tokens[victim];
      s.schedule_at(t, [&s, id] { s.cancel(id); });
    } else {
      s.schedule_at(t, [&s, &out, i] { out.log.push_back({s.now(), i}); });
    }
  }
  // Far-future stragglers, including +inf timers (FIFO among themselves).
  s.schedule_at(1e12, [&s, &out] { out.log.push_back({s.now(), 1ull << 40}); });
  s.schedule_at(1e300, [&s, &out] { out.log.push_back({s.now(), 2ull << 40}); });
  s.schedule_at(sim::kForever, [&s, &out] { out.log.push_back({s.now(), 3ull << 40}); });
  s.schedule_at(sim::kForever, [&s, &out] { out.log.push_back({s.now(), 4ull << 40}); });

  out.processed = s.run();
  out.cancel_misses = s.cancel_misses();
  out.cancelable_pending = s.cancelable_pending();
  return out;
}

TEST(SchedulerDifferential, QueueMatchesSortedVectorOnRandomizedStreams) {
  for (const std::uint64_t seed : {11ull, 22ull, 33ull, 44ull, 55ull}) {
    const Execution oracle = replay<SortedVectorSim>(seed, 10'000);
    const Execution heap = replay<sim::Simulator>(seed, 10'000);
    ASSERT_GT(oracle.log.size(), 10'000u) << "seed " << seed;
    ASSERT_EQ(heap.log.size(), oracle.log.size()) << "seed " << seed;
    for (std::size_t i = 0; i < oracle.log.size(); ++i) {
      ASSERT_EQ(heap.log[i], oracle.log[i]) << "seed " << seed << " divergence at event " << i;
    }
    EXPECT_EQ(heap.processed, oracle.processed) << "seed " << seed;
    EXPECT_EQ(heap.cancel_misses, oracle.cancel_misses) << "seed " << seed;
    EXPECT_GT(oracle.cancel_misses, 0u) << "seed " << seed;
    EXPECT_EQ(heap.cancelable_pending, oracle.cancelable_pending) << "seed " << seed;
  }
}

TEST(SchedulerDifferential, PopOrderMatchesSortedReferenceAcrossMagnitudes) {
  // Raw EventQueue check with pathological time distributions: denormal-ish,
  // zero, identical, huge and infinite times in one queue, with pops and
  // in-place root re-keys interleaved with the pushes.
  sim::EventQueue q;
  std::uint64_t state = 99;
  /// (time, seq, ref) — sorted, the front is the expected top.
  std::vector<std::tuple<double, std::uint64_t, std::uintptr_t>> reference;
  std::uint64_t seq = 0;
  const double magnitudes[] = {0.0, 1e-9,  1.0,  1.0, 3.5,           1e4,
                               1e9, 1e300, 5e-7, 2.5, sim::kForever, 1e-300};
  const auto expect_top = [&] {
    std::sort(reference.begin(), reference.end());
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.top().time, std::get<0>(reference.front()));
    EXPECT_EQ(q.top().seq, std::get<1>(reference.front()));
    EXPECT_EQ(q.top().ref, std::get<2>(reference.front()));
  };
  for (int round = 0; round < 600; ++round) {
    const double t = magnitudes[geo::splitmix64(state) % 12];
    q.push({t, seq, static_cast<std::uintptr_t>(round)});
    reference.emplace_back(t, seq, static_cast<std::uintptr_t>(round));
    ++seq;
    if (round % 5 == 4) {
      expect_top();
      q.pop();
      reference.erase(reference.begin());
    } else if (round % 7 == 6) {
      // Re-key the root to a later time with a fresh seq (a batch advancing
      // to its next entry); the ref travels with the node.
      expect_top();
      auto& [root_t, root_seq, root_ref] = reference.front();
      root_t = std::max(root_t, magnitudes[geo::splitmix64(state) % 12]);
      root_seq = seq++;
      q.replace_top(root_t, root_seq);
    }
    ASSERT_EQ(q.size(), reference.size());
  }
  std::sort(reference.begin(), reference.end());
  for (const auto& [t, expect_seq, ref] : reference) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.top().time, t);
    EXPECT_EQ(q.top().seq, expect_seq);
    EXPECT_EQ(q.top().ref, ref);
    q.pop();
  }
  EXPECT_TRUE(q.empty());
}

// ---------------------------------------------- batched medium delivery -----

struct ProbePacket {
  std::uint32_t id = 0;
};

struct Delivery {
  double time;
  sim::NodeId to;
  sim::NodeId from;
  std::uint32_t id;

  bool operator==(const Delivery& o) const {
    return time == o.time && to == o.to && from == o.from && id == o.id;
  }
};

graphx::Graph probe_topology() {
  graphx::GraphBuilder b{8};
  // A ring with chords: every node has 3-4 neighbors, so one transmission
  // fans to several receptions with distinct propagation delays.
  for (graphx::VertexId v = 0; v < 8; ++v) b.add_edge(v, (v + 1) % 8, 40.0 + v);
  b.add_edge(0, 4, 120.0);
  b.add_edge(1, 5, 90.0);
  b.add_edge(2, 6, 75.0);
  return b.build();
}

sim::MediumConfig probe_medium_config() {
  sim::MediumConfig cfg;
  cfg.loss_probability = 0.25;
  cfg.jitter_s = 2e-3;
  cfg.seed = 1234;
  return cfg;
}

constexpr std::uint32_t kProbeBroadcasts = 40;
constexpr sim::NodeId kProbeDownNode = 6;

/// Broadcast i leaves node i % 8 at time (i / 8) ms. Clustered start times
/// keep many broadcasts in flight at once, so batch advances interleave with
/// other transmissions' events.
double probe_start(std::uint32_t i) { return static_cast<double>(i / 8) * 1e-3; }

/// Fire a burst of overlapping broadcasts (with loss + jitter draws and a
/// down node) through the medium and record every delivery the handler sees.
std::vector<Delivery> run_medium() {
  sim::Simulator s;
  const graphx::Graph topo = probe_topology();
  citymesh::testkit::TestMedium<ProbePacket> medium{s, topo, probe_medium_config()};
  medium.set_node_filter([](sim::NodeId node) { return node != kProbeDownNode; });

  std::vector<Delivery> log;
  medium.set_delivery_handler(
      [&](sim::NodeId to, sim::NodeId from, const std::shared_ptr<const ProbePacket>& p) {
        log.push_back({s.now(), to, from, p->id});
      });

  for (std::uint32_t i = 0; i < kProbeBroadcasts; ++i) {
    const auto packet = std::make_shared<const ProbePacket>(ProbePacket{i});
    const sim::NodeId from = i % 8;
    s.schedule_at(probe_start(i), [&medium, from, packet] { medium.transmit(from, packet); });
  }
  s.run();

  // Counter parity rides along with the delivery log.
  EXPECT_GT(medium.deliveries(), 0u);
  EXPECT_GT(medium.losses(), 0u);
  EXPECT_GT(medium.blocked_receptions(), 0u);
  return log;
}

/// The same burst computed without a medium or a simulator: one event per
/// reception. The broadcasts run in start order; each one from an up node
/// is its sender's n-th transmission, and per neighbor in CSR order draws
/// its loss and (when it survives) its jitter from the link hash keyed on
/// (seed, from, to, n), then claims the next sequence number after the 40
/// transmit events'. Deliveries then happen in (time, seq) order, except at
/// the down node.
std::vector<Delivery> expected_deliveries() {
  const graphx::Graph topo = probe_topology();
  const sim::MediumConfig cfg = probe_medium_config();
  std::vector<std::uint32_t> tx_index(topo.vertex_count(), 0);
  struct Reception {
    double time;
    std::uint64_t seq;
    Delivery delivery;
  };
  std::vector<Reception> receptions;
  std::uint64_t seq = kProbeBroadcasts;
  for (std::uint32_t i = 0; i < kProbeBroadcasts; ++i) {
    const sim::NodeId from = i % 8;
    if (from == kProbeDownNode) continue;  // a down node never transmits
    const std::uint32_t n = tx_index[from]++;
    const auto links = topo.neighbors(from);
    for (std::size_t k = 0; k < links.ids().size(); ++k) {
      const sim::NodeId to = links.ids()[k];
      if (sim::link_unit(cfg.seed, from, to, n, 0) < cfg.loss_probability) continue;
      const double jitter =
          sim::link_unit(cfg.seed ^ sim::kJitterStream, from, to, n, 1) * cfg.jitter_s;
      const double delay = cfg.tx_delay_s + cfg.prop_delay_s_per_m * links.weights()[k] + jitter;
      const double at = probe_start(i) + delay;
      receptions.push_back({at, seq++, {at, to, from, i}});
    }
  }
  std::sort(receptions.begin(), receptions.end(), [](const Reception& a, const Reception& b) {
    return std::tie(a.time, a.seq) < std::tie(b.time, b.seq);
  });
  std::vector<Delivery> log;
  for (const Reception& r : receptions) {
    if (r.delivery.to != kProbeDownNode) log.push_back(r.delivery);
  }
  return log;
}

TEST(BatchedDelivery, MatchesPerReceptionSchedulingExactly) {
  const std::vector<Delivery> expected = expected_deliveries();
  const std::vector<Delivery> log = run_medium();
  ASSERT_EQ(log.size(), expected.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    ASSERT_EQ(log[i], expected[i]) << "delivery " << i;
  }
}

// ------------------------------------------------------- inline handlers ---

TEST(InlineFn, SmallCapturesStayInline) {
  const std::uint64_t before = sim::InlineFn::heap_fallbacks();
  int hits = 0;
  std::array<char, 32> payload{};
  sim::InlineFn fn{[&hits, payload] { hits += 1 + payload[0]; }};
  fn();
  fn();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(sim::InlineFn::heap_fallbacks(), before);
}

TEST(InlineFn, OversizeCapturesFallBackToHeapCounted) {
  const std::uint64_t before = sim::InlineFn::heap_fallbacks();
  std::array<char, 128> big{};
  big[0] = 41;
  int result = 0;
  sim::InlineFn fn{[&result, big] { result = big[0] + 1; }};
  sim::InlineFn moved{std::move(fn)};
  moved();
  EXPECT_EQ(result, 42);
  EXPECT_EQ(sim::InlineFn::heap_fallbacks(), before + 1);
}

// ------------------------------------------------ end-to-end identity -------

/// Manifest JSON of a tiny but full sweep (eval point over one generated
/// city, default lossy, jittered medium) run on a worker pool of `jobs`
/// threads at `shards` shards.
std::string sweep_json(runx::CityCache& cache, std::size_t jobs, std::size_t shards) {
  std::string error;
  const auto spec =
      runx::parse_sweep("name sched-identity\ncities cambridge\nseeds 1 2\n"
                        "pairs 12\ndeliver 3\n",
                        &error);
  EXPECT_TRUE(spec) << error;
  runx::SweepRunConfig config;
  config.jobs = jobs;
  config.network.shards = shards;
  const runx::SweepReport report = runx::run_sweep(*spec, cache, config);
  EXPECT_EQ(report.errors, 0u);
  return runx::sweep_manifest(*spec, report).to_json();
}

TEST(EndToEndIdentity, ManifestsIdenticalAcrossPools) {
  runx::CityCache cache;
  EXPECT_EQ(sweep_json(cache, /*jobs=*/1, 1), sweep_json(cache, /*jobs=*/2, 1));
}

TEST(EndToEndIdentity, ShardedManifestsIdenticalAcrossPools) {
  runx::CityCache cache;
  const std::string sharded = sweep_json(cache, /*jobs=*/1, 4);
  EXPECT_EQ(sharded, sweep_json(cache, /*jobs=*/2, 4));
  // Per-link hashed draws: loss and jitter leave K = 4 equal to K = 1.
  EXPECT_EQ(sharded, sweep_json(cache, /*jobs=*/1, 1));
}

}  // namespace
}  // namespace citymesh
