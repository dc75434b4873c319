// Shared broadcast medium over a fixed radio topology.
//
// A transmission by node `from` is delivered to every neighbor in the
// topology (an id-only graphx::Topology) after transmission + propagation
// delay, each independently subject to a loss probability. The medium is
// templated on the packet type so the CityMesh agent and every baseline
// protocol reuse it.
//
// The owner: everything the medium asks of the layer above is one type,
// BroadcastMedium<Packet, Owner>, whose members it calls directly, so the
// per-reception path makes no indirect call. core::CityMeshNetwork's tile
// shard is the owner in the library; the tests use a small hook-holding
// owner of their own. An Owner provides, all cheap and inline where they
// sit on the per-reception path:
//
//   void deliver(NodeId to, NodeId from, const std::shared_ptr<const Packet>&)
//       one queued reception coming due at an up receiver;
//   bool node_up(NodeId)  live node filter: a down node neither transmits
//       nor receives (reception is checked at delivery time, so a node that
//       fails while a packet is in flight still misses it; src/faultx);
//   double link_length(NodeId from, EdgeOffset slot, NodeId to)  the
//       link's length in meters, which sets its propagation delay; `slot`
//       is the directed entry (topology.edge_offset(from) + i for from's
//       i-th neighbour `to`). Asked once per tile-local link, in
//       neighbour order; it must answer the same for (to, from). The
//       network answers from the AP positions (mesh::ApNetwork::
//       link_length); the test owner from a weighted graph's slot weight;
//   double link_loss(NodeId from, NodeId to)  extra per-link loss (0 =
//       pristine), combined independently with the config's base loss
//       (regional interference, degraded-link scenarios). The network
//       answers from a per-AP degraded flag and returns 0 on one branch
//       while no degraded region is active;
//   std::uint32_t packet_id(const Packet&)  stable trace id (asked only
//       while tracing);
//   std::size_t packet_bits(const Packet&)  wire size, charged as airtime
//       by the contention model;
//   void on_air(NodeId from, const Packet&)  once per packet actually put
//       on the air (after any deferral; dropped packets never fire it);
//   bool settle(NodeId to, const Packet&, SimTime at)  the duplicate
//       settler, below;
//   void remote_fanout(NodeId from, const std::shared_ptr<const Packet>&,
//       SimTime air, std::uint32_t tx_index)  once per on-air packet, after
//       the local neighbor loop, so a tiled owner can deliver over the
//       topology edges that leave this medium's tile through link_fate()
//       (src/shardx); a single-tile owner returns at once.
//
// Airtime contention (src/trafficx): with MediumConfig::bitrate_bps > 0 the
// fixed tx_delay_s is replaced by a per-packet serialization delay derived
// from the packet's wire bits (packet_bits) plus PHY/MAC framing, and
// each node becomes a half-duplex transmitter with a finite FIFO queue: a
// transmit issued while the node's channel is busy defers behind the
// in-flight packet, and once the queue is full further transmits drop
// (medium.queue_drops). This is what makes concurrent rebroadcast storms
// from overlapping conduits collide in time instead of sailing through for
// free. bitrate_bps == 0 keeps the paper's §4 regime: airtime is free and
// transmissions never defer.
//
// Determinism: every loss and jitter draw is link_unit() — a hash of (seed,
// from, to, the sender's on-air transmission index) — so a link's fate is a
// pure function of what was transmitted, never of how events interleave.
// Loss and jitter use independent salts: toggling jitter_s never changes
// which deliveries are lost, and a zero jitter_s or loss_probability draws
// nothing. link_fate() is the one place that math lives; the tiled engine
// calls it for the cut edges a tile's medium does not walk (src/shardx).
// A fan-out reserves one sequence number per link in one step (link i takes
// base + i); skipped and lost links leave gaps, which keep every pair of
// events in the same relative order. Its queue latencies go into the
// simulator's histogram as one tally of bucket counts and sum quanta
// (obsx::HistogramTally), exactly equal to recording them one by one.
//
// Observability: the medium's tally is the authoritative transmission /
// delivery count (src/obsx) — bind_metrics() repoints the counters into a
// shared MetricsRegistry so evaluation and benches read the same numbers the
// medium wrote, and set_trace() attaches a TraceBuffer that receives one
// kTx/kRx/kDropLoss/kDropFaulted/kDeferred/kDropQueue event per
// physical-layer action.
//
// Settled duplicates: most receptions of a flood reach a node that already
// holds the message and only bump two counters. The owner's settle() is
// asked once per tile-local reception that survived link_fate, after its
// latency is recorded. When it answers true the reception is settled: the
// medium counts it under deliveries and as a processed simulator event
// (Simulator::count_settled), the owner counts whatever its handler would
// have, and nothing is queued. Contract: settle() may answer true only when
// delivering the packet to `to` at `at` would provably do nothing else: no
// trace event, no state change, no effect on any other draw or event. The
// surviving receptions keep their (time, seq) keys, so the rest of the run
// is unchanged. Cross-tile receptions (remote_fanout) are never settled.
//
// The network keeps that contract with two pieces (core/network.cpp):
//   - a horizon: a reception settles only if it arrives before the window's
//     horizon, min(until, the next control event that may change AP status,
//     tracing or degraded regions). Control events declare that class when
//     they are scheduled; trafficx injections declare they change none of
//     them, so they do not end the horizon, and the network throws if one
//     tries;
//   - a first-arrival table, one 16-byte entry {message id, time} per AP,
//     written only by the AP's own tile. An entry is a hint, trusted only
//     while its time is after now: a queued first reception of that message
//     at that time, or a "seen" marker (time = forever) that the first
//     accepted delivery stores. A reception at or after a trusted entry's
//     time is a duplicate (a fresh seq is always larger, so time alone
//     orders the two), an earlier one replaces the entry, and a missing or
//     overwritten entry only queues the reception, which is always safe.
//
// Packet immutability contract: the medium fans one
// shared_ptr<const Packet> out to every receiver, queues it behind busy
// channels, and captures it in backoff/retransmit closures — the same object
// is alive at many simulated times at once, so a Packet must be strictly
// read-only after transmit(). core::MeshPacket leans on this: its
// shared_ptr<const CompiledMessage> (decoded header + precomputed membership
// sets, core/compiled_message) rides along every hop and is safely shared
// across all of them, including across runx worker threads.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "geo/rng.hpp"
#include "graphx/graph.hpp"
#include "obsx/metrics.hpp"
#include "obsx/trace.hpp"
#include "sim/simulator.hpp"

namespace citymesh::sim {

using NodeId = graphx::VertexId;

/// Decorrelates the jitter hash from the loss hash (sqrt(2) bits).
inline constexpr std::uint64_t kJitterStream = 0x6a09e667f3bcc909ULL;

/// Content-keyed unit draw in [0, 1), the medium's only source of link
/// randomness: hashing (seed, from, to, the sender's on-air transmission
/// index, salt) makes loss and jitter outcomes a pure function of *what* was
/// transmitted, independent of which tile shard processes the link or how
/// events interleave globally — the property that keeps determinism digests
/// identical across shard counts (src/shardx).
inline double link_unit(std::uint64_t seed, NodeId from, NodeId to,
                        std::uint32_t tx_index, std::uint64_t salt) {
  std::uint64_t state = seed;
  state ^= 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(from) + 1);
  (void)geo::splitmix64(state);
  state ^= 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(to) + 1);
  (void)geo::splitmix64(state);
  state ^= (static_cast<std::uint64_t>(tx_index) << 8) ^ salt;
  const std::uint64_t bits = geo::splitmix64(state);
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

struct MediumConfig {
  /// Fixed per-packet transmission (serialization) delay, seconds. Only
  /// used when bitrate_bps == 0 (no contention model).
  SimTime tx_delay_s = 1e-3;
  /// Propagation delay per meter of link length, seconds. The length of a
  /// link is the owner's link_length() (the distance of the two APs'
  /// positions in the network), so a link's delay is this times it.
  SimTime prop_delay_s_per_m = 3.34e-9;
  /// Random extra delay in [0, jitter_s) decorrelates simultaneous
  /// rebroadcasts (a stand-in for CSMA backoff).
  SimTime jitter_s = 2e-3;
  /// Independent per-link loss probability.
  double loss_probability = 0.0;
  std::uint64_t seed = 7;

  // --- Airtime contention (src/trafficx) ---------------------------------
  /// Channel bitrate. > 0 enables the contention model: serialization delay
  /// becomes (frame_overhead_bits + packet bits) / bitrate_bps, nodes are
  /// half-duplex, and concurrent transmits defer or drop. 0 disables it.
  double bitrate_bps = 0.0;
  /// PHY/MAC framing bits charged per packet on top of its own header and
  /// payload bits (preamble, MAC header, FCS, IFS equivalent).
  std::size_t frame_overhead_bits = 400;
  /// Transmit-queue slots behind the in-flight packet; a transmit arriving
  /// with the queue full is dropped and counted (medium.queue_drops).
  std::size_t tx_queue_capacity = 8;
};

template <typename Packet, typename Owner>
class BroadcastMedium {
 public:
  /// `owner` supplies the hooks (see the header comment) and must outlive
  /// the medium.
  BroadcastMedium(Simulator& simulator, const graphx::Topology& topology, MediumConfig config,
                  Owner& owner)
      : sim_(simulator),
        topology_(topology),
        config_(config),
        owner_(owner),
        busy_until_(config.bitrate_bps > 0.0 ? topology.vertex_count() : 0, 0.0),
        airtime_(config.bitrate_bps > 0.0 ? topology.vertex_count() : 0, 0.0),
        node_ring_(config.bitrate_bps > 0.0 ? topology.vertex_count() : 0, kNoRing),
        tx_counts_(topology.vertex_count(), 0) {
    transmissions_ = &own_.counter("transmissions");
    deliveries_ = &own_.counter("deliveries");
    losses_ = &own_.counter("losses");
    blocked_transmissions_ = &own_.counter("blocked_transmissions");
    blocked_receptions_ = &own_.counter("blocked_receptions");
    deferrals_ = &own_.counter("deferrals");
    queue_drops_ = &own_.counter("queue_drops");
    airtime_us_ = &own_.counter("airtime_us");
  }

  /// Restrict local fan-out to neighbors whose tile equals `tile` in the
  /// external per-node table `node_tile` (one entry per topology vertex;
  /// must outlive the medium). This lets K tile shards share the one
  /// compiled-city CSR instead of each copying its subgraph. Skipping a
  /// cross-tile neighbor changes no other link's fate: draws are keyed per
  /// link (link_unit), not consumed from a shared stream. Pass nullptr to
  /// clear.
  void set_tile_filter(const std::uint32_t* node_tile, std::uint32_t tile) {
    tile_filter_ = node_tile;
    tile_ = tile;
  }

  const MediumConfig& config() const { return config_; }

  /// Repoint the medium's counters into `registry` under `<prefix>.*` so
  /// consumers read the medium's own tally instead of keeping a parallel
  /// one. The registry must outlive the medium. Counts accumulated on the
  /// internal counters before binding are not carried over.
  void bind_metrics(obsx::MetricsRegistry& registry, std::string_view prefix = "medium") {
    const std::string p{prefix};
    transmissions_ = &registry.counter(p + ".transmissions");
    deliveries_ = &registry.counter(p + ".deliveries");
    losses_ = &registry.counter(p + ".losses");
    blocked_transmissions_ = &registry.counter(p + ".blocked_transmissions");
    blocked_receptions_ = &registry.counter(p + ".blocked_receptions");
    deferrals_ = &registry.counter(p + ".deferrals");
    queue_drops_ = &registry.counter(p + ".queue_drops");
    airtime_us_ = &registry.counter(p + ".airtime_us");
  }

  /// Attach a trace buffer; each event records the owner's packet_id().
  /// nullptr detaches. The buffer must outlive the medium.
  void set_trace(obsx::TraceBuffer* trace) { trace_ = trace; }

  bool node_up(NodeId node) const { return owner_.node_up(node); }

  bool contention_enabled() const { return config_.bitrate_bps > 0.0; }

  /// Broadcast `packet` from `from` to all topology neighbors. With the
  /// contention model on, a busy transmitter defers the packet into its
  /// FIFO queue (or drops it when the queue is full).
  void transmit(NodeId from, std::shared_ptr<const Packet> packet) {
    if (!node_up(from)) {
      blocked_transmissions_->inc();
      trace(obsx::TraceKind::kDropFaulted, from, trace_id(*packet));
      return;
    }
    if (contention_enabled()) {
      if (busy_until_[from] > sim_.now() || queue_size(from) > 0) {
        if (queue_size(from) >= config_.tx_queue_capacity) {
          queue_drops_->inc();
          trace(obsx::TraceKind::kDropQueue, from, trace_id(*packet));
        } else {
          deferrals_->inc();
          trace(obsx::TraceKind::kDeferred, from, trace_id(*packet));
          queue_push(from, std::move(packet));
        }
        return;
      }
    }
    begin_transmission(from, std::move(packet));
  }

  /// The fate of one link for one on-air transmission (`tx_index` is the
  /// sender's, as passed to the remote fan-out hook): the arrival delay
  /// after the transmission started (serialization `air` + propagation over
  /// `length_m` + jitter), or nullopt when the reception is lost — counted
  /// under losses and traced as kDropLoss at the receiver. Used for every
  /// link, tile-local or cut, so both sides of a cut draw identically.
  std::optional<SimTime> link_fate(NodeId from, NodeId to, double length_m, SimTime air,
                                   std::uint32_t tx_index, std::uint32_t pid) {
    double loss = config_.loss_probability;
    const double extra = owner_.link_loss(from, to);
    if (extra > 0.0) loss = 1.0 - (1.0 - loss) * (1.0 - extra);
    if (loss > 0.0 && link_unit(config_.seed, from, to, tx_index, 0) < loss) {
      losses_->inc();
      trace(obsx::TraceKind::kDropLoss, to, pid, static_cast<std::uint32_t>(from));
      return std::nullopt;
    }
    SimTime jitter = 0.0;
    if (config_.jitter_s > 0.0) {
      jitter = link_unit(config_.seed ^ kJitterStream, from, to, tx_index, 1) * config_.jitter_s;
    }
    return air + config_.prop_delay_s_per_m * length_m + jitter;
  }

  /// One reception coming due now. Receiver status is sampled at delivery
  /// time: a node that went down while the packet was in flight misses it.
  /// Cross-tile handoffs arrive here too (src/shardx).
  void deliver(NodeId to, NodeId from, const std::shared_ptr<const Packet>& packet) {
    deliver_one(to, from, packet, trace_id(*packet));
  }

  /// Total broadcasts initiated (the paper's "number of packet broadcasts").
  std::size_t transmissions() const { return transmissions_->value(); }
  /// Per-link deliveries (each broadcast fans out to its neighbors).
  std::size_t deliveries() const { return deliveries_->value(); }
  std::size_t losses() const { return losses_->value(); }
  /// Broadcasts swallowed because the transmitter was down.
  std::size_t blocked_transmissions() const { return blocked_transmissions_->value(); }
  /// In-flight deliveries dropped because the receiver was down.
  std::size_t blocked_receptions() const { return blocked_receptions_->value(); }
  /// Deliveries settled at fan-out (the owner's settle()): counted in
  /// deliveries(), never queued. Kept outside the metrics registry, so
  /// manifests read the same whether or not a reception was settled.
  std::size_t settled() const { return settled_; }
  /// Transmits queued behind a busy channel (contention model).
  std::size_t deferrals() const { return deferrals_->value(); }
  /// Transmits dropped because the node's queue was full (contention model).
  std::size_t queue_drops() const { return queue_drops_->value(); }

  /// Cumulative on-air seconds of one node (contention model; 0 otherwise).
  double airtime_s(NodeId node) const {
    return node < airtime_.size() ? airtime_[node] : 0.0;
  }
  /// Cumulative on-air seconds across every node.
  double total_airtime_s() const {
    double total = 0.0;
    for (const double a : airtime_) total += a;
    return total;
  }
  /// Packets currently waiting in one node's transmit queue.
  std::size_t queued(NodeId node) const {
    return node < node_ring_.size() ? queue_size(node) : 0;
  }

  void reset_counters() {
    transmissions_->reset();
    deliveries_->reset();
    losses_->reset();
    blocked_transmissions_->reset();
    blocked_receptions_->reset();
    deferrals_->reset();
    queue_drops_->reset();
    airtime_us_->reset();
    settled_ = 0;
    for (double& a : airtime_) a = 0.0;
    for (std::uint32_t& c : tx_counts_) c = 0;
  }

 private:
  /// One broadcast's surviving receptions, packed into a single queue
  /// occupant. fire() delivers the head entry and hands the scheduler the
  /// next (time, seq) key; after the last entry the batch returns itself to
  /// the medium's freelist (dropping its packet reference).
  struct DeliveryBatch final : BatchEvent {
    struct Entry {
      SimTime time;
      std::uint64_t seq;
      NodeId to;
    };

    BroadcastMedium* medium = nullptr;
    NodeId from = 0;
    std::uint32_t pid = 0;
    std::shared_ptr<const Packet> packet;
    std::vector<Entry> entries;
    std::size_t head = 0;

    BatchFire fire(SimTime) override {
      const Entry entry = entries[head++];
      medium->deliver_one(entry.to, from, packet, pid);
      if (head < entries.size()) {
        const Entry& next = entries[head];
        return {true, next.time, next.seq};
      }
      medium->release_batch(this);  // self-release: last action on this object
      return {false, 0.0, 0};
    }
  };

  DeliveryBatch* acquire_batch() {
    if (free_batches_.empty()) {
      // all_batches_ keeps ownership even while a batch is in flight (its
      // only other reference is a raw pointer inside the event queue), so
      // teardown with pending deliveries cannot leak.
      auto& slot = all_batches_.emplace_back(std::make_unique<DeliveryBatch>());
      slot->medium = this;
      free_batches_.push_back(slot.get());
    }
    DeliveryBatch* batch = free_batches_.back();
    free_batches_.pop_back();
    return batch;
  }

  void release_batch(DeliveryBatch* batch) {
    batch->packet.reset();
    batch->entries.clear();  // keeps capacity for the next broadcast
    batch->head = 0;
    free_batches_.push_back(batch);
  }

  // --- Transmit-queue ring slab (contention model only) -------------------
  // Per-node transmitter state is struct-of-arrays: busy_until_ / airtime_ /
  // node_ring_ are flat per-node slabs, and the FIFO queues themselves live
  // in a shared pool of fixed-capacity rings. A node holds a ring only while
  // packets are actually waiting (node_ring_ == kNoRing otherwise), so idle
  // nodes cost 20 bytes instead of a ~96-byte TxState with an empty deque —
  // at metro scale almost every node is idle almost always, and the number
  // of live rings tracks instantaneous congestion, not city size.

  static constexpr std::uint32_t kNoRing = 0xffffffffu;

  struct Ring {
    std::uint32_t head = 0;
    std::uint32_t size = 0;
  };

  std::size_t queue_size(NodeId node) const {
    const std::uint32_t r = node_ring_[node];
    return r == kNoRing ? 0 : rings_[r].size;
  }

  /// Append to the node's FIFO; the caller has already checked capacity.
  void queue_push(NodeId node, std::shared_ptr<const Packet> packet) {
    std::uint32_t r = node_ring_[node];
    if (r == kNoRing) r = acquire_ring(node);
    Ring& ring = rings_[r];
    const std::size_t cap = config_.tx_queue_capacity;
    ring_slots_[r * cap + (ring.head + ring.size) % cap] = std::move(packet);
    ++ring.size;
  }

  /// Pop the FIFO head; releases the ring when it empties. The caller has
  /// already checked queue_size(node) > 0.
  std::shared_ptr<const Packet> queue_pop(NodeId node) {
    const std::uint32_t r = node_ring_[node];
    Ring& ring = rings_[r];
    const std::size_t cap = config_.tx_queue_capacity;
    std::shared_ptr<const Packet> packet = std::move(ring_slots_[r * cap + ring.head]);
    ring.head = static_cast<std::uint32_t>((ring.head + 1) % cap);
    if (--ring.size == 0) {
      node_ring_[node] = kNoRing;
      free_rings_.push_back(r);
    }
    return packet;
  }

  std::uint32_t acquire_ring(NodeId node) {
    std::uint32_t r;
    if (free_rings_.empty()) {
      r = static_cast<std::uint32_t>(rings_.size());
      rings_.emplace_back();
      ring_slots_.resize(ring_slots_.size() + config_.tx_queue_capacity);
    } else {
      r = free_rings_.back();
      free_rings_.pop_back();
      rings_[r] = Ring{};
    }
    node_ring_[node] = r;
    return r;
  }

  SimTime serialization_delay(const Packet& packet) const {
    if (!contention_enabled()) return config_.tx_delay_s;
    const std::size_t bits = config_.frame_overhead_bits + owner_.packet_bits(packet);
    return static_cast<SimTime>(bits) / config_.bitrate_bps;
  }

  /// Put `packet` on the air now: the channel is known to be free and the
  /// node up. Claims the channel for the serialization time, then fans out.
  void begin_transmission(NodeId from, std::shared_ptr<const Packet> packet) {
    const std::uint32_t pid = trace_id(*packet);
    const SimTime air = serialization_delay(*packet);
    transmissions_->inc();
    trace(obsx::TraceKind::kTx, from, pid);
    owner_.on_air(from, *packet);
    if (contention_enabled()) {
      busy_until_[from] = sim_.now() + air;
      airtime_[from] += air;
      airtime_us_->inc(static_cast<std::uint64_t>(std::llround(air * 1e6)));
      sim_.schedule_in(air, [this, from] { complete_transmission(from); });
    }
    const std::uint32_t txn = tx_counts_[from]++;
    // One broadcast occupies a single queue node: a DeliveryBatch cycling
    // through its receptions in (time, seq) order. The broadcast reserves
    // one sequence number per link up front and link i takes base + i, so
    // receptions keep neighbor order and the global event order is that of
    // one event per reception (skipped and lost links leave gaps).
    DeliveryBatch* batch = acquire_batch();
    // The topology holds neighbor ids only; each tile-local link's length
    // comes from the owner, by its directed slot.
    const std::span<const NodeId> link_ids = topology_.neighbors(from);
    const graphx::EdgeOffset first_slot = topology_.edge_offset(from);
    const std::uint64_t seq_base = sim_.reserve_seqs(link_ids.size());
    const SimTime now = sim_.now();
    latency_.bind(sim_.latency_histogram());
    std::size_t settled = 0;
    for (std::size_t i = 0; i < link_ids.size(); ++i) {
      const NodeId to = link_ids[i];
      // Cross-tile neighbors are handled by the owner's remote_fanout.
      if (tile_filter_ != nullptr && tile_filter_[to] != tile_) continue;
      const double length_m =
          owner_.link_length(from, first_slot + static_cast<graphx::EdgeOffset>(i), to);
      const std::optional<SimTime> delay = link_fate(from, to, length_m, air, txn, pid);
      if (!delay) continue;
      // Same (time, seq) key and latency recording schedule_in would have
      // produced; the entry just lives in the batch instead of the queue.
      const SimTime at = now + *delay;
      latency_.add(at - now);
      if (owner_.settle(to, *packet, at)) {
        ++settled;
        continue;
      }
      batch->entries.push_back({at, seq_base + i, to});
    }
    latency_.flush();
    if (settled > 0) {
      deliveries_->inc(settled);
      settled_ += settled;
      sim_.count_settled(settled);
    }
    if (batch->entries.empty()) {
      release_batch(batch);
    } else {
      batch->from = from;
      batch->pid = pid;
      batch->packet = packet;
      // Neighbor order already sorts seqs ascending; jitter can reorder
      // times, and delivery must follow the global (time, seq) order.
      std::sort(batch->entries.begin(), batch->entries.end(),
                [](const typename DeliveryBatch::Entry& a,
                   const typename DeliveryBatch::Entry& b) {
                  if (a.time != b.time) return a.time < b.time;
                  return a.seq < b.seq;
                });
      sim_.schedule_batch(batch->entries.front().time, batch->entries.front().seq, batch);
    }
    owner_.remote_fanout(from, packet, air, txn);
  }

  /// One reception (a DeliveryBatch entry or a handoff coming due).
  void deliver_one(NodeId to, NodeId from, const std::shared_ptr<const Packet>& packet,
                   std::uint32_t pid) {
    if (!node_up(to)) {
      blocked_receptions_->inc();
      trace(obsx::TraceKind::kDropFaulted, to, pid, static_cast<std::uint32_t>(from));
      return;
    }
    deliveries_->inc();
    trace(obsx::TraceKind::kRx, to, pid, static_cast<std::uint32_t>(from));
    owner_.deliver(to, from, packet);
  }

  /// The in-flight packet finished serializing: start the next queued one.
  void complete_transmission(NodeId from) {
    // A fresh transmit may have claimed the channel at exactly the free
    // instant (before this event ran); its own completion drains the queue.
    if (busy_until_[from] > sim_.now()) return;
    while (queue_size(from) > 0) {
      std::shared_ptr<const Packet> packet = queue_pop(from);
      if (!node_up(from)) {
        // The node died while the packet waited; it never airs.
        blocked_transmissions_->inc();
        trace(obsx::TraceKind::kDropFaulted, from, trace_id(*packet));
        continue;
      }
      begin_transmission(from, std::move(packet));
      break;
    }
  }

  std::uint32_t trace_id(const Packet& packet) const {
    if (trace_ == nullptr || !trace_->enabled()) return 0;
    return owner_.packet_id(packet);
  }
  void trace(obsx::TraceKind kind, NodeId node, std::uint32_t pid,
             std::uint32_t payload = obsx::kTraceNone) {
    if (trace_ == nullptr) return;
    trace_->record(kind, sim_.now(), static_cast<std::uint32_t>(node), pid, payload);
  }

  Simulator& sim_;
  const graphx::Topology& topology_;
  MediumConfig config_;
  Owner& owner_;
  std::vector<std::unique_ptr<DeliveryBatch>> all_batches_;  ///< owns every batch
  std::vector<DeliveryBatch*> free_batches_;  ///< batches not currently in flight
  // Per-node transmitter slabs (all empty when contention is off).
  std::vector<SimTime> busy_until_;
  std::vector<double> airtime_;
  std::vector<std::uint32_t> node_ring_;  ///< ring index or kNoRing
  std::vector<Ring> rings_;
  std::vector<std::shared_ptr<const Packet>> ring_slots_;  ///< tx_queue_capacity per ring
  std::vector<std::uint32_t> free_rings_;
  std::vector<std::uint32_t> tx_counts_;  ///< per-node on-air count (link_unit key)
  std::size_t settled_ = 0;
  obsx::HistogramTally latency_;  ///< one fan-out's queue latencies
  const std::uint32_t* tile_filter_ = nullptr;  ///< per-node tile table (shardx)
  std::uint32_t tile_ = 0;
  obsx::MetricsRegistry own_;  ///< fallback registry until bind_metrics()
  obsx::Counter* transmissions_;
  obsx::Counter* deliveries_;
  obsx::Counter* losses_;
  obsx::Counter* blocked_transmissions_;
  obsx::Counter* blocked_receptions_;
  obsx::Counter* deferrals_;
  obsx::Counter* queue_drops_;
  obsx::Counter* airtime_us_;
  obsx::TraceBuffer* trace_ = nullptr;
};

}  // namespace citymesh::sim
