// Shared broadcast medium over a fixed radio topology.
//
// A transmission by node `from` is delivered to every neighbor in the
// topology graph after transmission + propagation delay, each independently
// subject to a loss probability. The medium is templated on the packet type
// so the CityMesh agent and every baseline protocol reuse it.
//
// The topology is the *potential* connectivity; whether a link works right
// now is decided live. Two optional hooks support time-varying failures
// (src/faultx): a node filter (a down node neither transmits nor receives —
// reception is checked at delivery time, so a node that fails while a packet
// is in flight still misses it) and a per-link extra-loss function
// (regional interference / degraded-link scenarios).
//
// Airtime contention (src/trafficx): with MediumConfig::bitrate_bps > 0 the
// fixed tx_delay_s is replaced by a per-packet serialization delay derived
// from the packet's wire bits (set_packet_bits) plus PHY/MAC framing, and
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
//
// Observability: the medium's tally is the authoritative transmission /
// delivery count (src/obsx) — bind_metrics() repoints the counters into a
// shared MetricsRegistry so evaluation and benches read the same numbers the
// medium wrote, and set_trace() attaches a TraceBuffer that receives one
// kTx/kRx/kDropLoss/kDropFaulted/kDeferred/kDropQueue event per
// physical-layer action.
//
// Settled duplicates: most receptions of a flood reach an AP that already
// holds the message and only bump two counters. set_duplicate_settler()
// installs the owner's predicate, asked once per tile-local reception that
// survived link_fate, after its latency is recorded and its seq reserved.
// When it answers true the reception is settled: the medium counts it under
// deliveries and as a processed simulator event (Simulator::count_settled),
// the owner counts whatever its handler would have, and nothing is queued.
// Contract: the predicate may answer true only when delivering the packet
// to `to` at `at` would provably do nothing else: no trace event, no state
// change, no effect on any other draw or event. The surviving receptions
// keep their (time, seq) keys, so the rest of the run is unchanged.
// Cross-tile receptions (the remote fan-out hook) are never settled.
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
#include <functional>
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
  /// Propagation delay per meter of link length, seconds. Edge weights in
  /// the topology graph are interpreted as link lengths in meters.
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

template <typename Packet>
class BroadcastMedium {
 public:
  /// Called on delivery: (receiver, sender, packet).
  using DeliveryFn = std::function<void(NodeId, NodeId, const std::shared_ptr<const Packet>&)>;
  /// True when the node is currently up (may change between calls).
  using NodeUpFn = std::function<bool(NodeId)>;
  /// Extra per-link loss probability (0 = pristine), combined independently
  /// with the config's base loss_probability.
  using LinkLossFn = std::function<double(NodeId from, NodeId to)>;
  /// Stable trace id of a packet (a decoded message id, not a pointer).
  using PacketIdFn = std::function<std::uint32_t(const Packet&)>;
  /// Wire size of a packet in bits (header + payload); feeds the
  /// serialization delay when the contention model is on.
  using PacketBitsFn = std::function<std::size_t(const Packet&)>;
  /// Observer invoked once per packet actually put on the air (after any
  /// deferral; dropped packets never fire it).
  using TxObserverFn = std::function<void(NodeId from, const Packet&)>;
  /// Cross-shard fan-out hook (src/shardx): invoked once per on-air packet
  /// with (from, packet, serialization delay, sender tx index) AFTER the
  /// local neighbor loop, so the owning network can deliver the packet over
  /// topology edges that leave this medium's tile through link_fate().
  using RemoteFanoutFn =
      std::function<void(NodeId from, const std::shared_ptr<const Packet>&, SimTime air,
                         std::uint32_t tx_index)>;

  /// Duplicate settler (see the header comment): (receiver, packet, arrival
  /// time, reserved seq) -> true when the reception provably does nothing
  /// but count, and the owner has counted its side of it.
  using SettleFn =
      std::function<bool(NodeId to, const Packet&, SimTime at, std::uint64_t seq)>;

  BroadcastMedium(Simulator& simulator, const graphx::Graph& topology, MediumConfig config)
      : sim_(simulator),
        topology_(topology),
        config_(config),
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

  void set_delivery_handler(DeliveryFn fn) { deliver_ = std::move(fn); }

  /// Install a live node filter: a down node neither transmits nor receives.
  /// Pass nullptr to clear (all nodes up).
  void set_node_filter(NodeUpFn fn) { node_up_ = std::move(fn); }

  /// Install a live per-link extra-loss function. Pass nullptr to clear.
  void set_link_loss(LinkLossFn fn) { link_loss_ = std::move(fn); }

  /// Install the packet-bits hook the contention model charges airtime by.
  /// Without it only frame_overhead_bits are charged per packet.
  void set_packet_bits(PacketBitsFn fn) { packet_bits_ = std::move(fn); }

  /// Install a per-transmission observer (per-flow transmission attribution,
  /// src/trafficx). Fires at the same instant as the medium's kTx trace
  /// event. Pass nullptr to clear.
  void set_tx_observer(TxObserverFn fn) { tx_observer_ = std::move(fn); }

  /// Install the cross-shard fan-out hook (src/shardx). Pass nullptr to
  /// clear. Only meaningful when this medium covers a single tile of the
  /// topology: the hook carries every on-air packet to the links the tile
  /// filter (or a tile subgraph) omits.
  void set_remote_fanout(RemoteFanoutFn fn) { remote_fanout_ = std::move(fn); }

  /// Install the duplicate settler. Pass nullptr to clear (every reception
  /// is queued).
  void set_duplicate_settler(SettleFn fn) { settle_ = std::move(fn); }

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

  /// Attach a trace buffer; `id_fn` extracts the stable packet id recorded
  /// in each event. nullptr detaches. The buffer must outlive the medium.
  void set_trace(obsx::TraceBuffer* trace, PacketIdFn id_fn = nullptr) {
    trace_ = trace;
    packet_id_ = std::move(id_fn);
  }

  bool node_up(NodeId node) const { return !node_up_ || node_up_(node); }

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
    if (link_loss_) {
      const double extra = link_loss_(from, to);
      if (extra > 0.0) loss = 1.0 - (1.0 - loss) * (1.0 - extra);
    }
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
  /// Deliveries settled at fan-out (set_duplicate_settler): counted in
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
    const std::size_t bits =
        config_.frame_overhead_bits + (packet_bits_ ? packet_bits_(packet) : 0);
    return static_cast<SimTime>(bits) / config_.bitrate_bps;
  }

  /// Put `packet` on the air now: the channel is known to be free and the
  /// node up. Claims the channel for the serialization time, then fans out.
  void begin_transmission(NodeId from, std::shared_ptr<const Packet> packet) {
    const std::uint32_t pid = trace_id(*packet);
    const SimTime air = serialization_delay(*packet);
    transmissions_->inc();
    trace(obsx::TraceKind::kTx, from, pid);
    if (tx_observer_) tx_observer_(from, *packet);
    if (contention_enabled()) {
      busy_until_[from] = sim_.now() + air;
      airtime_[from] += air;
      airtime_us_->inc(static_cast<std::uint64_t>(std::llround(air * 1e6)));
      sim_.schedule_in(air, [this, from] { complete_transmission(from); });
    }
    const std::uint32_t txn = tx_counts_[from]++;
    // One broadcast occupies a single queue node: a DeliveryBatch cycling
    // through its receptions in (time, seq) order. Each reception still
    // consumes its own sequence number, in neighbor order, so the global
    // event order is that of one event per reception.
    DeliveryBatch* batch = acquire_batch();
    // The CSR keeps neighbor ids and weights in split packed arrays; the
    // tile-membership check (and the common no-loss path) walks only the
    // 4-byte id run.
    const auto links = topology_.neighbors(from);
    const std::span<const NodeId> link_ids = links.ids();
    const std::span<const double> link_weights = links.weights();
    for (std::size_t i = 0; i < link_ids.size(); ++i) {
      const NodeId to = link_ids[i];
      // Cross-tile neighbors are handled by remote_fanout_.
      if (tile_filter_ != nullptr && tile_filter_[to] != tile_) continue;
      const std::optional<SimTime> delay = link_fate(from, to, link_weights[i], air, txn, pid);
      if (!delay) continue;
      // Same (time, seq) key and latency recording schedule_in would have
      // produced; the entry just lives in the batch instead of the queue.
      const SimTime at = sim_.now() + *delay;
      sim_.record_queue_latency(at - sim_.now());
      const std::uint64_t seq = sim_.reserve_seq();
      if (settle_ && settle_(to, *packet, at, seq)) {
        deliveries_->inc();
        ++settled_;
        sim_.count_settled();
        continue;
      }
      batch->entries.push_back({at, seq, to});
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
    if (remote_fanout_) remote_fanout_(from, packet, air, txn);
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
    if (deliver_) deliver_(to, from, packet);
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
    if (trace_ == nullptr || !trace_->enabled() || !packet_id_) return 0;
    return packet_id_(packet);
  }
  void trace(obsx::TraceKind kind, NodeId node, std::uint32_t pid,
             std::uint32_t payload = obsx::kTraceNone) {
    if (trace_ == nullptr) return;
    trace_->record(kind, sim_.now(), static_cast<std::uint32_t>(node), pid, payload);
  }

  Simulator& sim_;
  const graphx::Graph& topology_;
  MediumConfig config_;
  DeliveryFn deliver_;
  NodeUpFn node_up_;
  LinkLossFn link_loss_;
  PacketBitsFn packet_bits_;
  TxObserverFn tx_observer_;
  RemoteFanoutFn remote_fanout_;
  SettleFn settle_;
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
  PacketIdFn packet_id_;
};

}  // namespace citymesh::sim
