// End-to-end CityMesh network facade (§3 steps 1-4 over the §4 simulator).
//
// Owns the full stack for one city: the building graph (map-derived routing
// state), the realized AP placement (ground truth), every AP agent's state,
// the discrete-event broadcast medium, and the postbox registry. Every message
// takes one pipeline — plan, compress, encode, originate at the source AP —
// and gets one record of its fate. `inject` originates and returns; `send`
// is an inject run to quiescence that reports the paper's metrics
// (delivery, transmission overhead vs. the ideal unicast path, header bits).
//
// Beyond the paper's baseline, the facade implements three §6/future-work
// extensions:
//   - acknowledgments: the destination sends an ack back along the reversed
//     conduit (PacketFlag::kAckRequest), and `send_reliable` escalates the
//     conduit width until an ack arrives;
//   - geo-broadcast: `broadcast` floods a disc around a center building,
//     reaching every postbox in the region (emergency notices, §1);
//   - rebroadcast suppression: every rebroadcast decision runs through a
//     pluggable relayx::RebroadcastPolicy (NetworkConfig::relay) — flood
//     reproduces the paper byte-for-byte, the suppression policies implement
//     the "currently all the APs within a building rebroadcast ... this
//     overhead can be reduced" reduction.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>

#include "core/ap_agent.hpp"
#include "core/building_graph.hpp"
#include "core/compiled_message.hpp"
#include "core/postbox.hpp"
#include "core/route_planner.hpp"
#include "mesh/ap_network.hpp"
#include "obsx/metrics.hpp"
#include "obsx/trace.hpp"
#include "qfgeo/qfgeo.hpp"
#include "relayx/policy.hpp"
#include "shardx/engine.hpp"
#include "sim/medium.hpp"
#include "sim/simulator.hpp"

namespace citymesh::core {

/// Live operational state of one AP. APs start up; disaster scenarios
/// (src/faultx) flip them down and back over simulated time. A down AP
/// neither receives nor rebroadcasts — links involving it are filtered at
/// transmit/delivery time by the medium, never baked into the mesh.
enum class ApStatus : std::uint8_t {
  kUp,
  kDown,
};

/// A region whose radio links are degraded (interference, partial power):
/// every link with an endpoint inside suffers `extra_loss` on top of the
/// medium's base loss probability.
struct DegradedRegion {
  geo::Polygon region;
  double extra_loss = 0.0;
  bool active = true;
};

/// The live protocol family a network runs (src/qfgeo is the second one).
/// kConduit is the paper's conduit-scoped flood — the default, and the
/// byte-identical legacy code path (golden-digest gated). kQfgeo replaces
/// route planning with QF-Geo bounded-region greedy forwarding: the header
/// carries only {source, destination} waypoints, the compiled membership
/// set becomes the forwarding ellipse, and in-region receivers elect a
/// forwarder by distance-to-destination with a queue-occupancy penalty,
/// falling back to a scoped in-region flood at local minima.
enum class Protocol : std::uint8_t {
  kConduit,
  kQfgeo,
};

/// Canonical CLI/spec name ("conduit", "qfgeo").
std::string_view to_string(Protocol protocol);
std::optional<Protocol> protocol_from(std::string_view name);

struct NetworkConfig {
  mesh::PlacementConfig placement;
  BuildingGraphConfig graph;
  ConduitConfig conduit;
  sim::MediumConfig medium;
  /// Per-send simulation budget; a conduit flood quiesces long before this.
  sim::SimTime max_sim_time_s = 120.0;
  std::size_t max_events_per_send = 20'000'000;
  std::uint64_t seed = 99;  ///< message-id / backoff stream

  /// Rebroadcast-suppression policy (src/relayx). The default (flood) is
  /// the paper's unconditional conduit rebroadcast, byte-identical to the
  /// pre-relayx pipeline. relay.seed is overwritten with `seed` at network
  /// construction so policy draws follow the run's determinism contract.
  relayx::PolicyConfig relay;

  /// Capacity of each of the network's trace rings (events). 0 = auto-size:
  /// each tile's ring from its AP count, the coordinator's (faultx actions
  /// only) at the 2^16 floor. A ring keeps the latest window when a run
  /// outgrows it.
  std::size_t trace_capacity = 0;

  /// Tile shards for intra-run parallelism (src/shardx). Every network runs
  /// the one tiled engine: K = 1 (default) is a single tile with no cut
  /// edges and no worker threads; K >= 2 partitions the city into K
  /// building-atomic tiles, each with its own simulator/medium/policy,
  /// synchronized by conservative-lookahead windows. Link randomness is
  /// hashed per link and policy draws come from per-AP streams, so merged
  /// run manifests are byte-identical for every K: the shard count changes
  /// speed, never what is simulated. Live faultx ScenarioEngine::install
  /// schedules through schedule_control, so fault actions fire at their
  /// times for every K.
  std::size_t shards = 1;

  /// How plan_tiles partitions the city when shards > 1. kAdaptive (the
  /// default) balances tiles by estimated event rate (AP count + radio
  /// degree per building) so dense downtown tiles stop dominating the window
  /// barrier; kGrid is the original uniform centroid grid. Digests are
  /// invariant across modes for every K >= 2 — tiled behavior depends only
  /// on hashed per-link draws and per-AP streams, never on which tile hosts
  /// an AP.
  shardx::TilingMode tiling = shardx::TilingMode::kAdaptive;

  /// Which protocol family this network runs. kConduit (default) leaves
  /// every code path byte-identical to the pre-qfgeo pipeline; kQfgeo
  /// routes sends/injections through QF-Geo bounded-region forwarding.
  /// The qfgeo.* counters are registered only under kQfgeo, so conduit
  /// manifests serialize exactly the legacy key set.
  Protocol protocol = Protocol::kConduit;

  /// Forwarding-region shape (kQfgeo only).
  qfgeo::RegionConfig qfgeo_region;
  /// Greedy-election timing + capacity penalty (kQfgeo only).
  qfgeo::ForwarderConfig qfgeo_forward;
};

/// The immutable "compiled" form of one city: the generated footprints plus
/// everything derived deterministically from them — the map-derived building
/// graph and the realized AP placement. Compiling is the expensive prefix of
/// every run (graph construction dominates small sweeps); a CompiledCity is
/// strictly read-only after construction, so one instance can back any
/// number of CityMeshNetworks concurrently (src/runx shares one per city
/// across its worker threads via runx::CityCache).
struct CompiledCity {
  osmx::City city;
  BuildingGraph map;
  mesh::ApNetwork aps;

  CompiledCity(osmx::City city_in, const BuildingGraphConfig& graph_config,
               const mesh::PlacementConfig& placement)
      : city(std::move(city_in)),
        map(city, graph_config),
        aps(mesh::place_aps(city, placement)) {}
};

/// Compile a city against a network config's graph + placement parameters.
std::shared_ptr<const CompiledCity> compile_city(osmx::City city,
                                                 const NetworkConfig& config);

struct SendOptions {
  bool urgent = false;
  bool compress = true;          ///< false = raw building list (ablation)
  bool collect_trace = false;    ///< record per-AP roles for Figure 7
  /// Override the conduit width for this send (multiple of 10 m, <= 150).
  std::optional<double> conduit_width;
  /// Ask the destination to send an ack back along the reversed route
  /// (send and inject alike). Requires ack_to: the sender's own postbox
  /// (must be registered).
  bool request_ack = false;
  std::optional<PostboxInfo> ack_to;
};

struct SendOutcome {
  bool route_found = false;
  bool source_has_ap = false;
  bool delivered = false;
  double delivery_time_s = 0.0;

  std::uint32_t message_id = 0;
  PlannedRoute route;
  std::size_t header_bits = 0;

  /// Broadcasts attributable to this send, including the source injection
  /// and (when an ack was requested) the ack's own flood.
  std::size_t transmissions = 0;
  /// Minimum AP-graph hop count source->destination (ideal unicast path),
  /// nullopt when the AP graph is disconnected between the endpoints.
  std::optional<std::size_t> min_hops;
  /// transmissions / min_hops — the paper's transmission-overhead ratio.
  std::optional<double> overhead() const {
    if (!min_hops || *min_hops == 0) return std::nullopt;
    return static_cast<double>(transmissions) / static_cast<double>(*min_hops);
  }

  /// Ack status (only when SendOptions::request_ack).
  bool ack_received = false;
  std::uint32_t ack_message_id = 0;

  /// Figure-7 per-AP roles (only when SendOptions::collect_trace); derived
  /// from the obsx trace stream via roles_from_trace.
  std::vector<mesh::ApId> rebroadcast_aps;
  std::vector<mesh::ApId> received_only_aps;
};

/// Per-AP roles of one message, reconstructed from a recorded trace: which
/// APs put the packet on the air and which only heard it. This is how
/// Figure 7 is rendered — from the event stream, not live bookkeeping.
struct TraceRoles {
  std::vector<mesh::ApId> rebroadcast;     ///< nodes with a kTx, first-tx order
  std::vector<mesh::ApId> received_only;   ///< nodes with kRx but no kTx
};

TraceRoles roles_from_trace(std::span<const obsx::TraceEvent> events,
                            std::uint32_t message_id);

/// Result of `send_reliable`: width-escalating retries until acked.
struct ReliableOutcome {
  bool delivered = false;     ///< any attempt reached the destination
  bool acknowledged = false;  ///< the sender saw an ack
  std::size_t attempts = 0;
  std::vector<SendOutcome> tries;
};

/// Immediate result of injecting one flow into the live simulation
/// (src/trafficx workloads). Injection does not run the event loop: many
/// flows coexist in flight and contend for airtime; the caller runs the
/// simulator once and reads each flow's FlowState after.
struct InjectResult {
  bool route_found = false;
  bool source_has_ap = false;
  /// 0 when the flow could not be injected (no route / dead source).
  std::uint32_t message_id = 0;
  std::size_t header_bits = 0;
  bool accepted() const { return message_id != 0; }
};

/// The record of one message's fate, merged from the tiles after every
/// run. Every message has one: an injected flow keeps it until
/// clear_flow_states(); a send reads it into its outcome and erases it.
struct FlowState {
  double injected_at_s = 0.0;
  /// The live AP the message left from (originate's `live_ap` of the
  /// source building); the origin of the ideal-hop baseline. An ack's
  /// record leaves it 0: the ack leaves from the delivering AP.
  mesh::ApId source_ap = 0;
  bool delivered = false;
  double delivery_time_s = 0.0;
  std::size_t postboxes_reached = 0;
  /// Broadcasts of this message actually put on the air (counted by the
  /// medium's tx observer; deferred-then-aired counts, queue-dropped does
  /// not).
  std::size_t transmissions = 0;
  /// The ack's message id when SendOptions::request_ack named an ack_to
  /// (0 = no ack); the ack has a record of its own under that id.
  std::uint32_t ack_message_id = 0;
  /// The ack reached the ack_to postbox.
  bool ack_received = false;
};

/// Result of a geo-broadcast.
struct BroadcastOutcome {
  bool route_found = false;
  bool source_has_ap = false;
  std::uint32_t message_id = 0;
  std::size_t transmissions = 0;
  /// Distinct postboxes inside the region that stored the message.
  std::size_t postboxes_reached = 0;
  PlannedRoute route;
};

class CityMeshNetwork {
 public:
  /// Compile-and-own: builds the building graph + AP placement for this one
  /// network (copies the city). Equivalent to the shared-city constructor
  /// below with a freshly compiled city.
  CityMeshNetwork(const osmx::City& city, NetworkConfig config);

  /// Share a pre-compiled city: the network holds a reference-counted,
  /// read-only CompiledCity and builds only its own dynamic state (agents,
  /// medium, fault status, postboxes). `config.graph`/`config.placement`
  /// must be the parameters the city was compiled with; they are not
  /// re-applied. This is what makes sweep workers cheap (src/runx).
  CityMeshNetwork(std::shared_ptr<const CompiledCity> compiled, NetworkConfig config);

  const osmx::City& city() const { return compiled_->city; }
  const BuildingGraph& map() const { return compiled_->map; }
  const mesh::ApNetwork& aps() const { return compiled_->aps; }
  /// The shared compiled city backing this network.
  const std::shared_ptr<const CompiledCity>& compiled() const { return compiled_; }
  const RoutePlanner& planner() const { return planner_; }
  const NetworkConfig& config() const { return config_; }

  // --- Run driving (src/shardx) ------------------------------------------
  // These are the only ways trafficx/faultx-style drivers advance simulated
  // time and read what a run did: every network runs its tiles in
  // conservative-lookahead windows, and every result lives in the tiles.

  /// Number of tile shards (1 = a single tile).
  std::size_t shard_count() const { return shards_.size(); }
  /// Current simulated time: the synchronized window frontier.
  sim::SimTime sim_now() const { return shard_now_; }
  /// Run the tiles until `until` (inclusive) or `max_events` events.
  /// Returns the number of events executed (control events included), after
  /// merging the per-tile delivery deltas into the network-level outcome
  /// state. Untraced conduit-flood tiles settle provable duplicate
  /// receptions at fan-out instead of queueing them (settle_duplicate); a
  /// settled reception counts as an event, so an uncut run returns the same
  /// count traced or not. It is charged to `max_events` when it is settled,
  /// ahead of its arrival time: a run cut by the budget may already count
  /// receptions due after the cut, and may overshoot the budget by one
  /// fan-out per tile. Resuming such a run with nothing changed in between
  /// ends exactly as an uncut run; the budget is a runaway guard, and no
  /// shipped run reaches it.
  std::size_t run_until(sim::SimTime until,
                        std::size_t max_events = std::numeric_limits<std::size_t>::max());
  /// Schedule a coordinator-level event (workload injection, fault action).
  /// It runs between windows at exactly `at`, before any tile event at that
  /// time and when no worker is active — the handler may safely touch any
  /// network state (inject flows, flip AP status, read flow states).
  void schedule_control(sim::SimTime at, std::function<void()> fn);
  /// The run's metrics: the coordinator registry (sends, deliveries, header
  /// and hop histograms) merged with every tile registry (medium.*, the
  /// per-reception net.* tallies, relayx.*, qfgeo.*). The key set and the
  /// bytes of to_json() are the same for every shard count.
  obsx::MetricsSnapshot merged_metrics() const;
  /// Trace events merged across buffers, sorted by (time, buffer) with each
  /// buffer's internal order preserved: the coordinator trace (faultx
  /// actions) first, then the tiles in order.
  std::vector<obsx::TraceEvent> merged_trace_events() const;
  /// Events lost to ring wrap, summed over every trace buffer.
  std::uint64_t trace_lost() const;
  /// Enable/disable tracing on every trace buffer.
  void set_tracing(bool on);
  bool tracing_enabled() const;

  /// Medium counters summed across shards.
  struct MediumTotals {
    std::size_t transmissions = 0;
    std::size_t deliveries = 0;
    /// Of `deliveries`, the duplicates settled at fan-out (never queued).
    std::size_t settled = 0;
    std::size_t deferrals = 0;
    std::size_t queue_drops = 0;
    double airtime_s = 0.0;
  };
  MediumTotals medium_totals() const;

  /// The tile plan driving a sharded network; nullptr with a single tile.
  const shardx::TilePlan* tile_plan() const {
    return shards_.size() > 1 ? &plan_ : nullptr;
  }
  /// Conservative lookahead window width (kForever when the tiles are
  /// radio-isolated or there is a single tile).
  double lookahead_s() const { return lookahead_s_; }

  /// Cumulative worker idle time at window barriers: per window, the sum
  /// over tiles of (slowest tile's wall clock - own wall clock). High values
  /// mean the tile plan is unbalanced — the number adaptive tiling exists to
  /// shrink. Always 0 with a single tile.
  double barrier_idle_s() const { return barrier_idle_s_; }

  /// One cross-tile reception exchanged at a window barrier, in the
  /// deterministic ingestion order (time, src_tile, seq).
  struct HandoffRecord {
    double time_s = 0.0;
    shardx::TileId src_tile = 0;
    std::uint64_t seq = 0;
    mesh::ApId to = 0;
    mesh::ApId from = 0;
    std::uint32_t message_id = 0;
  };
  /// Record every exchanged handoff into handoff_log() (tests; off by
  /// default — the log grows unboundedly).
  void record_handoffs(bool on) { record_handoffs_ = on; }
  const std::vector<HandoffRecord>& handoff_log() const { return handoff_log_; }
  /// Total cross-tile receptions exchanged at barriers so far.
  std::uint64_t handoffs_exchanged() const { return handoffs_exchanged_; }

  /// Register Bob's postbox: every AP in his building hosts the (shared)
  /// postbox so any of them can cache arriving messages. Returns the shared
  /// postbox, or nullptr when the building has no APs.
  std::shared_ptr<Postbox> register_postbox(const PostboxInfo& info);

  /// The *primary* (first-registered) postbox for an id — typically the
  /// owner's home postbox. nullptr when unknown.
  std::shared_ptr<Postbox> postbox_of(const cryptox::SelfCertifyingId& id) const;

  /// The postbox registered for this id at a specific building (an identity
  /// may hold several: home plus temporary ones while traveling).
  std::shared_ptr<Postbox> postbox_at(const cryptox::SelfCertifyingId& id,
                                      BuildingId building) const;

  /// Send an opaque (typically sealed) payload from a device in
  /// `from_building` to the destination postbox. Runs the event simulation
  /// for this message to quiescence before returning.
  SendOutcome send(BuildingId from_building, const PostboxInfo& to,
                   std::span<const std::uint8_t> payload, const SendOptions& opts = {});

  /// Inject one flow at the current simulated time without running the
  /// event loop: plan, encode, and broadcast from the source AP, then
  /// return. Concurrent injected flows share the medium and contend for
  /// airtime (sim::MediumConfig::bitrate_bps). An ack request is honoured
  /// as in `send`; collect_trace applies to `send` only. Read the flow's
  /// fate with flow_state() after running the simulator.
  InjectResult inject(BuildingId from_building, const PostboxInfo& to,
                      std::span<const std::uint8_t> payload, const SendOptions& opts = {});

  /// Record of an injected flow (or of its ack); nullptr for unknown ids.
  const FlowState* flow_state(std::uint32_t message_id) const;
  /// Number of message records held: injected flows and their acks. A
  /// send erases its own records before returning.
  std::size_t flow_count() const { return flows_.size(); }
  /// Forget every injected flow's record (between workload runs).
  void clear_flow_states() { flows_.clear(); }

  /// Retry with escalating conduit widths until the sender's postbox
  /// (`ack_to`) receives a delivery acknowledgment. Widths must be valid
  /// header widths (multiples of 10 m up to 150).
  ReliableOutcome send_reliable(BuildingId from_building, const PostboxInfo& to,
                                std::span<const std::uint8_t> payload,
                                const PostboxInfo& ack_to,
                                std::span<const double> widths = kDefaultWidths);

  /// Geo-broadcast: route to `center_building`, then flood every AP within
  /// `radius_m` of its centroid. Every postbox in the region gets a copy.
  BroadcastOutcome broadcast(BuildingId from_building, BuildingId center_building,
                             double radius_m, std::span<const std::uint8_t> payload,
                             bool urgent = false);

  /// Device-side helper: inform `home`'s postbox that the owner is currently
  /// in `current_building` (a kLocationUpdate message routed home).
  SendOutcome send_location_update(const PostboxInfo& home, BuildingId current_building);

  /// Postbox-agent forwarding service (§3 step 4's push/pull): drain the
  /// registered postbox of `home` and re-send every pending message to
  /// `temp` (the owner's postbox at their current building). Returns the
  /// number of messages that arrived at `temp`. Location updates are
  /// housekeeping and are dropped rather than forwarded.
  std::size_t forward_pending(const PostboxInfo& home, const PostboxInfo& temp);

  /// Mark every AP in a building as compromised (failure injection).
  void compromise_building(BuildingId building, AgentBehavior behavior);

  // --- Dynamic fault state (src/faultx drives these over sim time) --------

  /// Flip one AP up or down. Takes effect immediately: in-flight packets
  /// addressed to a newly-down AP are dropped at delivery time.
  void set_ap_status(mesh::ApId id, ApStatus status);
  ApStatus ap_status(mesh::ApId id) const { return ap_status_.at(id); }
  bool ap_up(mesh::ApId id) const { return ap_status_.at(id) == ApStatus::kUp; }
  /// Number of APs currently up.
  std::size_t aps_up() const { return aps_up_; }

  /// The AP a device in `building` associates with: the representative
  /// (closest-to-centroid) AP when it is up, otherwise the nearest live AP
  /// of the building; nullopt when the building has no live AP.
  std::optional<mesh::ApId> live_ap(BuildingId building) const;

  /// Register a degraded-link region; returns a handle for (de)activation.
  /// Membership is precomputed per AP, so the per-link lookup stays cheap.
  std::size_t add_degraded_region(geo::Polygon region, double extra_loss);
  void set_degraded_region_active(std::size_t handle, bool active);
  const std::vector<DegradedRegion>& degraded_regions() const { return degraded_; }

  /// Combined extra loss for one link from the active degraded regions
  /// (independent events; 0 when the link avoids every region).
  double extra_link_loss(mesh::ApId from, mesh::ApId to) const;

  /// The coordinator trace: events recorded outside any tile (faultx
  /// actions). Packet events live in the tile traces; read a run through
  /// merged_trace_events() after set_tracing(true).
  obsx::TraceBuffer& trace() { return trace_; }

  /// The network's one compile service. originate compiles every message
  /// here on the coordinator thread, its ack included, and attaches the
  /// result to the packet, so no tile ever compiles and the counters read
  /// the same for every shard count. The counters live outside
  /// merged_metrics(), so run manifests stay byte-identical to the
  /// pre-compile pipeline.
  MessageCompiler& compiler() { return compiler_; }
  const MessageCompiler& compiler() const { return compiler_; }

  static constexpr double kDefaultWidthValues[3] = {50.0, 80.0, 120.0};
  static constexpr std::span<const double> kDefaultWidths{kDefaultWidthValues};

 private:
  // Pending (backoff-delayed) rebroadcasts, keyed by (message_id, ap): the
  // cancelable simulator event plus the overheard-duplicate tally the policy
  // judges cancellation by. Every send cancels what the previous run left
  // behind (clear_pending_relays); injected flows share them. Lives per
  // shard — an AP's timers always run on its own tile's simulator.
  struct PendingRelay {
    sim::Simulator::EventId event = sim::Simulator::kInvalidEvent;
    std::uint32_t overheard = 0;
    /// Armed by the qfgeo greedy election: cancellation is positional (a
    /// transmitter at least as close to the destination was overheard),
    /// not policy-judged.
    bool greedy = false;
  };

  /// One message's entry in flows_: its public record plus the ack the
  /// delivering AP sends.
  struct Flow {
    FlowState state;
    /// Nonzero when this record is an ack: the message it acknowledges. An
    /// ack counts under net.acks_received, never net.delivered.
    std::uint32_t ack_of = 0;
    /// The ack packet, built and compiled by originate on the coordinator;
    /// null when no ack was requested. It goes back along the message's
    /// route, reversed, at the message's conduit width.
    std::shared_ptr<const MeshPacket> ack;
  };
  /// Shard-local slice of one message's record, merged (and consumed) by
  /// merge_shard_deltas() after every run.
  struct FlowDelta {
    bool delivered = false;
    double delivery_time_s = 0.0;
    std::size_t postboxes_reached = 0;
    std::size_t transmissions = 0;
    /// This tile already sent the ack (building-atomic tiling puts every
    /// delivery of a unicast on one tile).
    bool ack_sent = false;

    void deliver(std::size_t postboxes, double now) {
      postboxes_reached += postboxes;
      if (!delivered) {
        delivered = true;
        delivery_time_s = now;
      }
    }
  };

  /// One execution shard (a tile): the event loop plus the mutable
  /// simulation state a window touches. The one thing tiles share writably
  /// is the agent slab, and an AP's entries there are written only by its
  /// own tile's thread. Every shard's medium walks the one shared
  /// compiled-city CSR (with a tile filter when there are several tiles) —
  /// there is no per-tile topology copy.
  struct Shard {
    Shard(shardx::TileId tile_id, const graphx::Graph& topology,
          const sim::MediumConfig& medium_config, std::size_t trace_capacity)
        : tile(tile_id), trace(trace_capacity), medium(sim, topology, medium_config) {}

    shardx::TileId tile;
    sim::Simulator sim;
    obsx::MetricsRegistry metrics;
    obsx::TraceBuffer trace;
    sim::BroadcastMedium<MeshPacket> medium;
    std::unique_ptr<relayx::RebroadcastPolicy> policy;

    // Cached counter handles. Every tile registers the same names, so merged
    // snapshots sum into one key set.
    obsx::Counter* n_rebroadcasts = nullptr;
    obsx::Counter* n_dup_suppressed = nullptr;
    obsx::Counter* n_conduit_rejects = nullptr;
    obsx::Counter* n_postbox_stores = nullptr;
    obsx::Counter* n_acks_sent = nullptr;
    obsx::Counter* n_suppression_cancelled = nullptr;
    obsx::Histogram* h_latency = nullptr;

    // qfgeo.* counters, registered (and non-null) only when the network
    // runs Protocol::kQfgeo — conduit manifests keep the legacy key set.
    obsx::Counter* qf_candidates = nullptr;      ///< greedy forwards armed
    obsx::Counter* qf_fired = nullptr;           ///< armed forwards that aired
    obsx::Counter* qf_cancelled = nullptr;       ///< cancelled on overhear
    obsx::Counter* qf_no_progress = nullptr;     ///< in-region, no progress
    obsx::Counter* qf_fallback_floods = nullptr; ///< local-minimum recoveries

    std::unordered_map<std::uint64_t, PendingRelay> pending;
    std::unordered_map<std::uint32_t, FlowDelta> flow_deltas;

    // Cross-tile receptions created this window, drained at the barrier.
    std::vector<shardx::Handoff<MeshPacket>> outbox;
    std::uint64_t handoff_seq = 0;

    // Duplicate settling (settle_duplicate). `settler` is installed when the
    // protocol is conduit and the policy ignores duplicates; settle_before
    // is the run's horizon while a window runs with tracing off, and -inf
    // otherwise, so a reception settles only if it arrives before it.
    bool settler = false;
    sim::SimTime settle_before = -sim::kForever;
    // Earliest queued reception of a message at an AP that has not seen it
    // yet, keyed (message_id << 32 | ap): any later reception of the same
    // message there is a duplicate. Written at fan-out, erased by the first
    // accepted delivery.
    struct Arrival {
      sim::SimTime time;
      std::uint64_t seq;
    };
    std::unordered_map<std::uint64_t, Arrival> first_arrival;
  };

  void handle_delivery(Shard& shard, sim::NodeId to, sim::NodeId from,
                       const std::shared_ptr<const MeshPacket>& packet);
  /// The medium's duplicate settler for one tile-local reception arriving
  /// at `at` with seq `seq`: true (and net.dup_suppressed counted) when the
  /// reception is provably a no-op duplicate. See the definition for the
  /// conditions.
  bool settle_duplicate(Shard& shard, sim::NodeId to, const MeshPacket& packet,
                        sim::SimTime at, std::uint64_t seq);
  /// A store into `ap`'s postboxes: count and trace it, update the
  /// message's record delta, and send the ack on its first delivery here.
  void record_delivery(Shard& shard, mesh::ApId ap, const AgentAction& action, double now);
  void transmit_counted(Shard& shard, mesh::ApId from,
                        const std::shared_ptr<const MeshPacket>& packet);
  /// The relayx-policy election at the membership-check->rebroadcast point
  /// (relay now / cancelable backoff / suppress) — the conduit flood path,
  /// and qfgeo's scoped-flood fallback at local minima.
  void policy_relay(Shard& shard, mesh::ApId to, std::uint32_t message_id,
                    mesh::ApId from, double now,
                    const std::shared_ptr<const MeshPacket>& packet);
  /// QF-Geo forwarding election for one in-region reception (greedy
  /// distance-to-destination with capacity penalty; local-minimum scoped
  /// flood through policy_relay).
  void qfgeo_forward(Shard& shard, mesh::ApId to, mesh::ApId from,
                     const AgentAction& action, double now,
                     const std::shared_ptr<const MeshPacket>& packet);
  /// Is `from` a QF-Geo local minimum for this message: no live in-region
  /// neighbor of `from` lies strictly closer to the destination. Static per
  /// (message, transmitter) — AP positions are immutable and ap_status_
  /// flips only in coordinator context, so reading it here is shard-safe.
  bool qfgeo_local_minimum(mesh::ApId from, const CompiledMessage& msg,
                           geo::Point dst) const;
  /// Register the qfgeo.* counters in the shard's registry when this
  /// network runs Protocol::kQfgeo; leaves the pointers null otherwise.
  void bind_qfgeo_counters(Shard& shard);
  /// The agent of AP `id`: a view over its placement, the slab and the
  /// compile service, built per call.
  ApAgent agent_at(mesh::ApId id) {
    const mesh::AccessPoint& ap = aps().ap(id);
    return {id, ap.position, ap.building, compiled_->map, compiler_, agent_state_, id};
  }
  /// Cancel every pending backoff-delayed rebroadcast (per-send reset).
  void clear_pending_relays();
  /// Originate the ack of `message_id` (record `flow`) at the delivering AP.
  void send_ack_from(Shard& shard, mesh::ApId ap, std::uint32_t message_id,
                     const Flow& flow);
  /// The one origination path (§3 steps 2-4): plan the route (conduit
  /// planner, or qfgeo's endpoints), encode and compile the packet, open
  /// the message's record (and its ack's) in flows_, let the source AP
  /// process its own packet, and put it on the air. Fills the origination
  /// fields of `out`; returns false when there is no route or no live AP
  /// in the source building (no record is opened then).
  bool originate(BuildingId from_building, const PostboxInfo& to,
                 std::span<const std::uint8_t> payload, const SendOptions& opts,
                 std::uint8_t extra_flags, std::uint32_t broadcast_radius_m,
                 SendOutcome& out);
  /// originate, run to quiescence, read the record into the outcome and
  /// erase it (and its ack's). `postboxes_reached` receives the record's
  /// count when non-null.
  SendOutcome run_send(BuildingId from_building, const PostboxInfo& to,
                       std::span<const std::uint8_t> payload, const SendOptions& opts,
                       std::uint8_t extra_flags, std::uint32_t broadcast_radius_m,
                       std::size_t* postboxes_reached = nullptr);

  /// Build the tile shards; with K >= 2 also the tile plan, the cross-link
  /// index and the worker pool.
  void build_tiles();
  Shard& shard_for(mesh::ApId ap) {
    return *shards_[shards_.size() > 1 ? plan_.ap_tile[ap] : 0];
  }
  /// Deliver one on-air packet over this shard's cut edges: the medium's
  /// link_fate per link, arrival recorded as a Handoff in the outbox.
  void remote_fanout(Shard& shard, sim::NodeId from,
                     const std::shared_ptr<const MeshPacket>& packet, sim::SimTime air,
                     std::uint32_t tx_index);
  /// Barrier exchange: drain every outbox, sort (time, src_tile, seq),
  /// schedule each handoff into its receiving tile.
  void exchange_handoffs();
  /// Fold every shard's record deltas into flows_ (tile order; consumes
  /// the deltas).
  void merge_shard_deltas();

  /// Ring capacity for `ap_count` APs' events (config.trace_capacity wins).
  static std::size_t trace_capacity_for(const NetworkConfig& config,
                                        std::size_t ap_count);

  std::shared_ptr<const CompiledCity> compiled_;
  NetworkConfig config_;
  /// Route-search workspace shared by every planner this network builds
  /// (the member planner_ and the per-send/inject locals): route planning
  /// is coordinator-thread-only, so one unlocked workspace serves them all.
  graphx::AltSearch route_search_;
  RoutePlanner planner_;
  MessageCompiler compiler_;
  /// Every agent's mutable state, struct-of-arrays by AP id (core/ap_state).
  /// One slab serves all tile shards: an AP's receptions run only on its own
  /// tile's thread, so tiles never write the same AP's state.
  AgentStateSlab agent_state_;

  // Observability (src/obsx): the coordinator registry holds what happens
  // outside the tiles (originations, merged deliveries, per-send
  // histograms); the coordinator trace receives faultx actions. Handles are
  // cached once — the hot path pays one increment.
  obsx::MetricsRegistry metrics_;
  obsx::TraceBuffer trace_;
  std::uint64_t send_seq_ = 0;  ///< feeds wire::derive_message_id
  obsx::Counter* n_sends_ = nullptr;
  obsx::Counter* n_delivered_ = nullptr;
  obsx::Counter* n_acks_received_ = nullptr;
  obsx::Histogram* h_control_latency_ = nullptr;
  obsx::Histogram* h_header_bits_ = nullptr;
  obsx::Histogram* h_min_hops_ = nullptr;
  obsx::Histogram* h_tx_per_delivery_ = nullptr;

  // Fault state: per-AP status plus degraded-link regions with precomputed
  // per-AP membership (aps are static, regions few).
  std::vector<ApStatus> ap_status_;
  std::size_t aps_up_ = 0;
  std::vector<DegradedRegion> degraded_;
  std::vector<std::vector<char>> degraded_members_;  ///< [region][ap] inside?

  // Registrations keyed by "id-hex@building"; primaries keep the first
  // registration per identity (the home postbox).
  std::unordered_map<std::string, std::shared_ptr<Postbox>> postboxes_;
  std::unordered_map<std::string, std::shared_ptr<Postbox>> primary_postboxes_;

  // Every message's record, keyed by message id: injected flows, the
  // in-flight send, and their acks. Read-only while a window is running
  // (tiles probe it for attribution and ack data); mutated only by the
  // coordinator between windows.
  std::unordered_map<std::uint32_t, Flow> flows_;

  // --- Tiled execution (src/shardx) --------------------------------------
  // shards_ holds the K tile shards (one when shards <= 1). run_until
  // advances them in conservative-lookahead windows — on the worker pool
  // when K >= 2 — and exchanges handoffs at the barriers; cross-thread
  // communication happens only through the fork/join edges, so the engine
  // is TSan-clean by construction. A single tile has no plan, no cut edges,
  // no pool, and one window per control-event gap.
  shardx::TilePlan plan_;
  double lookahead_s_ = sim::kForever;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<shardx::WorkerPool> pool_;  ///< null with a single tile
  sim::SimTime shard_now_ = 0.0;  ///< synchronized window frontier
  // Cross-link CSR: cross_links_[cross_base_[ap] .. cross_base_[ap+1]) are
  // the cut edges leaving `ap`, in plan order.
  std::vector<std::size_t> cross_base_;
  std::vector<shardx::CrossLink> cross_links_;
  // Coordinator-level control events (min-heap on (time, seq)).
  struct ControlEvent {
    sim::SimTime time = 0.0;
    std::uint64_t seq = 0;
    std::function<void()> fn;
  };
  static bool control_after(const ControlEvent& a, const ControlEvent& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
  std::vector<ControlEvent> control_;
  std::uint64_t control_seq_ = 0;
  std::vector<shardx::Handoff<MeshPacket>> handoff_scratch_;
  bool record_handoffs_ = false;
  std::vector<HandoffRecord> handoff_log_;
  std::uint64_t handoffs_exchanged_ = 0;
  double barrier_idle_s_ = 0.0;
  std::vector<std::size_t> window_events_;  ///< per-tile events, scratch
  std::vector<double> window_busy_s_;       ///< per-tile wall clock, scratch
};

}  // namespace citymesh::core
