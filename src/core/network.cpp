#include "core/network.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <utility>

#include "graphx/parallel.hpp"

namespace citymesh::core {

std::string_view to_string(Protocol protocol) {
  switch (protocol) {
    case Protocol::kConduit: return "conduit";
    case Protocol::kQfgeo: return "qfgeo";
  }
  return "?";
}

std::optional<Protocol> protocol_from(std::string_view name) {
  if (name == "conduit") return Protocol::kConduit;
  if (name == "qfgeo") return Protocol::kQfgeo;
  return std::nullopt;
}

std::size_t CityMeshNetwork::trace_capacity_for(const NetworkConfig& config,
                                                std::size_t ap_count) {
  if (config.trace_capacity != 0) return config.trace_capacity;
  // Rough per-send budget: every AP receives, decides, and possibly
  // retransmits; 24 events per AP covers a flood plus an ack with slack.
  return std::max<std::size_t>(std::size_t{1} << 16, 24 * ap_count);
}

CompiledCity::CompiledCity(osmx::City city_in, const BuildingGraphConfig& graph_config,
                           const mesh::PlacementConfig& placement)
    : city(std::move(city_in)), map(compile(graph_config, placement)), aps(*aps_slot_) {}

const BuildingGraph& CompiledCity::compile(const BuildingGraphConfig& graph_config,
                                           const mesh::PlacementConfig& placement) {
  const auto t0 = std::chrono::steady_clock::now();
  compile_cpus = graphx::compile_cpus();
  if (compile_cpus < 2) {
    map_slot_.emplace(city, graph_config);
    aps_slot_.emplace(mesh::sample_aps(city, placement), placement);
  } else {
    // The worker holds one of the caller's CPUs until the building graph
    // is done; the AP build splits its sweeps over all of them and runs
    // each on those idle when it starts.
    std::atomic<std::size_t> lent{1};
    std::exception_ptr map_error;
    std::thread worker{[&] {
      {
        const graphx::CpuShare one{1};
        try {
          map_slot_.emplace(city, graph_config);
        } catch (...) {
          map_error = std::current_exception();
        }
      }
      lent.store(0);
    }};
    try {
      const graphx::CpuShare all{compile_cpus, &lent};
      aps_slot_.emplace(mesh::sample_aps(city, placement), placement);
    } catch (...) {
      worker.join();
      if (map_error) std::rethrow_exception(map_error);
      throw;
    }
    worker.join();
    if (map_error) std::rethrow_exception(map_error);
  }
  compile_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return *map_slot_;
}

std::shared_ptr<const CompiledCity> compile_city(osmx::City city,
                                                 const NetworkConfig& config) {
  return std::make_shared<const CompiledCity>(std::move(city), config.graph,
                                              config.placement);
}

CityMeshNetwork::CityMeshNetwork(const osmx::City& city, NetworkConfig config)
    : CityMeshNetwork(compile_city(city, config), config) {}

CityMeshNetwork::CityMeshNetwork(std::shared_ptr<const CompiledCity> compiled,
                                 NetworkConfig config)
    : compiled_(std::move(compiled)),
      config_(config),
      planner_(compiled_->map, config.conduit, &route_search_),
      compiler_(compiled_->map),
      agent_state_(compiled_->aps.ap_count()),
      trace_(trace_capacity_for(config_, 0)),  // faultx actions only: the floor
      ap_status_(compiled_->aps.ap_count(), ApStatus::kUp),
      aps_up_(compiled_->aps.ap_count()) {
  // QF-Geo mode swaps the compile-once membership machinery to the bounded
  // forwarding region, before any message compiles (src/qfgeo).
  if (config_.protocol == Protocol::kQfgeo) {
    compiler_.set_qfgeo(config_.qfgeo_region);
  }

  // Coordinator registry: what happens outside the tiles. Control events
  // record their scheduling latency here, like a Simulator::schedule_at.
  h_control_latency_ =
      &metrics_.histogram("sim.event_latency_s", obsx::exponential_buckets(1e-4, 4.0, 10));
  n_sends_ = &metrics_.counter("net.sends");
  n_delivered_ = &metrics_.counter("net.delivered");
  n_acks_received_ = &metrics_.counter("net.acks_received");
  h_header_bits_ = &metrics_.histogram("net.header_bits", obsx::linear_buckets(80.0, 20.0, 16));
  h_min_hops_ = &metrics_.histogram("net.min_hops", obsx::linear_buckets(1.0, 1.0, 32));
  h_tx_per_delivery_ =
      &metrics_.histogram("net.tx_per_delivery", obsx::exponential_buckets(1.0, 2.0, 12));
  build_tiles();
}

void CityMeshNetwork::bind_qfgeo_counters(Shard& shard) {
  // Registered only under Protocol::kQfgeo, following the relayx precedent:
  // snapshot() serializes every registered counter, and conduit manifests
  // must stay byte-identical to the pre-qfgeo pipeline (golden digest gate).
  if (config_.protocol != Protocol::kQfgeo) return;
  shard.qf_candidates = &shard.metrics.counter("qfgeo.candidates");
  shard.qf_fired = &shard.metrics.counter("qfgeo.fired");
  shard.qf_cancelled = &shard.metrics.counter("qfgeo.cancelled");
  shard.qf_no_progress = &shard.metrics.counter("qfgeo.no_progress");
  shard.qf_fallback_floods = &shard.metrics.counter("qfgeo.fallback_floods");
}

void CityMeshNetwork::build_tiles() {
  const std::size_t tiles = std::max<std::size_t>(config_.shards, 1);
  if (tiles > 1) {
    plan_ = shardx::plan_tiles(compiled_->map.centroid_grid(), compiled_->map.building_count(),
                               compiled_->aps, tiles, config_.tiling);
    const double min_serialization_s =
        config_.medium.bitrate_bps > 0.0
            ? static_cast<double>(config_.medium.frame_overhead_bits) /
                  config_.medium.bitrate_bps
            : config_.medium.tx_delay_s;
    lookahead_s_ = shardx::lookahead_s(plan_.cross, min_serialization_s,
                                       config_.medium.prop_delay_s_per_m);

    // Cross-link CSR by transmitter (counting sort keeps plan order per AP).
    cross_base_.assign(aps().ap_count() + 1, 0);
    for (const shardx::CrossLink& link : plan_.cross) ++cross_base_[link.from + 1];
    for (std::size_t i = 1; i < cross_base_.size(); ++i) cross_base_[i] += cross_base_[i - 1];
    cross_links_.resize(plan_.cross.size());
    std::vector<std::size_t> cursor{cross_base_.begin(), cross_base_.end() - 1};
    for (const shardx::CrossLink& link : plan_.cross) cross_links_[cursor[link.from]++] = link;
  }

  // The policy draws from the network seed, so policy draws follow the
  // run's determinism contract.
  relayx::PolicyConfig relay = config_.relay;
  relay.seed = config_.seed;

  shards_.reserve(tiles);
  for (shardx::TileId tile = 0; tile < tiles; ++tile) {
    const std::size_t tile_aps = tiles > 1 ? plan_.tile_aps[tile].size() : aps().ap_count();
    auto s = std::make_unique<Shard>(*this, tile, aps(), config_.medium,
                                     trace_capacity_for(config_, tile_aps));
    s->h_latency = &s->metrics.histogram("sim.event_latency_s",
                                         obsx::exponential_buckets(1e-4, 4.0, 10));
    // Quantized sums make the per-shard accumulation exact, so the merged
    // latency sum depends only on the multiset of recorded delays — not on
    // how the tiling happened to interleave them. 2^-30 s (~1 ns) is far
    // below the medium's delay resolution; exactness holds up to 2^23
    // accumulated seconds.
    s->h_latency->set_sum_quantum(0x1p-30);
    s->sim.set_latency_histogram(s->h_latency);
    // The shard is the medium's owner (its hooks are in network.hpp).
    sim::BroadcastMedium<MeshPacket, Shard>& medium = s->medium;
    if (tiles > 1) {
      // The tile filter skips cross-tile neighbors; remote_fanout covers
      // exactly those cut edges. A filtered walk visits the same edges in
      // the same order as per-tile subgraph copies would (test_metromem
      // pins the parity).
      medium.set_tile_filter(plan_.ap_tile.data(), tile);
    }
    // The medium's tally is the medium.* metric set; it stamps trace events
    // with the packet's decoded message id and charges airtime by the
    // packet's wire size (contention model).
    medium.bind_metrics(s->metrics);
    medium.set_trace(&s->trace);
    // Rebroadcast policy (src/relayx). The relayx.* counters are bound for
    // non-flood policies only, mirroring the MessageCompiler precedent:
    // snapshot() serializes every registered counter, and flood manifests
    // must stay byte-identical to the pre-relayx pipeline.
    s->policy = relayx::make_policy(relay, compiled_->aps);
    if (s->policy->kind() != relayx::PolicyKind::kFlood) {
      s->policy->bind_metrics(s->metrics);
    }
    // Duplicates are settled at fan-out only where nothing can act on one:
    // qfgeo arms greedy copies that duplicates cancel, and so may policies.
    s->settler = config_.protocol == Protocol::kConduit && s->policy->ignores_duplicates();
    if (s->settler && first_arrival_.empty()) first_arrival_.resize(aps().ap_count());
    s->n_rebroadcasts = &s->metrics.counter("net.rebroadcasts");
    s->n_dup_suppressed = &s->metrics.counter("net.dup_suppressed");
    s->n_conduit_rejects = &s->metrics.counter("net.conduit_rejects");
    s->n_postbox_stores = &s->metrics.counter("net.postbox_stores");
    s->n_acks_sent = &s->metrics.counter("net.acks_sent");
    s->n_suppression_cancelled = &s->metrics.counter("net.suppression_cancelled");
    bind_qfgeo_counters(*s);
    shards_.push_back(std::move(s));
  }
  if (tiles == 1) return;
  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  pool_ = std::make_unique<shardx::WorkerPool>(std::min(tiles, hw) - 1);
}

TraceRoles roles_from_trace(std::span<const obsx::TraceEvent> events,
                            std::uint32_t message_id) {
  TraceRoles roles;
  std::unordered_set<std::uint32_t> txed;
  std::vector<std::uint32_t> rx_order;
  std::unordered_set<std::uint32_t> rxed;
  for (const obsx::TraceEvent& e : events) {
    if (e.packet != message_id) continue;
    if (e.kind == obsx::TraceKind::kTx) {
      if (txed.insert(e.node).second) roles.rebroadcast.push_back(e.node);
    } else if (e.kind == obsx::TraceKind::kRx) {
      if (rxed.insert(e.node).second) rx_order.push_back(e.node);
    }
  }
  for (const std::uint32_t node : rx_order) {
    if (!txed.contains(node)) roles.received_only.push_back(node);
  }
  return roles;
}

namespace {

std::string registry_key(const cryptox::SelfCertifyingId& id, BuildingId building) {
  return id.hex() + "@" + std::to_string(building);
}

}  // namespace

std::shared_ptr<Postbox> CityMeshNetwork::register_postbox(const PostboxInfo& info) {
  const auto& building_aps = aps().aps_of_building(info.building);
  if (building_aps.empty()) return nullptr;
  // Idempotent per (identity, building): re-registering returns the same box.
  const std::string key = registry_key(info.id, info.building);
  if (const auto it = postboxes_.find(key); it != postboxes_.end()) return it->second;

  auto box = std::make_shared<Postbox>(info.id);
  for (const mesh::ApId id : building_aps) agent_state_.host_postbox(id, box);
  postboxes_[key] = box;
  primary_postboxes_.try_emplace(info.id.hex(), box);
  return box;
}

std::shared_ptr<Postbox> CityMeshNetwork::postbox_of(
    const cryptox::SelfCertifyingId& id) const {
  const auto it = primary_postboxes_.find(id.hex());
  return it == primary_postboxes_.end() ? nullptr : it->second;
}

std::shared_ptr<Postbox> CityMeshNetwork::postbox_at(
    const cryptox::SelfCertifyingId& id, BuildingId building) const {
  const auto it = postboxes_.find(registry_key(id, building));
  return it == postboxes_.end() ? nullptr : it->second;
}

void CityMeshNetwork::transmit_counted(Shard& shard, mesh::ApId from,
                                       const std::shared_ptr<const MeshPacket>& packet) {
  // An AP that went down after queuing this rebroadcast (backoff, ack) stays
  // silent: the medium's node filter blocks it, counts it under
  // medium.blocked_transmissions (not transmissions), and traces the drop.
  shard.medium.transmit(from, packet);
}

void CityMeshNetwork::clear_pending_relays() {
  for (const auto& sp : shards_) {
    for (const auto& [key, relay] : sp->pending) sp->sim.cancel(relay.event);
    sp->pending.clear();
  }
}

void CityMeshNetwork::require_any_control(const char* what) const {
  if (in_injection_) {
    throw std::logic_error(std::string{what} +
                           ": called inside a control event declared ControlClass::kInjection");
  }
}

void CityMeshNetwork::set_ap_status(mesh::ApId id, ApStatus status) {
  require_any_control("set_ap_status");
  ApStatus& slot = ap_status_.at(id);
  if (slot == status) return;
  slot = status;
  aps_up_ += status == ApStatus::kUp ? 1 : -1;
}

std::optional<mesh::ApId> CityMeshNetwork::live_ap(BuildingId building) const {
  const auto rep = aps().representative_ap(city(), building);
  if (!rep) return std::nullopt;
  if (ap_up(*rep)) return rep;
  const geo::Point centroid = city().building(building).centroid;
  std::optional<mesh::ApId> best;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (const mesh::ApId id : aps().aps_of_building(building)) {
    if (!ap_up(id)) continue;
    const double d2 = geo::distance2(aps().ap(id).position, centroid);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = id;
    }
  }
  return best;
}

std::size_t CityMeshNetwork::add_degraded_region(geo::Polygon region, double extra_loss) {
  require_any_control("add_degraded_region");
  std::vector<char> members(aps().ap_count(), 0);
  for (const auto& ap : aps().aps()) {
    members[ap.id] = region.contains(ap.position) ? 1 : 0;
  }
  degraded_.push_back({std::move(region), extra_loss, /*active=*/true});
  degraded_members_.push_back(std::move(members));
  refresh_degraded();
  return degraded_.size() - 1;
}

void CityMeshNetwork::set_degraded_region_active(std::size_t handle, bool active) {
  require_any_control("set_degraded_region_active");
  degraded_.at(handle).active = active;
  refresh_degraded();
}

void CityMeshNetwork::refresh_degraded() {
  // A link whose ends are both unflagged avoids every active region, so
  // its extra loss is exactly 0 and the medium need not ask for it.
  degraded_active_ = false;
  degraded_ap_.assign(aps().ap_count(), 0);
  for (std::size_t r = 0; r < degraded_.size(); ++r) {
    if (!degraded_[r].active) continue;
    degraded_active_ = true;
    for (std::size_t ap = 0; ap < degraded_ap_.size(); ++ap) {
      degraded_ap_[ap] |= static_cast<std::uint8_t>(degraded_members_[r][ap] != 0);
    }
  }
}

double CityMeshNetwork::extra_link_loss(mesh::ApId from, mesh::ApId to) const {
  if (degraded_.empty()) return 0.0;
  double pass = 1.0;
  for (std::size_t r = 0; r < degraded_.size(); ++r) {
    if (!degraded_[r].active) continue;
    if (degraded_members_[r][from] || degraded_members_[r][to]) {
      pass *= 1.0 - degraded_[r].extra_loss;
    }
  }
  return 1.0 - pass;
}

void CityMeshNetwork::send_ack_from(Shard& shard, mesh::ApId ap, const Flow& flow) {
  // The ack originates at the delivering AP, so the sent/delivered flags are
  // shard-local (building-atomic tiling puts every delivery of one message
  // on one tile); merge_shard_deltas() folds them into the records.
  shard.flow_deltas[flow.slot].ack_sent = true;
  const double now = shard.sim.now();
  const std::uint32_t ack_id = flow.state.ack_message_id;
  shard.n_acks_sent->inc();
  shard.trace.record(obsx::TraceKind::kAck, now, ap, ack_id);
  // The originating AP marks the ack as seen (it may also deliver when the
  // sender and recipient share a building) and always transmits it.
  const AgentAction action = agent_at(ap).on_receive(*flow.ack, now);
  if (action.delivered && action.message_id == ack_id) {
    shard.flow_deltas[flow.ack->flow_slot].deliver(action.delivered_count, now);
  }
  transmit_counted(shard, ap, flow.ack);
}

void CityMeshNetwork::record_delivery(Shard& s, mesh::ApId ap, const AgentAction& action,
                                      double now) {
  s.n_postbox_stores->inc(action.delivered_count);
  s.trace.record(obsx::TraceKind::kPostboxStore, now, static_cast<std::uint32_t>(ap),
                 action.message_id, static_cast<std::uint32_t>(action.delivered_count));
  // flows_ is read-only while windows run; shards write their deltas and
  // merge_shard_deltas() folds them in afterwards (counter values are only
  // observed after runs, so the totals agree).
  const auto it = flows_.find(action.message_id);
  if (it == flows_.end()) return;
  FlowDelta& delta = s.flow_deltas[it->second.slot];
  delta.deliver(action.delivered_count, now);
  if (it->second.state.ack_message_id != 0 && !delta.ack_sent) {
    send_ack_from(s, ap, it->second);
  }
}

void CityMeshNetwork::handle_delivery(Shard& s, sim::NodeId to, sim::NodeId from,
                                      const std::shared_ptr<const MeshPacket>& packet) {
  const double now = s.sim.now();
  const AgentAction action = agent_at(to).on_receive(*packet, now);
  if (action.malformed) {
    // Counted by the compiler (malformed_drops()); traced here so corrupt
    // receptions are visible in the event stream instead of vanishing.
    s.trace.record(obsx::TraceKind::kMalformed, now,
                   static_cast<std::uint32_t>(to), packet->trace_id);
    return;
  }

  const auto node = static_cast<std::uint32_t>(to);
  // Link-quality observation hook (etx-priority); a no-op for the others.
  // Every reception AT an AP happens on its own tile, so the per-AP link
  // estimates are complete on the shard policy.
  s.policy->observe({to, from, action.message_id, now});
  if (action.duplicate) {
    s.n_dup_suppressed->inc();
    s.trace.record(obsx::TraceKind::kDupSuppressed, now, node,
                   action.message_id, static_cast<std::uint32_t>(from));
    // Overhear-cancel: this AP holds a pending (backoff-delayed) copy of the
    // same message; the policy judges whether the overheard transmission
    // makes it redundant (same-building radius, copy counter, ...).
    if (!s.pending.empty()) {
      const std::uint64_t key = (std::uint64_t{action.message_id} << 32) | to;
      if (const auto it = s.pending.find(key); it != s.pending.end()) {
        ++it->second.overheard;
        bool cancel;
        if (it->second.greedy) {
          // QF-Geo positional overhear-cancel: a transmitter at least as
          // close to the destination just covered this copy's progress, so
          // the pending forward is redundant. AP positions are immutable,
          // so the test is shard-safe and draw-free.
          const CompiledMessage* msg = packet->compiled.get();
          cancel = true;  // unattributable duplicate: yield conservatively
          if (msg != nullptr && !msg->header.waypoints.empty()) {
            const geo::Point dst =
                compiled_->map.centroid(msg->header.waypoints.back());
            cancel = geo::distance(aps().ap(from).position, dst) <=
                     geo::distance(aps().ap(to).position, dst);
          }
          if (cancel && s.qf_cancelled != nullptr) s.qf_cancelled->inc();
        } else {
          cancel = s.policy->cancel_on_overhear({to, from, action.message_id, now},
                                                it->second.overheard);
        }
        if (cancel) {
          s.sim.cancel(it->second.event);
          s.pending.erase(it);
          s.n_suppression_cancelled->inc();
          s.trace.record(obsx::TraceKind::kSuppressed, now, node,
                         action.message_id, static_cast<std::uint32_t>(from));
        }
      }
    }
    return;
  }

  // The first accepted copy: the seen marker lets every later reception of
  // the message here settle on one load.
  if (!first_arrival_.empty()) first_arrival_[to] = {action.message_id, sim::kForever};
  if (action.delivered) record_delivery(s, to, action, now);

  if (action.rebroadcast) {
    s.n_rebroadcasts->inc();
    s.trace.record(obsx::TraceKind::kRebroadcast, now, node, action.message_id);
    // QF-Geo networks route in-region receptions through the greedy
    // forwarding election; geo-broadcast floods stay on the policy path
    // (suppression applies only to flood-mode receptions).
    if (config_.protocol == Protocol::kQfgeo &&
        !(action.flags & static_cast<std::uint8_t>(wire::PacketFlag::kBroadcast))) {
      qfgeo_forward(s, to, from, action, now, packet);
    } else {
      policy_relay(s, to, action.message_id, from, now, packet);
    }
  } else {
    s.n_conduit_rejects->inc();
    s.trace.record(obsx::TraceKind::kConduitReject, now, node, action.message_id);
  }
}

void CityMeshNetwork::policy_relay(Shard& s, mesh::ApId to, std::uint32_t message_id,
                                   mesh::ApId from, double now,
                                   const std::shared_ptr<const MeshPacket>& packet) {
  const auto node = static_cast<std::uint32_t>(to);
  const relayx::Decision decision = s.policy->elect({to, from, message_id, now});
  switch (decision.kind) {
    case relayx::Decision::Kind::kRelayNow:
      transmit_counted(s, to, packet);
      break;
    case relayx::Decision::Kind::kDelay: {
      const std::uint64_t key = (std::uint64_t{message_id} << 32) | to;
      s.trace.record(obsx::TraceKind::kElected, now, node, message_id);
      Shard* sp = &s;
      const auto event =
          s.sim.schedule_cancelable_in(decision.delay_s, [this, sp, to, packet, key] {
            sp->pending.erase(key);
            sp->policy->count_fired();
            transmit_counted(*sp, to, packet);
          });
      s.pending[key] = {event, 0};
      break;
    }
    case relayx::Decision::Kind::kSuppress:
      s.trace.record(obsx::TraceKind::kSuppressed, now, node, message_id);
      break;
  }
}

bool CityMeshNetwork::qfgeo_local_minimum(mesh::ApId from, const CompiledMessage& msg,
                                          geo::Point dst) const {
  const double from_d = geo::distance(aps().ap(from).position, dst);
  for (const graphx::VertexId to : aps().graph().neighbors(from)) {
    const mesh::AccessPoint& n = aps().ap(to);
    if (!ap_up(n.id)) continue;
    if (!msg.conduit_member(n.building)) continue;
    if (geo::distance(n.position, dst) < from_d) return false;
  }
  return true;
}

void CityMeshNetwork::qfgeo_forward(Shard& s, mesh::ApId to, mesh::ApId from,
                                    const AgentAction& action, double now,
                                    const std::shared_ptr<const MeshPacket>& packet) {
  const auto node = static_cast<std::uint32_t>(to);
  // Network-built packets always carry their compiled message, and
  // action.rebroadcast implies in-region membership, which implies valid,
  // non-empty waypoints — the destination is always resolvable here.
  const CompiledMessage& msg = *packet->compiled;
  const geo::Point dst = compiled_->map.centroid(msg.header.waypoints.back());
  const double my_d = geo::distance(aps().ap(to).position, dst);
  const double from_d = geo::distance(aps().ap(from).position, dst);

  if (my_d < from_d) {
    // Positive progress: arm the contention-based greedy election. The
    // delay is a pure function of (geometry, own queue depth) — no RNG
    // draws, and the queue is read from this AP's own shard medium — so
    // tiled runs stay shard-invariant. The closest (least-loaded) receiver
    // fires first; everyone else cancels on overhearing its copy.
    const double delay = qfgeo::forward_delay(config_.qfgeo_forward, my_d, from_d,
                                              s.medium.queued(to));
    const std::uint64_t key = (std::uint64_t{action.message_id} << 32) | to;
    s.trace.record(obsx::TraceKind::kElected, now, node, action.message_id);
    s.qf_candidates->inc();
    Shard* sp = &s;
    const auto event = s.sim.schedule_cancelable_in(delay, [this, sp, to, packet, key] {
      sp->pending.erase(key);
      sp->qf_fired->inc();
      transmit_counted(*sp, to, packet);
    });
    s.pending[key] = {event, 0, /*greedy=*/true};
    return;
  }

  // No progress. If the transmitter is a local minimum — no live in-region
  // neighbor closer to the destination — greedy is stuck and the region
  // falls back to a scoped flood: every in-region receiver relays through
  // the relayx policy (one recovery ring; greedy resumes at any receiver
  // that makes progress relative to the ring's transmitters). Otherwise
  // some sibling made progress and this copy dies here.
  if (qfgeo_local_minimum(from, msg, dst)) {
    s.qf_fallback_floods->inc();
    policy_relay(s, to, action.message_id, from, now, packet);
    return;
  }
  s.qf_no_progress->inc();
  s.trace.record(obsx::TraceKind::kSuppressed, now, node, action.message_id);
}

// --- Run driving (src/shardx) ---------------------------------------------

void CityMeshNetwork::schedule_control(sim::SimTime at, std::function<void()> fn,
                                       ControlClass what) {
  if (at < shard_now_) {
    throw std::runtime_error("schedule_control: time is in the past");
  }
  h_control_latency_->record(at - shard_now_);
  control_.push_back({at, control_seq_++, std::move(fn), what});
  std::push_heap(control_.begin(), control_.end(), control_after);
  if (what == ControlClass::kAny) {
    any_control_times_.push_back(at);
    std::push_heap(any_control_times_.begin(), any_control_times_.end(), std::greater<>{});
  }
}

std::size_t CityMeshNetwork::events_processed() const {
  std::size_t events = controls_run_;
  for (const auto& sp : shards_) events += sp->sim.events_processed();
  return events;
}

std::size_t CityMeshNetwork::run_until(sim::SimTime until, std::size_t max_events) {
  std::size_t executed = 0;
  while (executed < max_events) {
    // Barrier exchange first: outboxes may hold handoffs created outside any
    // window — by the synchronous source transmission in originate, by
    // a control-event handler, or by the last window before a max_events
    // exit. They must be scheduled into their receiving tiles before
    // `earliest` is computed (they may BE the earliest event) and before the
    // quiesce decision below (an undelivered handoff is pending work).
    exchange_handoffs();
    const sim::SimTime control_t = control_.empty() ? sim::kForever : control_.front().time;
    sim::SimTime earliest = sim::kForever;
    for (const auto& sp : shards_) earliest = std::min(earliest, sp->sim.next_time());
    const sim::SimTime next = std::min(control_t, earliest);
    if (next > until || next >= sim::kForever) {
      // Quiesced before the horizon (or nothing left at all): advance every
      // tile clock to the horizon, mirroring Simulator::run on an empty
      // queue, so a later schedule_control lands in the present.
      if (until < sim::kForever) {
        for (const auto& sp : shards_) sp->sim.advance_to(until);
        if (until > shard_now_) shard_now_ = until;
      }
      break;
    }
    if (control_t <= earliest) {
      // Coordinator events run between windows with every tile synchronized
      // to exactly their time: the handler may touch any network state
      // (inject flows, flip AP status, read merged outcomes).
      for (const auto& sp : shards_) sp->sim.advance_to(control_t);
      shard_now_ = control_t;
      merge_shard_deltas();
      while (!control_.empty() && control_.front().time <= control_t) {
        std::pop_heap(control_.begin(), control_.end(), control_after);
        ControlEvent ev = std::move(control_.back());
        control_.pop_back();
        if (ev.what == ControlClass::kAny) {
          // Events run in time order, so this one holds the earliest time.
          std::pop_heap(any_control_times_.begin(), any_control_times_.end(),
                        std::greater<>{});
          any_control_times_.pop_back();
        }
        // The flag covers this event only: a run nested inside it (a send
        // from an injection) runs its own kAny events unrestricted.
        const bool outer = in_injection_;
        in_injection_ = ev.what == ControlClass::kInjection;
        try {
          ev.fn();
        } catch (...) {
          in_injection_ = outer;
          throw;
        }
        in_injection_ = outer;
        ++executed;
        ++controls_run_;
      }
      continue;
    }
    // One conservative window [earliest, end): every handoff created inside
    // arrives >= lookahead later, i.e. at or beyond the window end, so the
    // tiles run the window independently in parallel.
    const sim::SimTime cap = std::min(until, control_t);
    const sim::SimTime end =
        lookahead_s_ >= sim::kForever ? cap : std::min(cap, earliest + lookahead_s_);
    const std::size_t budget = max_events - executed;
    // Duplicates may settle up to the next control event that may change AP
    // status, tracing or degraded regions: before it, nothing that settling
    // depends on changes (Shard::settle). Injections in between run
    // between windows and only add receptions.
    const sim::SimTime horizon =
        std::min(until, any_control_times_.empty() ? sim::kForever : any_control_times_.front());
    for (const auto& sp : shards_) {
      sp->settle_before = sp->settler && !sp->trace.enabled() ? horizon : -sim::kForever;
    }
    ++windows_;
    if (shards_.size() == 1) {
      executed += shards_.front()->sim.run(end, budget);
    } else {
      window_events_.assign(shards_.size(), 0);
      window_busy_s_.assign(shards_.size(), 0.0);
      pool_->run(shards_.size(), [&](std::size_t i) {
        const auto t0 = std::chrono::steady_clock::now();
        window_events_[i] = shards_[i]->sim.run(end, budget);
        window_busy_s_[i] =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      });
      for (const std::size_t c : window_events_) executed += c;
      // Barrier-idle accounting: every tile waits for the slowest one before
      // the handoff exchange, so the window's idle cost is the gap each tile
      // leaves to the maximum.
      double slowest = 0.0;
      for (const double b : window_busy_s_) slowest = std::max(slowest, b);
      for (const double b : window_busy_s_) barrier_idle_s_ += slowest - b;
    }
    for (const auto& sp : shards_) sp->settle_before = -sim::kForever;
    if (end > shard_now_) shard_now_ = end;
  }
  merge_shard_deltas();
  return executed;
}

sim::SimTime CityMeshNetwork::next_event_time() const {
  sim::SimTime next = control_.empty() ? sim::kForever : control_.front().time;
  for (const auto& sp : shards_) {
    next = std::min(next, sp->sim.next_time());
    for (const auto& h : sp->outbox) next = std::min(next, h.time);
  }
  return next;
}

void CityMeshNetwork::exchange_handoffs() {
  handoff_scratch_.clear();
  for (const auto& sp : shards_) {
    if (sp->outbox.empty()) continue;
    handoff_scratch_.insert(handoff_scratch_.end(),
                            std::make_move_iterator(sp->outbox.begin()),
                            std::make_move_iterator(sp->outbox.end()));
    sp->outbox.clear();
  }
  if (handoff_scratch_.empty()) return;
  // (time, src_tile, seq) is a total order independent of worker scheduling,
  // so the ingestion sequence — and with it every receiving-side seq number —
  // is deterministic.
  std::sort(handoff_scratch_.begin(), handoff_scratch_.end(),
            shardx::handoff_before<MeshPacket>);
  for (shardx::Handoff<MeshPacket>& h : handoff_scratch_) {
    ++handoffs_exchanged_;
    if (record_handoffs_) {
      handoff_log_.push_back(
          {h.time, h.src_tile, h.seq, static_cast<mesh::ApId>(h.to),
           static_cast<mesh::ApId>(h.from), h.packet->trace_id});
    }
    Shard* dsp = shards_[plan_.ap_tile[h.to]].get();
    const sim::NodeId to = h.to;
    const sim::NodeId from = h.from;
    // Latency was recorded on the transmitting shard (remote_fanout), like a
    // local delivery's schedule_in; unrecorded here avoids double counting.
    // The receiving medium delivers it like one of its own batch entries.
    dsp->sim.schedule_at_unrecorded(h.time, [dsp, to, from, packet = std::move(h.packet)] {
      dsp->medium.deliver(to, from, packet);
    });
  }
  handoff_scratch_.clear();
}

void CityMeshNetwork::remote_fanout(Shard& shard, sim::NodeId from,
                                    const std::shared_ptr<const MeshPacket>& packet,
                                    sim::SimTime air, std::uint32_t tx_index) {
  const double now = shard.sim.now();
  for (std::size_t i = cross_base_[from]; i < cross_base_[from + 1]; ++i) {
    const shardx::CrossLink& link = cross_links_[i];
    // The medium's own link_fate, keyed on the sender's tx index: a cut edge
    // suffers exactly the fate it would as a tile-local edge, whatever K is.
    const std::optional<sim::SimTime> delay =
        shard.medium.link_fate(from, link.to, link.length_m, air, tx_index, packet->trace_id);
    if (!delay) continue;
    shard.h_latency->record(*delay);
    shard.outbox.push_back({now + *delay, shard.tile, shard.handoff_seq++, link.to, from,
                            packet});
  }
}

void CityMeshNetwork::merge_shard_deltas() {
  for (const auto& sp : shards_) {
    for (std::size_t slot = 0; slot < flow_slots_.size(); ++slot) {
      Flow* const flow = flow_slots_[slot].flow;
      if (flow == nullptr) continue;  // a free slot's delta stays empty
      const FlowDelta fd = std::exchange(sp->flow_deltas[slot], FlowDelta{});
      FlowState& fs = flow->state;
      fs.postboxes_reached += fd.postboxes_reached;
      fs.transmissions += fd.transmissions;
      if (!fd.delivered) continue;
      if (fs.delivered) {
        // Geo-broadcasts deliver on several tiles; first delivery wins, as
        // in global event order.
        fs.delivery_time_s = std::min(fs.delivery_time_s, fd.delivery_time_s);
        continue;
      }
      fs.delivered = true;
      fs.delivery_time_s = fd.delivery_time_s;
      const std::uint32_t acked = flow->ack_of;
      if (acked == 0) {
        n_delivered_->inc();
        continue;
      }
      n_acks_received_->inc();
      if (const auto msg = flows_.find(acked); msg != flows_.end()) {
        msg->second.state.ack_received = true;
      }
    }
  }
}

CityMeshNetwork::Flow& CityMeshNetwork::open_flow(std::uint32_t message_id) {
  const auto [it, inserted] = flows_.try_emplace(message_id);
  Flow& flow = it->second;
  if (!inserted) return flow;
  if (free_flow_slots_.empty()) {
    flow.slot = static_cast<std::uint32_t>(flow_slots_.size());
    flow_slots_.emplace_back();
    for (const auto& sp : shards_) sp->flow_deltas.resize(flow_slots_.size());
  } else {
    flow.slot = free_flow_slots_.back();
    free_flow_slots_.pop_back();
  }
  flow_slots_[flow.slot] = {message_id, &flow};
  return flow;
}

void CityMeshNetwork::close_flow(std::unordered_map<std::uint32_t, Flow>::iterator record) {
  flow_slots_[record->second.slot] = {};
  free_flow_slots_.push_back(record->second.slot);
  flows_.erase(record);
}

void CityMeshNetwork::clear_flow_states() {
  flows_.clear();
  flow_slots_.clear();
  free_flow_slots_.clear();
  for (const auto& sp : shards_) sp->flow_deltas.clear();
}

obsx::MetricsSnapshot CityMeshNetwork::merged_metrics() const {
  // Tile order: merge() sums counters and bucket-wise histograms, and every
  // tile registers the same keys, so the merged key set is the same for
  // every K. Shard snapshots are combined with each other first: their
  // quantized histogram sums add exactly, so the cross-shard total is
  // identical for every K, and only then is that one exact total added to
  // the coordinator's sum.
  obsx::MetricsSnapshot snap = metrics_.snapshot();
  obsx::MetricsSnapshot across;
  for (const auto& sp : shards_) across.merge(sp->metrics.snapshot());
  snap.merge(across);
  return snap;
}

std::vector<obsx::TraceEvent> CityMeshNetwork::merged_trace_events() const {
  // The coordinator buffer holds what control events recorded (faultx
  // kApDown/kApUp/region actions); it goes first, so at equal times those
  // land before tile events, as control events run before windows.
  std::vector<obsx::TraceEvent> out = trace_.events();
  for (const auto& sp : shards_) {
    const auto events = sp->trace.events();
    out.insert(out.end(), events.begin(), events.end());
  }
  // Each stream is internally time-ordered; a stable sort on time keeps
  // buffer order for equal-time events — deterministic for a fixed K.
  std::stable_sort(out.begin(), out.end(),
                   [](const obsx::TraceEvent& a, const obsx::TraceEvent& b) {
                     return a.time_s < b.time_s;
                   });
  return out;
}

std::uint64_t CityMeshNetwork::trace_lost() const {
  std::uint64_t lost = trace_.lost();
  for (const auto& sp : shards_) lost += sp->trace.lost();
  return lost;
}

void CityMeshNetwork::set_tracing(bool on) {
  require_any_control("set_tracing");
  trace_.enable(on);
  for (const auto& sp : shards_) sp->trace.enable(on);
}

bool CityMeshNetwork::tracing_enabled() const { return shards_.front()->trace.enabled(); }

CityMeshNetwork::MediumTotals CityMeshNetwork::medium_totals() const {
  MediumTotals totals;
  for (const auto& sp : shards_) {
    totals.transmissions += sp->medium.transmissions();
    totals.deliveries += sp->medium.deliveries();
    totals.settled += sp->medium.settled();
    totals.deferrals += sp->medium.deferrals();
    totals.queue_drops += sp->medium.queue_drops();
    totals.airtime_s += sp->medium.total_airtime_s();
  }
  return totals;
}

bool CityMeshNetwork::originate(
    BuildingId from_building, const PostboxInfo& to, std::span<const std::uint8_t> payload,
    const SendOptions& opts, std::uint8_t extra_flags, std::uint32_t broadcast_radius_m,
    SendOutcome& out) {
  const ConduitConfig conduit{opts.conduit_width.value_or(config_.conduit.width_m)};
  std::optional<PlannedRoute> route;
  if (config_.protocol == Protocol::kQfgeo) {
    // Geographic routing plans no route: the header carries only the source
    // and destination buildings, and the forwarding region is derived from
    // their centroids at compile time (src/qfgeo). The conduit width rides
    // along as a valid wire field but scopes nothing.
    PlannedRoute r;
    r.buildings = {from_building, to.building};
    r.waypoints = {from_building, to.building};
    r.conduit_width_m = conduit.width_m;
    r.header_bits = route_header_bits(r.waypoints, r.conduit_width_m);
    route = std::move(r);
  } else {
    const RoutePlanner planner{compiled_->map, conduit, &route_search_};
    route = opts.compress ? planner.plan(from_building, to.building)
                          : planner.plan_uncompressed(from_building, to.building);
  }
  if (!route) return false;
  out.route_found = true;
  out.route = std::move(*route);

  // The sender's device associates with a *live* AP of its building; when
  // every AP there is down (blackout at the source) origination fails.
  const auto src_ap = live_ap(from_building);
  if (!src_ap) return false;
  out.source_has_ap = true;

  // Build the packet. Message ids derive from (seed, sequence) — stable
  // across runs and independent of unrelated RNG draws, so trace packet ids
  // are reproducible.
  wire::PacketHeader header;
  header.message_id = wire::derive_message_id(config_.seed, ++send_seq_);
  header.postbox_tag = to.id.tag();
  header.conduit_width_m = out.route.conduit_width_m;
  header.waypoints = out.route.waypoints;
  header.flags |= extra_flags;
  header.broadcast_radius_m = broadcast_radius_m;
  if (opts.urgent) header.set_flag(wire::PacketFlag::kUrgent);
  if (opts.request_ack) header.set_flag(wire::PacketFlag::kAckRequest);
  const auto encoded = wire::encode_header(header);
  out.message_id = header.message_id;
  out.header_bits = encoded.bit_count;

  // Open the record (and the ack's) before the first transmission: tiles
  // only read flows_ and the slot table, so everything they attribute must
  // exist up front.
  const double t0 = sim_now();
  Flow& flow = open_flow(header.message_id);
  flow.state.injected_at_s = t0;
  flow.state.source_ap = *src_ap;
  auto packet = std::make_shared<const MeshPacket>(MeshPacket{
      encoded.bytes, std::vector<std::uint8_t>{payload.begin(), payload.end()},
      header.message_id, compiler_.compile_bytes(encoded.bytes), flow.slot});
  if (opts.request_ack && opts.ack_to) {
    // The ack goes back along the reversed route at the same width. It is
    // compiled here, like the message, so the tile that sends it only reads.
    wire::PacketHeader ack_header;
    ack_header.message_id = wire::derive_message_id(config_.seed, ++send_seq_);
    ack_header.postbox_tag = opts.ack_to->id.tag();
    ack_header.conduit_width_m = header.conduit_width_m;
    ack_header.waypoints.assign(header.waypoints.rbegin(), header.waypoints.rend());
    ack_header.set_flag(wire::PacketFlag::kAck);
    const auto ack_encoded = wire::encode_header(ack_header);
    const std::uint32_t ack_id = ack_header.message_id;
    Flow& ack = open_flow(ack_id);
    ack.state.injected_at_s = t0;
    ack.ack_of = header.message_id;
    flow.ack = std::make_shared<const MeshPacket>(
        MeshPacket{ack_encoded.bytes, /*payload=*/{}, ack_id,
                   compiler_.compile_bytes(ack_encoded.bytes), ack.slot});
    flow.state.ack_message_id = ack_id;
    out.ack_message_id = ack_id;
  }

  n_sends_->inc();
  h_header_bits_->record(static_cast<double>(encoded.bit_count));

  // Origination happens at the source AP's shard, so the trace stream and
  // an ack flood stay on that tile (coordinator context: no worker runs).
  Shard& src_shard = shard_for(*src_ap);
  src_shard.trace.record(obsx::TraceKind::kOriginate, t0,
                         static_cast<std::uint32_t>(*src_ap), header.message_id);

  // The source AP processes its own packet (marks it seen, may deliver when
  // sender and recipient share a building) and always performs the initial
  // broadcast.
  const AgentAction first = agent_at(*src_ap).on_receive(*packet, t0);
  if (first.delivered) record_delivery(src_shard, *src_ap, first, t0);
  transmit_counted(src_shard, *src_ap, packet);
  return true;
}

SendOutcome CityMeshNetwork::run_send(BuildingId from_building, const PostboxInfo& to,
                                      std::span<const std::uint8_t> payload,
                                      const SendOptions& opts, std::uint8_t extra_flags,
                                      std::uint32_t broadcast_radius_m,
                                      std::size_t* postboxes_reached) {
  // Per-AP roles are reconstructed from the trace stream; borrow the trace
  // for this send when the caller didn't already turn it on.
  const bool borrow_trace = opts.collect_trace && !tracing_enabled();
  if (borrow_trace) set_tracing(true);
  const std::size_t tx_before = medium_totals().transmissions;
  const double t0 = sim_now();

  SendOutcome outcome;
  if (!originate(from_building, to, payload, opts, extra_flags, broadcast_radius_m,
                 outcome)) {
    if (borrow_trace) set_tracing(false);
    return outcome;
  }
  // Relays an earlier send left pending die here; originate arms none.
  clear_pending_relays();
  run_until(t0 + config_.max_sim_time_s, config_.max_events_per_send);

  // Read the record, then drop it and its ack's: flows_ holds only what is
  // still open after a send. originate opened it, so it is there.
  const auto record = flows_.find(outcome.message_id);
  const FlowState& flow = record->second.state;
  const mesh::ApId src_ap = flow.source_ap;
  outcome.delivered = flow.delivered;
  outcome.delivery_time_s = flow.delivery_time_s;
  outcome.ack_received = flow.ack_received;
  if (postboxes_reached != nullptr) *postboxes_reached = flow.postboxes_reached;
  close_flow(record);
  if (outcome.ack_message_id != 0) {
    if (const auto ack = flows_.find(outcome.ack_message_id); ack != flows_.end()) {
      close_flow(ack);
    }
  }
  // The medium's counter is the single source of truth for transmissions;
  // this send's share is the delta (includes the ack's flood).
  outcome.transmissions = medium_totals().transmissions - tx_before;

  if (opts.collect_trace) {
    // Merge every shard's stream (deterministic order) and filter by
    // message id.
    const auto merged = merged_trace_events();
    TraceRoles roles = roles_from_trace({merged.data(), merged.size()}, outcome.message_id);
    outcome.rebroadcast_aps = std::move(roles.rebroadcast);
    outcome.received_only_aps = std::move(roles.received_only);
    if (borrow_trace) set_tracing(false);
  }

  // Ideal unicast hop count: fewest hops on the static AP graph from the AP
  // the message left from to the closest AP of the destination building.
  // The query is an exact A* on hop count, steered by the radio-range and
  // hop-landmark bounds, so it visits a corridor toward the building, not
  // the ball of that radius around the source AP (its label buffer is still
  // four bytes per AP).
  outcome.min_hops = aps().min_hops(src_ap, aps().aps_of_building(to.building));
  if (outcome.min_hops) h_min_hops_->record(static_cast<double>(*outcome.min_hops));
  if (outcome.delivered) {
    h_tx_per_delivery_->record(static_cast<double>(outcome.transmissions));
  }
  return outcome;
}

SendOutcome CityMeshNetwork::send(BuildingId from_building, const PostboxInfo& to,
                                  std::span<const std::uint8_t> payload,
                                  const SendOptions& opts) {
  return run_send(from_building, to, payload, opts, /*extra_flags=*/0,
                  /*broadcast_radius_m=*/0);
}

InjectResult CityMeshNetwork::inject(BuildingId from_building, const PostboxInfo& to,
                                     std::span<const std::uint8_t> payload,
                                     const SendOptions& opts) {
  SendOutcome out;
  originate(from_building, to, payload, opts, /*extra_flags=*/0, /*broadcast_radius_m=*/0,
            out);
  return {out.route_found, out.source_has_ap, out.message_id, out.header_bits};
}

const FlowState* CityMeshNetwork::flow_state(std::uint32_t message_id) const {
  const auto it = flows_.find(message_id);
  return it == flows_.end() ? nullptr : &it->second.state;
}

ReliableOutcome CityMeshNetwork::send_reliable(BuildingId from_building,
                                               const PostboxInfo& to,
                                               std::span<const std::uint8_t> payload,
                                               const PostboxInfo& ack_to,
                                               std::span<const double> widths) {
  ReliableOutcome result;
  for (const double width : widths) {
    ++result.attempts;
    SendOptions opts;
    opts.conduit_width = width;
    opts.request_ack = true;
    opts.ack_to = ack_to;
    SendOutcome outcome = send(from_building, to, payload, opts);
    result.delivered = result.delivered || outcome.delivered;
    const bool acked = outcome.ack_received;
    result.tries.push_back(std::move(outcome));
    if (acked) {
      result.acknowledged = true;
      break;
    }
  }
  return result;
}

BroadcastOutcome CityMeshNetwork::broadcast(BuildingId from_building,
                                            BuildingId center_building, double radius_m,
                                            std::span<const std::uint8_t> payload,
                                            bool urgent) {
  // A broadcast is addressed to a region, not a postbox: route to the center
  // building and flood the disc around it. The postbox tag is unused (0).
  PostboxInfo region{};
  region.building = center_building;
  SendOptions opts;
  opts.urgent = urgent;
  const auto radius =
      static_cast<std::uint32_t>(std::max(0.0, std::min(radius_m, 100'000.0)));
  BroadcastOutcome outcome;
  SendOutcome raw =
      run_send(from_building, region, payload, opts,
               static_cast<std::uint8_t>(wire::PacketFlag::kBroadcast), radius,
               &outcome.postboxes_reached);
  outcome.route_found = raw.route_found;
  outcome.source_has_ap = raw.source_has_ap;
  outcome.message_id = raw.message_id;
  outcome.transmissions = raw.transmissions;
  outcome.route = std::move(raw.route);
  return outcome;
}

SendOutcome CityMeshNetwork::send_location_update(const PostboxInfo& home,
                                                  BuildingId current_building) {
  const std::array<std::uint8_t, 4> payload{
      static_cast<std::uint8_t>(current_building),
      static_cast<std::uint8_t>(current_building >> 8),
      static_cast<std::uint8_t>(current_building >> 16),
      static_cast<std::uint8_t>(current_building >> 24)};
  SendOptions opts;
  return run_send(current_building, home, payload, opts,
                  static_cast<std::uint8_t>(wire::PacketFlag::kLocationUpdate),
                  /*broadcast_radius_m=*/0);
}

std::size_t CityMeshNetwork::forward_pending(const PostboxInfo& home,
                                             const PostboxInfo& temp) {
  const auto home_box = postbox_at(home.id, home.building);
  if (!home_box) return 0;
  std::size_t arrived = 0;
  for (const auto& stored : home_box->retrieve()) {
    if (stored.flags & static_cast<std::uint8_t>(wire::PacketFlag::kLocationUpdate)) {
      continue;  // housekeeping, not mail
    }
    SendOptions opts;
    opts.urgent = stored.urgent;
    const auto outcome =
        send(home.building, temp,
             {stored.sealed_payload.data(), stored.sealed_payload.size()}, opts);
    if (outcome.delivered) ++arrived;
  }
  return arrived;
}

void CityMeshNetwork::compromise_building(BuildingId building, AgentBehavior behavior) {
  for (const mesh::ApId id : aps().aps_of_building(building)) {
    agent_state_.set_behavior(id, behavior);
  }
}

}  // namespace citymesh::core
