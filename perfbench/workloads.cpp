#include "workloads.hpp"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "core/evaluation.hpp"
#include "core/network.hpp"
#include "cryptox/identity.hpp"
#include "geo/stats.hpp"
#include "obsx/manifest.hpp"
#include "osmx/citygen.hpp"
#include "shardx/tiling.hpp"
#include "trafficx/runner.hpp"
#include "trafficx/workload.hpp"
#include "wire/packet.hpp"

namespace perfbench {

namespace core = citymesh::core;
namespace mesh = citymesh::mesh;
namespace obsx = citymesh::obsx;
namespace osmx = citymesh::osmx;
namespace shardx = citymesh::shardx;
namespace trafficx = citymesh::trafficx;
namespace wire = citymesh::wire;

void Digest::add(std::string name, std::uint64_t value) {
  fields_.emplace_back(std::move(name), std::to_string(value));
}

void Digest::add(std::string name, double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  fields_.emplace_back(std::move(name), buf);
}

std::string Digest::hex() const {
  obsx::Fnv1a h;
  for (const auto& [name, value] : fields_) h.update(name).update("=").update(value).update(";");
  return obsx::hex64(h.digest());
}

std::string Digest::describe() const {
  std::string out;
  for (const auto& [name, value] : fields_) {
    if (!out.empty()) out += ' ';
    out += name + '=' + value;
  }
  return out;
}

namespace {

/// Live heap bytes of the process (in-use malloc chunks).
std::size_t heap_in_use_bytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

using Scope = Tracer::Scope;

double since(Clock::time_point t0) { return seconds_between(t0, Clock::now()); }

/// The draw-free regime: no jitter, no loss, flood relay. Nothing in the
/// simulation draws a random number, so the behavioural digest is exact and
/// does not depend on how the medium draws or on the tile count.
core::NetworkConfig draw_free(core::NetworkConfig config) {
  config.medium.jitter_s = 0.0;
  config.medium.loss_probability = 0.0;
  config.relay = citymesh::relayx::PolicyConfig{};
  return config;
}

/// Set-up layers that compile_city runs back to back, timed one at a time
/// on their own copies (traced set-up only): the building graph, and AP
/// placement with its CSR link graph.
void time_compile_layers(Tracer& tracer, const osmx::City& city,
                         const core::NetworkConfig& config) {
  {
    Scope span(&tracer, "core.building_graph");
    const core::BuildingGraph graph{city, config.graph};
  }
  Scope span(&tracer, "mesh.place_aps");
  const mesh::ApNetwork aps = mesh::place_aps(city, config.placement);
}

void add_city_counts(const core::CompiledCity& compiled, Counts& counts) {
  counts["osmx.buildings"] += static_cast<double>(compiled.city.building_count());
  counts["core.building_edges"] += static_cast<double>(compiled.map.graph().edge_count());
  counts["mesh.aps"] += static_cast<double>(compiled.aps.ap_count());
  counts["mesh.links"] += static_cast<double>(compiled.aps.graph().edge_count());
}

/// Builds a network over `compiled` under a span, and records the heap bytes
/// the finished network holds.
std::unique_ptr<core::CityMeshNetwork> build_network(
    Tracer* tracer, std::shared_ptr<const core::CompiledCity> compiled,
    const core::NetworkConfig& config, Counts& counts) {
  const std::size_t heap_before = heap_in_use_bytes();
  std::unique_ptr<core::CityMeshNetwork> network;
  {
    Scope span(tracer, "core.network_build");
    network = std::make_unique<core::CityMeshNetwork>(std::move(compiled), config);
  }
  const double bytes = static_cast<double>(heap_in_use_bytes()) - static_cast<double>(heap_before);
  counts["mem.network_mib"] += bytes / (1024.0 * 1024.0);
  return network;
}

/// Counters the network exposes after a rep (fresh network: totals = this
/// rep's share).
void add_network_counts(const core::CityMeshNetwork& net, Counts& counts) {
  const obsx::MetricsSnapshot metrics = net.merged_metrics();
  const auto counter = [&](const char* name) {
    const auto it = metrics.counters.find(name);
    return it == metrics.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const core::CityMeshNetwork::MediumTotals medium = net.medium_totals();
  counts["medium.transmissions"] += static_cast<double>(medium.transmissions);
  counts["medium.deliveries"] += static_cast<double>(medium.deliveries);
  counts["medium.deferrals"] += static_cast<double>(medium.deferrals);
  counts["medium.queue_drops"] += static_cast<double>(medium.queue_drops);
  counts["medium.airtime_s"] += medium.airtime_s;
  counts["net.rebroadcasts"] += counter("net.rebroadcasts");
  counts["net.dup_suppressed"] += counter("net.dup_suppressed");
  const auto events = metrics.histograms.find("sim.event_latency_s");
  if (events != metrics.histograms.end()) {
    counts["sim.events"] += static_cast<double>(events->second.total);
  }
  counts["compile.msg_compiles"] += static_cast<double>(net.compiler().msg_compiles());
  counts["compile.header_decodes"] += static_cast<double>(net.compiler().header_decodes());
  counts["shardx.handoffs"] += static_cast<double>(net.handoffs_exchanged());
  counts["shardx.barrier_idle_s"] += net.barrier_idle_s();
}

/// Runs, under spans and through the network's public planner and compiler,
/// the planning and message compile that the network's next send or inject
/// is about to do. The network's own call then finds the route in its shared
/// shortest-path cache and the message in its compiler's memo, so its span
/// keeps only the rest of the origination. after() checks that the call
/// originated the predicted message and compiled nothing itself; a mismatch
/// means this replay is out of step with the library.
class PlanAndCompile {
 public:
  void before(Tracer& tracer, core::CityMeshNetwork& net, core::BuildingId from,
              const core::PostboxInfo& to) {
    expected_id_ = 0;
    std::optional<core::PlannedRoute> route;
    {
      Scope span(&tracer, "core.route_plan");
      route = net.planner().plan(from, to.building);
    }
    ++plans_;
    if (!route) {
      ++no_route_;
    } else if (net.live_ap(from)) {
      Scope span(&tracer, "core.message_compile");
      wire::PacketHeader header;
      header.message_id = wire::derive_message_id(net.config().seed, ++originated_);
      header.postbox_tag = to.id.tag();
      header.conduit_width_m = route->conduit_width_m;
      header.waypoints = route->waypoints;
      net.compiler().compile_bytes(wire::encode_header(header).bytes);
      expected_id_ = header.message_id;
    }
    compiles_ = net.compiler().msg_compiles();
  }

  void after(const core::CityMeshNetwork& net, std::uint32_t message_id) const {
    if (message_id != expected_id_ || net.compiler().msg_compiles() != compiles_) {
      throw std::runtime_error("traced replay is out of step with the network's origination");
    }
  }

  void add_counts(Counts& counts) const {
    counts["core.route_plan_calls"] += static_cast<double>(plans_);
    counts["core.route_plan_no_route"] += static_cast<double>(no_route_);
  }

 private:
  std::uint64_t originated_ = 0;
  std::uint64_t plans_ = 0;
  std::uint64_t no_route_ = 0;
  std::uint32_t expected_id_ = 0;
  std::uint64_t compiles_ = 0;
};

// --- Flow workloads: capacity-hotspot, metro-tiled ---------------------------

struct FlowParams {
  osmx::CityProfile profile;
  core::NetworkConfig network;
  /// duration_s is only the window the Poisson arrivals are drawn from; it
  /// is generous, so it always holds at least `flows` arrivals.
  trafficx::WorkloadSpec spec;
  /// Fixed input size: the run offers exactly the first `flows` arrivals.
  std::size_t flows = 0;
  std::string_view pinned;
};

/// The first `flows` arrivals of the schedule; the offered-load window ends
/// just after the last of them.
trafficx::FlowSchedule first_flows(trafficx::FlowSchedule schedule, std::size_t flows) {
  if (schedule.flows.size() < flows) {
    throw std::runtime_error("arrival window holds fewer flows than the workload offers");
  }
  schedule.flows.resize(flows);
  schedule.spec.duration_s = std::nextafter(schedule.flows.back().start_s,
                                            std::numeric_limits<double>::infinity());
  return schedule;
}

Digest flow_digest(const core::CapacitySummary& s, const core::CityMeshNetwork& net) {
  const core::CityMeshNetwork::MediumTotals medium = net.medium_totals();
  Digest d;
  d.add("offered", static_cast<std::uint64_t>(s.flows_offered));
  d.add("injected", static_cast<std::uint64_t>(s.flows_injected));
  d.add("delivered", static_cast<std::uint64_t>(s.flows_delivered));
  d.add("transmissions", static_cast<std::uint64_t>(medium.transmissions));
  d.add("deliveries", static_cast<std::uint64_t>(medium.deliveries));
  d.add("deferrals", s.deferrals);
  d.add("drops", s.queue_drops);
  d.add("latency_p50_s", s.latency_p50_s);
  d.add("latency_p99_s", s.latency_p99_s);
  return d;
}

class FlowWorkload final : public Workload {
 public:
  explicit FlowWorkload(FlowParams params) : p_(std::move(params)) {}

  double setup(Tracer* tracer, Counts& counts) override {
    compiled_.reset();
    schedule_ = {};
    const auto t0 = Clock::now();
    osmx::City city;
    {
      Scope span(tracer, "osmx.generate_city");
      city = osmx::generate_city(p_.profile);
    }
    if (tracer != nullptr) time_compile_layers(*tracer, city, p_.network);
    {
      Scope span(tracer, "core.compile_city");
      compiled_ = core::compile_city(std::move(city), p_.network);
    }
    if (tracer != nullptr && p_.network.shards > 1) {
      Scope span(tracer, "shardx.plan_tiles");
      const shardx::TilePlan plan =
          shardx::plan_tiles(compiled_->map.centroid_grid(), compiled_->map.building_count(),
                             compiled_->aps, p_.network.shards, p_.network.tiling);
    }
    const auto network = build_network(tracer, compiled_, p_.network, counts);
    {
      Scope span(tracer, "trafficx.compile");
      schedule_ = first_flows(trafficx::compile(p_.spec, compiled_->city), p_.flows);
    }
    const double elapsed = since(t0);

    add_city_counts(*compiled_, counts);
    counts["trafficx.flows"] += static_cast<double>(schedule_.flows.size());
    if (const shardx::TilePlan* plan = network->tile_plan()) {
      std::size_t largest = 0;
      for (const auto& aps : plan->tile_aps) largest = std::max(largest, aps.size());
      counts["shardx.tile_imbalance"] = static_cast<double>(largest) *
                                        static_cast<double>(plan->tile_count) /
                                        static_cast<double>(compiled_->aps.ap_count());
      counts["shardx.lookahead_s"] = network->lookahead_s();
    }
    return elapsed;
  }

  RepResult rep(Tracer* tracer, Counts& counts) override {
    // A fresh network per rep, so every rep starts from the same state. A
    // tiled network starts its worker threads in the constructor; built
    // here, they inherit the CPU placement the caller chose for this rep.
    Counts unused;
    const auto network = build_network(nullptr, compiled_, p_.network, unused);
    core::CityMeshNetwork& net = *network;

    RepResult result;
    core::CapacitySummary summary;
    const auto t0 = Clock::now();
    if (tracer == nullptr) {
      summary = trafficx::run_workload(net, schedule_).summary;
    } else {
      summary = replay(*tracer, net, counts);
    }
    result.run_s = since(t0);

    result.digest = flow_digest(summary, net);
    result.operations = summary.flows_offered;
    result.undelivered = summary.flows_offered - summary.flows_delivered;
    add_network_counts(net, counts);
    return result;
  }

  /// Tiled workloads: the same inputs on the single event loop (K=1) must
  /// give the same digest, since nothing draws a random number.
  void cross_check(const Digest& expected) override {
    if (p_.network.shards <= 1) return;
    core::NetworkConfig sequential = p_.network;
    sequential.shards = 1;
    core::CityMeshNetwork net{compiled_, sequential};
    const core::CapacitySummary summary = trafficx::run_workload(net, schedule_).summary;
    const Digest k1 = flow_digest(summary, net);
    if (!(k1 == expected)) {
      throw std::runtime_error("K=1 digest " + k1.hex() + " (" + k1.describe() +
                               ") differs from the tiled digest " + expected.hex());
    }
  }

  std::size_t threads() const override { return p_.network.shards; }

  std::string_view pinned_digest() const override { return p_.pinned; }

 private:
  /// trafficx::run_workload rebuilt from public calls, with spans.
  core::CapacitySummary replay(Tracer& tracer, core::CityMeshNetwork& net, Counts& counts) {
    const trafficx::RunConfig config;
    const std::vector<trafficx::Flow>& flows = schedule_.flows;
    const core::CityMeshNetwork::MediumTotals before = net.medium_totals();

    std::unordered_map<osmx::BuildingId, core::PostboxInfo> recipients;
    {
      Scope span(&tracer, "core.register_postboxes");
      for (const trafficx::Flow& flow : flows) {
        if (recipients.contains(flow.dst)) continue;
        const auto keys = citymesh::cryptox::KeyPair::from_seed(
            config.postbox_seed ^ (0x9e3779b97f4a7c15ULL * (flow.dst + 1)));
        const auto info = core::PostboxInfo::for_key(keys, flow.dst);
        net.register_postbox(info);
        recipients.emplace(flow.dst, info);
      }
    }

    const double t0 = net.sim_now();
    std::vector<core::FlowRecord> records(flows.size());
    std::vector<std::uint32_t> message_ids(flows.size(), 0);
    std::size_t max_payload = 1;
    for (const trafficx::Flow& flow : flows) max_payload = std::max(max_payload, flow.payload_bytes);
    const std::vector<std::uint8_t> payload(max_payload, 0);
    PlanAndCompile warm;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      records[i].start_s = flows[i].start_s;
      records[i].payload_bytes = flows[i].payload_bytes;
      net.schedule_control(t0 + flows[i].start_s, [&, i] {
        const trafficx::Flow& f = flows[i];
        const core::PostboxInfo& to = recipients.at(f.dst);
        warm.before(tracer, net, f.src, to);
        core::InjectResult inject;
        {
          Scope span(&tracer, "core.inject");
          inject = net.inject(f.src, to, {payload.data(), std::min(f.payload_bytes, payload.size())});
        }
        warm.after(net, inject.message_id);
        if (inject.accepted()) {
          records[i].injected = true;
          message_ids[i] = inject.message_id;
        }
      });
    }
    {
      Scope span(&tracer, "sim.loop");
      net.run_until(t0 + schedule_.spec.duration_s + config.tail_s, config.max_events);
    }

    Scope span(&tracer, "trafficx.summarize");
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (message_ids[i] == 0) continue;
      const core::FlowState* state = net.flow_state(message_ids[i]);
      if (state == nullptr) continue;
      records[i].transmissions = state->transmissions;
      if (!state->delivered) continue;
      records[i].delivered = true;
      records[i].latency_s = state->delivery_time_s - state->injected_at_s;
    }
    net.clear_flow_states();
    warm.add_counts(counts);
    const core::CityMeshNetwork::MediumTotals after = net.medium_totals();
    return core::summarize_capacity(records, schedule_.spec.duration_s,
                                    after.queue_drops - before.queue_drops,
                                    after.deferrals - before.deferrals,
                                    after.airtime_s - before.airtime_s);
  }

  FlowParams p_;
  std::shared_ptr<const core::CompiledCity> compiled_;
  trafficx::FlowSchedule schedule_;
};

/// Arrival window for `flows` Poisson arrivals at `rate`: 1.4x the expected
/// span, so a shortfall is a > 5-sigma event at these sizes.
double arrival_window_s(std::size_t flows, double rate_per_s) {
  return 1.4 * static_cast<double>(flows) / rate_per_s;
}

std::unique_ptr<Workload> capacity_hotspot(std::uint64_t seed) {
  FlowParams p;
  p.profile = osmx::profile_by_name("boston");
  p.network.placement.seed = 7;
  p.network.seed = 99;
  p.network.medium.bitrate_bps = 12.5e3;
  p.network.medium.tx_queue_capacity = 2;
  p.network = draw_free(p.network);
  p.flows = 640;  // 32 flows/s for about 20 s
  p.spec.name = "capacity-hotspot";
  p.spec.seed = seed;
  p.spec.rate_per_s = 32.0;
  p.spec.duration_s = arrival_window_s(p.flows, p.spec.rate_per_s);
  p.spec.spatial = trafficx::SpatialMode::kHotspot;
  p.spec.hotspot_bias = 16.0;
  p.spec.payload_min_bytes = 256;
  p.spec.payload_max_bytes = 512;
  // offered=640 injected=571 delivered=497 transmissions=70662
  // deliveries=1022572 deferrals=11986 drops=349 latency_p50_s=9.61495875
  // latency_p99_s=27.1314591
  p.pinned = "e8606c2da6eff989";
  return std::make_unique<FlowWorkload>(std::move(p));
}

std::unique_ptr<Workload> metro_tiled(std::uint64_t seed) {
  FlowParams p;
  p.profile.name = "metro-xxl";
  p.profile.width_m = 4200;
  p.profile.height_m = 3100;
  p.profile.seed = 101;
  p.network.placement.seed = 7;
  p.network.placement.density_per_m2 = 1.0 / 60.0;
  p.network.seed = 99;
  p.network.medium.bitrate_bps = 250e3;
  p.network.shards = 2;
  p.network.tiling = shardx::TilingMode::kAdaptive;
  p.network = draw_free(p.network);
  p.flows = 240;  // 4 flows/s for about 60 s
  p.spec.name = "metro-tiled";
  p.spec.seed = seed;
  p.spec.rate_per_s = 4.0;
  p.spec.duration_s = arrival_window_s(p.flows, p.spec.rate_per_s);
  p.spec.spatial = trafficx::SpatialMode::kEmergency;
  // offered=240 injected=240 delivered=240 transmissions=117753
  // deliveries=5869079 deferrals=1601 drops=0 latency_p50_s=0.347316593
  // latency_p99_s=1.12342305
  p.pinned = "176f2f6e7c5d8baa";
  return std::make_unique<FlowWorkload>(std::move(p));
}

// --- paper-eval ---------------------------------------------------------------

/// One city's share of a paper-eval rep.
struct CityRun {
  core::CityEvaluation eval;
  std::vector<double> latencies_s;  ///< simulated delivery latency per delivered send
  std::uint64_t transmissions = 0;
};

class PaperEval final : public Workload {
 public:
  explicit PaperEval(std::uint64_t seed) {
    config_.reachability_pairs = 1000;
    config_.deliverability_pairs = 50;
    config_.network = draw_free(config_.network);
    config_.seed = seed;
  }

  double setup(Tracer* tracer, Counts& counts) override {
    cities_.clear();
    std::vector<std::unique_ptr<core::CityMeshNetwork>> networks;  // freed after timing
    const auto t0 = Clock::now();
    for (const osmx::CityProfile& profile : osmx::default_profiles()) {
      osmx::City city;
      {
        Scope span(tracer, "osmx.generate_city");
        city = osmx::generate_city(profile);
      }
      if (tracer != nullptr) time_compile_layers(*tracer, city, config_.network);
      {
        Scope span(tracer, "core.compile_city");
        cities_.push_back(core::compile_city(std::move(city), config_.network));
      }
      networks.push_back(build_network(tracer, cities_.back(), config_.network, counts));
    }
    const double elapsed = since(t0);
    for (const auto& compiled : cities_) add_city_counts(*compiled, counts);
    return elapsed;
  }

  RepResult rep(Tracer* tracer, Counts& counts) override {
    RepResult result;
    last_.clear();
    std::uint64_t deliveries = 0;
    for (const auto& compiled : cities_) {
      Counts unused;
      const auto network = build_network(nullptr, compiled, config_.network, unused);
      const auto t0 = Clock::now();
      last_.push_back(evaluate(tracer, *network, counts));
      result.run_s += since(t0);
      add_network_counts(*network, counts);
      deliveries += network->medium_totals().deliveries;
    }

    std::uint64_t tested = 0, reachable = 0, sends = 0, delivered = 0, transmissions = 0;
    std::vector<double> latencies, overheads, header_bits;
    for (const CityRun& run : last_) {
      tested += run.eval.pairs_tested;
      reachable += run.eval.pairs_reachable;
      sends += run.eval.deliveries_attempted;
      delivered += run.eval.deliveries_succeeded;
      transmissions += run.transmissions;
      latencies.insert(latencies.end(), run.latencies_s.begin(), run.latencies_s.end());
      overheads.insert(overheads.end(), run.eval.overheads.begin(), run.eval.overheads.end());
      header_bits.insert(header_bits.end(), run.eval.header_bits.begin(),
                         run.eval.header_bits.end());
    }
    Digest& d = result.digest;
    d.add("pairs", tested);
    d.add("reachable", reachable);
    d.add("sends", sends);
    d.add("delivered", delivered);
    d.add("transmissions", transmissions);
    d.add("deliveries", deliveries);
    d.add("latency_p50_s", citymesh::geo::quantile(latencies, 0.5));
    d.add("latency_p99_s", citymesh::geo::quantile(latencies, 0.99));
    d.add("overhead_median", citymesh::geo::median(overheads));
    d.add("header_bits_median", citymesh::geo::median(header_bits));
    result.operations = sends;
    result.undelivered = sends - delivered;
    counts["core.sends"] += static_cast<double>(sends);
    return result;
  }

  /// The replayed protocol must agree with core::evaluate_city city by city.
  void cross_check(const Digest&) override {
    for (std::size_t i = 0; i < cities_.size(); ++i) {
      const core::CityEvaluation ref = core::evaluate_city(cities_[i], config_);
      const core::CityEvaluation& got = last_.at(i).eval;
      if (ref.pairs_tested != got.pairs_tested || ref.pairs_reachable != got.pairs_reachable ||
          ref.deliveries_attempted != got.deliveries_attempted ||
          ref.deliveries_succeeded != got.deliveries_succeeded ||
          ref.overheads != got.overheads || ref.header_bits != got.header_bits) {
        throw std::runtime_error("paper-eval replay disagrees with core::evaluate_city on " +
                                 ref.city);
      }
    }
  }

  // pairs=10000 reachable=7565 sends=500 delivered=445 transmissions=63198
  // deliveries=893232 latency_p50_s=0.032004226 latency_p99_s=0.0785705396
  // overhead_median=4.32608696 header_bits_median=176
  std::string_view pinned_digest() const override { return "e3c7f60eac62023b"; }

 private:
  /// The §4 protocol of core::evaluate_city, from public calls: reachability
  /// over random building pairs, then one send at a time to the first
  /// reachable pairs.
  CityRun evaluate(Tracer* tracer, core::CityMeshNetwork& net, Counts& counts) {
    Scope city_span(tracer, "core.evaluate_city");
    CityRun run;
    core::CityEvaluation& eval = run.eval;
    const osmx::City& city = net.city();
    eval.city = city.name();
    struct Pair {
      core::BuildingId a;
      core::BuildingId b;
    };
    std::vector<Pair> reachable;
    citymesh::geo::Rng rng{config_.seed};
    const std::size_t n = city.building_count();
    {
      Scope span(tracer, "core.reachability");
      for (std::size_t i = 0; i < config_.reachability_pairs; ++i) {
        const auto a = static_cast<core::BuildingId>(rng.uniform_int(n));
        auto b = static_cast<core::BuildingId>(rng.uniform_int(n));
        while (b == a) b = static_cast<core::BuildingId>(rng.uniform_int(n));
        ++eval.pairs_tested;
        const auto ap_a = net.aps().representative_ap(city, a);
        const auto ap_b = net.aps().representative_ap(city, b);
        if (ap_a && ap_b && net.aps().connected(*ap_a, *ap_b)) {
          ++eval.pairs_reachable;
          reachable.push_back({a, b});
        }
      }
    }

    static constexpr std::string_view kPayload = "citymesh-eval-payload";
    const std::span<const std::uint8_t> payload{
        reinterpret_cast<const std::uint8_t*>(kPayload.data()), kPayload.size()};
    PlanAndCompile warm;
    const std::size_t to_test = std::min(config_.deliverability_pairs, reachable.size());
    for (std::size_t i = 0; i < to_test; ++i) {
      const auto keys = citymesh::cryptox::KeyPair::from_seed(config_.seed * 7919 + i);
      const core::PostboxInfo info = core::PostboxInfo::for_key(keys, reachable[i].b);
      if (!net.register_postbox(info)) continue;
      ++eval.deliveries_attempted;
      const double sent_at = net.sim_now();
      core::SendOutcome outcome;
      {
        Scope span(tracer, "core.send");
        if (tracer != nullptr) warm.before(*tracer, net, reachable[i].a, info);
        outcome = net.send(reachable[i].a, info, payload);
      }
      if (tracer != nullptr) warm.after(net, outcome.message_id);
      run.transmissions += outcome.transmissions;
      if (outcome.route_found) eval.header_bits.push_back(static_cast<double>(outcome.header_bits));
      if (outcome.delivered) {
        ++eval.deliveries_succeeded;
        run.latencies_s.push_back(outcome.delivery_time_s - sent_at);
        if (const auto oh = outcome.overhead()) eval.overheads.push_back(*oh);
      }
    }
    if (tracer != nullptr) warm.add_counts(counts);
    return run;
  }

  core::EvaluationConfig config_;
  std::vector<std::shared_ptr<const core::CompiledCity>> cities_;
  std::vector<CityRun> last_;
};

}  // namespace

const std::vector<std::string_view>& workload_names() {
  static const std::vector<std::string_view> names = {"capacity-hotspot", "metro-tiled",
                                                      "paper-eval"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed) {
  if (name == "capacity-hotspot") return capacity_hotspot(seed);
  if (name == "metro-tiled") return metro_tiled(seed);
  if (name == "paper-eval") return std::make_unique<PaperEval>(seed);
  throw std::invalid_argument("unknown workload '" + std::string{name} + "'");
}

}  // namespace perfbench
