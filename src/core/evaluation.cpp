#include "core/evaluation.hpp"

#include <algorithm>

#include "geo/stats.hpp"

namespace citymesh::core {

double CityEvaluation::median_overhead() const { return geo::median(overheads); }
double CityEvaluation::median_header_bits() const { return geo::median(header_bits); }

namespace {

CityEvaluation evaluate_with_network(CityMeshNetwork& network,
                                     const EvaluationConfig& config) {
  const osmx::City& city = network.city();
  CityEvaluation eval;
  eval.city = city.name();
  eval.buildings = city.building_count();

  eval.aps = network.aps().ap_count();
  eval.ap_islands = network.aps().components().count;
  for (const std::size_t size : network.aps().components().sizes()) {
    if (size >= 8) ++eval.ap_major_islands;
  }

  geo::Rng rng{config.seed};
  const std::size_t n = city.building_count();
  if (n < 2) return eval;

  // --- Reachability over random unique building pairs --------------------
  struct Pair {
    BuildingId a;
    BuildingId b;
  };
  std::vector<Pair> reachable_pairs;
  for (std::size_t i = 0; i < config.reachability_pairs; ++i) {
    const auto a = static_cast<BuildingId>(rng.uniform_int(n));
    auto b = static_cast<BuildingId>(rng.uniform_int(n));
    while (b == a) b = static_cast<BuildingId>(rng.uniform_int(n));
    ++eval.pairs_tested;

    const auto ap_a = network.aps().representative_ap(city, a);
    const auto ap_b = network.aps().representative_ap(city, b);
    if (ap_a && ap_b && network.aps().connected(*ap_a, *ap_b)) {
      ++eval.pairs_reachable;
      reachable_pairs.push_back({a, b});
    }
  }

  // --- Deliverability on a subset of the reachable pairs -----------------
  const std::size_t to_test = std::min(config.deliverability_pairs, reachable_pairs.size());
  for (std::size_t i = 0; i < to_test; ++i) {
    const Pair pair = reachable_pairs[i];
    // Fresh recipient identity per pair; payloads are opaque to routing so a
    // small fixed blob suffices (sealing is exercised by its own tests).
    const auto keys = cryptox::KeyPair::from_seed(config.seed * 7919 + i);
    const PostboxInfo info = PostboxInfo::for_key(keys, pair.b);
    if (!network.register_postbox(info)) continue;

    static constexpr std::string_view kPayload = "citymesh-eval-payload";
    const std::span<const std::uint8_t> payload{
        reinterpret_cast<const std::uint8_t*>(kPayload.data()), kPayload.size()};
    ++eval.deliveries_attempted;
    const SendOutcome outcome = network.send(pair.a, info, payload);

    if (outcome.route_found) {
      eval.header_bits.push_back(static_cast<double>(outcome.header_bits));
    }
    if (outcome.delivered) {
      ++eval.deliveries_succeeded;
      if (const auto oh = outcome.overhead()) eval.overheads.push_back(*oh);
    }
  }
  eval.metrics = network.merged_metrics();
  return eval;
}

}  // namespace

CityEvaluation evaluate_city(const osmx::City& city, const EvaluationConfig& config) {
  CityMeshNetwork network{city, config.network};
  return evaluate_with_network(network, config);
}

CityEvaluation evaluate_city(std::shared_ptr<const CompiledCity> compiled,
                             const EvaluationConfig& config) {
  CityMeshNetwork network{std::move(compiled), config.network};
  return evaluate_with_network(network, config);
}

NetworkSnapshot evaluate_snapshot(CityMeshNetwork& network, const SnapshotConfig& config) {
  NetworkSnapshot snap;
  snap.at_s = network.sim_now();
  snap.aps_total = network.aps().ap_count();
  snap.aps_up = network.aps_up();

  const osmx::City& city = network.city();
  const std::size_t n = city.building_count();
  if (n < 2) return snap;

  // Live AP connectivity: union the surviving links (both endpoints up).
  // Down APs keep their vertex but join nothing, so they are unreachable.
  const graphx::Graph& graph = network.aps().graph();
  graphx::UnionFind uf{graph.vertex_count()};
  for (graphx::VertexId v = 0; v < graph.vertex_count(); ++v) {
    if (!network.ap_up(v)) continue;
    for (const graphx::Edge& e : graph.neighbors(v)) {
      if (e.to < v || !network.ap_up(e.to)) continue;
      uf.unite(v, e.to);
    }
  }

  geo::Rng rng{config.seed};
  struct Pair {
    BuildingId a;
    BuildingId b;
  };
  std::vector<Pair> reachable;
  for (std::size_t i = 0; i < config.pairs; ++i) {
    const auto a = static_cast<BuildingId>(rng.uniform_int(n));
    auto b = static_cast<BuildingId>(rng.uniform_int(n));
    while (b == a) b = static_cast<BuildingId>(rng.uniform_int(n));
    ++snap.pairs_tested;

    const auto ap_a = network.live_ap(a);
    const auto ap_b = network.live_ap(b);
    if (ap_a && ap_b && uf.connected(*ap_a, *ap_b)) {
      ++snap.pairs_reachable;
      reachable.push_back({a, b});
    }
  }

  static constexpr std::string_view kPayload = "citymesh-scenario-payload";
  const std::span<const std::uint8_t> payload{
      reinterpret_cast<const std::uint8_t*>(kPayload.data()), kPayload.size()};
  const std::size_t to_test = std::min(config.deliver_pairs, reachable.size());
  for (std::size_t i = 0; i < to_test; ++i) {
    const Pair pair = reachable[i];
    const auto keys = cryptox::KeyPair::from_seed(config.seed * 6151 + i);
    const PostboxInfo info = PostboxInfo::for_key(keys, pair.b);
    if (!network.register_postbox(info)) continue;

    ++snap.deliveries_attempted;
    const SendOutcome outcome = network.send(pair.a, info, payload);
    if (outcome.delivered) {
      ++snap.deliveries_succeeded;
      continue;
    }
    if (!config.reliable_rescue) continue;

    // Does widening the conduit route the flood around the outage? The
    // escalation needs an ack path, so the sender registers its own postbox.
    const auto sender_keys = cryptox::KeyPair::from_seed(config.seed * 9973 + i);
    const PostboxInfo sender_info = PostboxInfo::for_key(sender_keys, pair.a);
    if (!network.register_postbox(sender_info)) continue;
    ++snap.rescues_attempted;
    const ReliableOutcome rescue =
        network.send_reliable(pair.a, info, payload, sender_info);
    if (rescue.delivered) ++snap.rescues_succeeded;
  }
  return snap;
}

MultiSeedEvaluation evaluate_city_seeds(const osmx::City& city,
                                        const EvaluationConfig& config,
                                        std::size_t seed_count) {
  MultiSeedEvaluation multi;
  multi.city = city.name();
  multi.seeds = seed_count;
  for (std::size_t s = 0; s < seed_count; ++s) {
    EvaluationConfig cfg = config;
    cfg.seed = config.seed + s * 1000003;  // decorrelate pair sampling
    cfg.network.placement.seed = config.network.placement.seed + s * 7919;
    cfg.network.medium.seed = config.network.medium.seed + s * 104729;
    const CityEvaluation eval = evaluate_city(city, cfg);
    multi.reachability.add(eval.reachability());
    multi.deliverability.add(eval.deliverability());
    if (!eval.overheads.empty()) multi.median_overhead.add(eval.median_overhead());
    if (!eval.header_bits.empty()) multi.median_header_bits.add(eval.median_header_bits());
    multi.metrics.merge(eval.metrics);
  }
  return multi;
}

CapacitySummary summarize_capacity(std::span<const FlowRecord> flows,
                                   double duration_s, std::uint64_t queue_drops,
                                   std::uint64_t deferrals, double airtime_s) {
  CapacitySummary out;
  out.duration_s = duration_s;
  out.queue_drops = queue_drops;
  out.deferrals = deferrals;
  out.airtime_s = airtime_s;

  std::vector<double> latencies;
  std::vector<double> overheads;
  double delivered_bytes = 0.0;
  for (const FlowRecord& f : flows) {
    ++out.flows_offered;
    out.transmissions += f.transmissions;
    if (!f.injected) continue;
    ++out.flows_injected;
    if (!f.delivered) continue;
    ++out.flows_delivered;
    delivered_bytes += static_cast<double>(f.payload_bytes);
    latencies.push_back(f.latency_s);
    if (const auto oh = f.overhead()) overheads.push_back(*oh);
  }
  if (duration_s > 0.0) {
    out.offered_load_per_s = static_cast<double>(out.flows_offered) / duration_s;
    out.goodput_bytes_per_s = delivered_bytes / duration_s;
  }
  if (!latencies.empty()) {
    out.latency_p50_s = geo::quantile(latencies, 0.5);
    out.latency_p99_s = geo::quantile(latencies, 0.99);
  }
  if (!overheads.empty()) {
    out.overhead_median = geo::quantile(overheads, 0.5);
  }
  return out;
}

}  // namespace citymesh::core
