#include "relayx/policy.hpp"

#include <array>
#include <string>

#include "geo/point.hpp"

namespace citymesh::relayx {

namespace {

struct KindName {
  PolicyKind kind;
  std::string_view name;
};

constexpr std::array<KindName, 4> kKindNames{{
    {PolicyKind::kFlood, "flood"},
    {PolicyKind::kBuildingBackoff, "building-backoff"},
    {PolicyKind::kCounterGossip, "counter-gossip"},
    {PolicyKind::kEtxPriority, "etx-priority"},
}};

/// Deterministic per-AP stream seed: mixes (seed, ap) through splitmix64 so
/// neighboring AP ids get uncorrelated streams.
std::uint64_t stream_seed(std::uint64_t seed, mesh::ApId ap) {
  std::uint64_t sm = seed ^ (0x9e3779b97f4a7c15ULL * (std::uint64_t{ap} + 1));
  return geo::splitmix64(sm);
}

std::vector<geo::Rng> make_streams(std::uint64_t seed, std::size_t ap_count) {
  std::vector<geo::Rng> streams;
  streams.reserve(ap_count);
  for (std::size_t ap = 0; ap < ap_count; ++ap) {
    streams.emplace_back(stream_seed(seed, static_cast<mesh::ApId>(ap)));
  }
  return streams;
}

/// Overheard copy from a sibling AP of the same building, close enough that
/// its transmission covers (nearly) the same area as ours would.
bool same_building_nearby(const mesh::ApNetwork& aps, const Reception& rx,
                          double radius_m) {
  const mesh::AccessPoint& self = aps.ap(rx.ap);
  const mesh::AccessPoint& peer = aps.ap(rx.from);
  return peer.building == self.building &&
         geo::distance(peer.position, self.position) <= radius_m;
}

// ------------------------------------------------------------------ flood ---

/// The paper's behavior: every elected AP relays immediately. No RNG draws,
/// no timers, no counters touched — byte-identical manifests to the
/// pre-relayx pipeline.
class FloodPolicy final : public RebroadcastPolicy {
 public:
  using RebroadcastPolicy::RebroadcastPolicy;

  bool ignores_duplicates() const override { return true; }
  Decision elect(const Reception&) override { return {Decision::Kind::kRelayNow, 0.0}; }
  bool cancel_on_overhear(const Reception&, std::uint32_t) override { return false; }
};

// ------------------------------------------------------- building-backoff ---

/// Random backoff; cancel on an overheard same-building copy within the
/// suppress radius. Each AP draws from its own deterministic stream, so the
/// draw an election makes depends only on which AP elects for the
/// how-many-th time — not on the global election order, which tiled
/// execution (src/shardx) interleaves differently for every tile count.
class BuildingBackoffPolicy final : public RebroadcastPolicy {
 public:
  BuildingBackoffPolicy(const PolicyConfig& config, const mesh::ApNetwork& aps)
      : RebroadcastPolicy(config),
        aps_(aps),
        streams_(make_streams(config.seed, aps.ap_count())) {}

  Decision elect(const Reception& rx) override {
    count_scheduled();
    return {Decision::Kind::kDelay, streams_[rx.ap].uniform(0.0, config_.backoff_s)};
  }

  bool cancel_on_overhear(const Reception& rx, std::uint32_t) override {
    if (!same_building_nearby(aps_, rx, config_.suppress_radius_m)) return false;
    count_cancelled();
    return true;
  }

 private:
  const mesh::ApNetwork& aps_;
  std::vector<geo::Rng> streams_;  ///< one stream per AP
};

// --------------------------------------------------------- counter-gossip ---

/// Classic counter-based gossip: relay with probability gossip_p; while the
/// backoff runs, cancel after cancel_copies overheard duplicates from
/// *anywhere* (the neighborhood is already saturated). Building-blind — it
/// needs no placement ground truth at all.
class CounterGossipPolicy final : public RebroadcastPolicy {
 public:
  CounterGossipPolicy(const PolicyConfig& config, const mesh::ApNetwork& aps)
      : RebroadcastPolicy(config),
        streams_(make_streams(config.seed, aps.ap_count())) {}

  Decision elect(const Reception& rx) override {
    geo::Rng& rng = streams_[rx.ap];
    if (config_.gossip_p < 1.0 && !rng.chance(config_.gossip_p)) {
      count_cancelled();
      return {Decision::Kind::kSuppress, 0.0};
    }
    count_scheduled();
    return {Decision::Kind::kDelay, rng.uniform(0.0, config_.backoff_s)};
  }

  bool cancel_on_overhear(const Reception&, std::uint32_t overheard) override {
    if (overheard < config_.cancel_copies) return false;
    count_cancelled();
    return true;
  }

 private:
  std::vector<geo::Rng> streams_;  ///< one stream per AP
};

// ----------------------------------------------------------- etx-priority ---

/// SignalRouting-style role priority from accumulated link quality. Every
/// reception bumps a per-directed-link counter (CSR-aligned with the AP
/// graph, so the update is a bounded neighbor scan); an AP's relay score is
/// the saturating sum of its links' delivery estimates c/(c+1) — many
/// well-heard links mark a hub that bridges coverage. High-score APs draw
/// shorter backoffs and tend to fire first; of the rest, only other
/// well-heard APs cancel on the overheard copies (same-building rule or
/// cancel_copies duplicates) while poorly-heard periphery always fires.
/// Before any traffic has been observed every score is zero and the policy
/// degrades to a plain random backoff — estimates sharpen as the run
/// progresses.
class EtxPriorityPolicy final : public RebroadcastPolicy {
 public:
  // The per-directed-link table is indexed by the topology CSR's own
  // edge_offset(), so the policy carries no duplicate offset array — its
  // rows align one-to-one with the graph's packed adjacency.
  EtxPriorityPolicy(const PolicyConfig& config, const mesh::ApNetwork& aps)
      : RebroadcastPolicy(config),
        aps_(aps),
        streams_(make_streams(config.seed, aps.ap_count())) {
    rx_counts_.assign(aps.graph().directed_edge_count(), 0.0);
  }

  void observe(const Reception& rx) override {
    const graphx::Topology& graph = aps_.graph();
    const auto links = graph.neighbors(rx.ap);
    for (std::size_t i = 0; i < links.size(); ++i) {
      if (links[i] != rx.from) continue;
      // A count per link is commutative, so the estimate never depends on
      // event-processing order (shard-count invariance, src/shardx).
      rx_counts_[graph.edge_offset(rx.ap) + i] += 1.0;
      count_etx_update();
      return;
    }
  }

  Decision elect(const Reception& rx) override {
    count_scheduled();
    const double s = score(rx.ap);
    const double quality = s / (s + config_.etx_pivot);
    // Priority shapes a quarter of the window, jitter the rest: enough skew
    // that hubs fire earlier on average, enough randomness that a
    // peripheral bridge AP is not deterministically last (it would soak up
    // overheard copies until cancelled and the flood would never leave its
    // cluster — heavier skews measurably cost deliverability in fig11).
    const double unit = (1.0 - quality) * 0.25 + streams_[rx.ap].uniform() * 0.75;
    return {Decision::Kind::kDelay, config_.backoff_s * unit};
  }

  bool cancel_on_overhear(const Reception& rx, std::uint32_t overheard) override {
    // Only *well-heard* APs cancel at all. The priority backoff makes
    // low-quality APs wait longer on average, so a copy count that silences
    // them too strands the flood exactly at the cluster exits they guard —
    // they always fire (possibly redundantly; that residue is the price of
    // keeping the frontier alive).
    const double s = score(rx.ap);
    const double quality = s / (s + config_.etx_pivot);
    if (quality < 0.5) return false;
    if (overheard < config_.cancel_copies &&
        !same_building_nearby(aps_, rx, config_.suppress_radius_m)) {
      return false;
    }
    count_cancelled();
    return true;
  }

 private:
  /// Saturating link-quality mass of one AP: sum of c/(c+1) over its links
  /// (read-only; observe() owns the stored values).
  double score(mesh::ApId ap) const {
    const graphx::Topology& graph = aps_.graph();
    const std::size_t begin = graph.edge_offset(ap);
    const std::size_t end = graph.edge_offset(ap + 1);
    double total = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const double c = rx_counts_[i];
      total += c / (c + 1.0);
    }
    return total;
  }

  const mesh::ApNetwork& aps_;
  std::vector<geo::Rng> streams_;
  std::vector<double> rx_counts_;  ///< per directed link (ap <- from), CSR order
};

}  // namespace

std::string_view to_string(PolicyKind kind) {
  for (const auto& kn : kKindNames) {
    if (kn.kind == kind) return kn.name;
  }
  return "unknown";
}

std::optional<PolicyKind> policy_kind_from(std::string_view name) {
  for (const auto& kn : kKindNames) {
    if (kn.name == name) return kn.kind;
  }
  return std::nullopt;
}

RebroadcastPolicy::RebroadcastPolicy(const PolicyConfig& config) : config_(config) {
  scheduled_ = &own_.counter("scheduled");
  cancelled_ = &own_.counter("cancelled");
  fired_ = &own_.counter("fired");
  etx_updates_ = &own_.counter("etx_updates");
}

RebroadcastPolicy::~RebroadcastPolicy() = default;

void RebroadcastPolicy::bind_metrics(obsx::MetricsRegistry& registry,
                                     std::string_view prefix) {
  const std::string p{prefix};
  scheduled_ = &registry.counter(p + ".scheduled");
  cancelled_ = &registry.counter(p + ".cancelled");
  fired_ = &registry.counter(p + ".fired");
  etx_updates_ = &registry.counter(p + ".etx_updates");
}

std::unique_ptr<RebroadcastPolicy> make_policy(const PolicyConfig& config,
                                               const mesh::ApNetwork& aps) {
  switch (config.kind) {
    case PolicyKind::kBuildingBackoff:
      return std::make_unique<BuildingBackoffPolicy>(config, aps);
    case PolicyKind::kCounterGossip:
      return std::make_unique<CounterGossipPolicy>(config, aps);
    case PolicyKind::kEtxPriority:
      return std::make_unique<EtxPriorityPolicy>(config, aps);
    case PolicyKind::kFlood:
      break;
  }
  return std::make_unique<FloodPolicy>(config);
}

}  // namespace citymesh::relayx
