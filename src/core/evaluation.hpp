// The §4 evaluation protocol, reusable by benches, tests, and examples.
//
// For one city: sample building pairs and measure
//   - reachability: does any AP path exist between the pair (AP-graph
//     connectivity — routing-independent ground truth),
//   - deliverability: given reachability, does the CityMesh building-routing
//     algorithm actually deliver (full event simulation),
//   - transmission overhead: broadcasts / ideal-unicast-hops per delivery,
//   - header size: encoded bits of the compressed source route.
// The paper runs 1000 pairs for reachability and 50 of the reachable pairs
// through the full simulation (Figure 6).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "geo/stats.hpp"
#include "obsx/metrics.hpp"
#include "osmx/building.hpp"

namespace citymesh::core {

struct EvaluationConfig {
  std::size_t reachability_pairs = 1000;
  std::size_t deliverability_pairs = 50;
  NetworkConfig network;
  std::uint64_t seed = 2024;
};

struct CityEvaluation {
  std::string city;
  std::size_t buildings = 0;
  std::size_t aps = 0;
  std::size_t ap_islands = 0;        ///< connected components of the AP graph
  /// Components with at least 8 APs; the fragments below that are single
  /// odd buildings, not the paper's "islands of connectivity".
  std::size_t ap_major_islands = 0;

  std::size_t pairs_tested = 0;
  std::size_t pairs_reachable = 0;
  double reachability() const {
    return pairs_tested ? static_cast<double>(pairs_reachable) / pairs_tested : 0.0;
  }

  std::size_t deliveries_attempted = 0;
  std::size_t deliveries_succeeded = 0;
  double deliverability() const {
    return deliveries_attempted
               ? static_cast<double>(deliveries_succeeded) / deliveries_attempted
               : 0.0;
  }

  std::vector<double> overheads;    ///< per successful delivery
  std::vector<double> header_bits;  ///< per planned route
  double median_overhead() const;
  double median_header_bits() const;

  /// Snapshot of the network's registry after the run: the medium's
  /// authoritative medium.* counters plus the net.*/sim.* protocol metrics.
  /// Mergeable across cities/seeds; serializes into run manifests.
  obsx::MetricsSnapshot metrics;
};

/// Run the full §4 protocol on a city.
CityEvaluation evaluate_city(const osmx::City& city, const EvaluationConfig& config);

/// Same protocol against a pre-compiled city (core::CompiledCity): the
/// network shares the read-only building graph + AP placement instead of
/// rebuilding them, so a sweep's grid points pay only for simulation.
/// `config.network.graph`/`placement` must be the parameters the city was
/// compiled with (they are not re-applied).
CityEvaluation evaluate_city(std::shared_ptr<const CompiledCity> compiled,
                             const EvaluationConfig& config);

/// Multi-seed replication: re-runs the protocol with independent AP
/// placements and pair samples, reporting mean and standard deviation per
/// metric. The paper reports single realizations; this quantifies how much
/// of Figure 6 is placement luck.
struct MultiSeedEvaluation {
  std::string city;
  std::size_t seeds = 0;
  geo::RunningStats reachability;
  geo::RunningStats deliverability;
  geo::RunningStats median_overhead;
  geo::RunningStats median_header_bits;
  /// Per-seed registry snapshots merged into one (counters sum, histogram
  /// buckets add), ready for a manifest.
  obsx::MetricsSnapshot metrics;
};

MultiSeedEvaluation evaluate_city_seeds(const osmx::City& city,
                                        const EvaluationConfig& config,
                                        std::size_t seed_count);

/// Checkpoint replay of the §4 protocol against a *live* network whose APs
/// may be down (disaster scenarios, src/faultx). Reachability is measured
/// over the surviving AP graph — down APs and their links are filtered live,
/// not re-placed — and deliverability runs the full event simulation against
/// the current fault state. Failed sends can optionally be retried through
/// `send_reliable`'s width escalation to quantify whether widening the
/// conduit rescues deliveries across an outage edge.
struct SnapshotConfig {
  std::size_t pairs = 200;          ///< building pairs sampled for reachability
  std::size_t deliver_pairs = 20;   ///< reachable pairs run through the full sim
  bool reliable_rescue = true;      ///< retry failed sends with wider conduits
  std::uint64_t seed = 4242;        ///< pair sampling / recipient identities
};

struct NetworkSnapshot {
  double at_s = 0.0;  ///< scenario time this snapshot describes
  std::size_t aps_total = 0;
  std::size_t aps_up = 0;
  double up_fraction() const {
    return aps_total ? static_cast<double>(aps_up) / aps_total : 0.0;
  }

  std::size_t pairs_tested = 0;
  std::size_t pairs_reachable = 0;
  double reachability() const {
    return pairs_tested ? static_cast<double>(pairs_reachable) / pairs_tested : 0.0;
  }

  std::size_t deliveries_attempted = 0;
  std::size_t deliveries_succeeded = 0;  ///< first-try, base conduit width
  double deliverability() const {
    return deliveries_attempted
               ? static_cast<double>(deliveries_succeeded) / deliveries_attempted
               : 0.0;
  }

  /// Width-escalation retries of the first-try failures.
  std::size_t rescues_attempted = 0;
  std::size_t rescues_succeeded = 0;
  /// Deliverability counting rescued sends as delivered.
  double deliverability_with_rescue() const {
    return deliveries_attempted
               ? static_cast<double>(deliveries_succeeded + rescues_succeeded) /
                     deliveries_attempted
               : 0.0;
  }
};

/// Measure the network as it is *right now* (current AP status + degraded
/// regions). Sampling is deterministic in config.seed, so the same seed
/// re-measures the same pairs at every checkpoint of a scenario.
NetworkSnapshot evaluate_snapshot(CityMeshNetwork& network, const SnapshotConfig& config);

// --- Capacity accounting (src/trafficx workloads) --------------------------

/// Fate of one injected flow of a traffic workload.
struct FlowRecord {
  double start_s = 0.0;           ///< scheduled injection time
  std::size_t payload_bytes = 0;
  bool injected = false;          ///< false: no route or dead source AP
  bool delivered = false;
  double latency_s = 0.0;         ///< injection -> first postbox store
  /// Broadcasts of this flow actually aired (medium tx attribution).
  std::size_t transmissions = 0;
  /// Ideal unicast hop count source AP -> destination building over the
  /// static AP graph; 0 = not measured (trafficx::RunConfig::
  /// measure_overhead) or disconnected.
  std::size_t min_hops = 0;
  /// transmissions / min_hops — the paper's per-message overhead ratio.
  std::optional<double> overhead() const {
    if (min_hops == 0) return std::nullopt;
    return static_cast<double>(transmissions) / static_cast<double>(min_hops);
  }
};

/// Aggregate capacity metrics of one workload run at one offered load —
/// one point of the goodput/latency-vs-load curve (bench/fig9_capacity).
struct CapacitySummary {
  std::size_t flows_offered = 0;    ///< scheduled flows
  std::size_t flows_injected = 0;   ///< reached the medium
  std::size_t flows_delivered = 0;
  double duration_s = 0.0;          ///< workload duration (offered-load window)
  double offered_load_per_s = 0.0;  ///< flows_offered / duration
  double delivery_rate() const {
    return flows_offered ? static_cast<double>(flows_delivered) / flows_offered : 0.0;
  }
  /// Delivered payload bytes per second of workload duration.
  double goodput_bytes_per_s = 0.0;
  double latency_p50_s = 0.0;  ///< over delivered flows (0 when none)
  double latency_p99_s = 0.0;

  // Contention evidence, from the medium's counters: drops/deferrals rise
  // past the capacity knee while goodput flattens.
  std::uint64_t queue_drops = 0;
  std::uint64_t deferrals = 0;
  double airtime_s = 0.0;  ///< summed channel-busy time across all APs

  // Transmission-overhead accounting (bench/fig11_frontier); zeros unless
  // the runner measured per-flow attribution + ideal hop counts.
  std::uint64_t transmissions = 0;  ///< sum of per-flow attributed broadcasts
  /// Median per-delivered-flow transmissions/min_hops (the paper's overhead
  /// ratio under concurrent load); 0 when unmeasured.
  double overhead_median = 0.0;
};

/// Fold per-flow records plus the medium's contention counters into one
/// capacity row. `duration_s` is the offered-load window (not the drain
/// tail); pass the medium's post-run totals for the last three.
CapacitySummary summarize_capacity(std::span<const FlowRecord> flows,
                                   double duration_s, std::uint64_t queue_drops,
                                   std::uint64_t deferrals, double airtime_s);

}  // namespace citymesh::core
