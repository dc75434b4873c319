// Workload execution (src/trafficx): replay a compiled FlowSchedule against
// a live CityMeshNetwork and account for every flow's fate.
//
// Unlike the single-message evaluation protocol (core/evaluation), all flows
// of a workload coexist in flight: injections are scheduled as simulator
// events at their arrival times and the event loop runs ONCE, so concurrent
// floods contend for airtime on the shared medium (enable it via
// sim::MediumConfig::bitrate_bps). Composes with src/faultx — install a
// ScenarioEngine on the same network before running and the workload rides
// through the disaster.
#pragma once

#include <cstdint>
#include <vector>

#include "core/evaluation.hpp"
#include "core/network.hpp"
#include "trafficx/workload.hpp"

namespace citymesh::trafficx {

struct RunConfig {
  /// Drain window after the last scheduled arrival: in-flight floods get
  /// this much extra simulated time to deliver before the run stops.
  double tail_s = 30.0;
  std::size_t max_events = 50'000'000;
  /// Seed for the destination postbox identities (key derivation).
  std::uint64_t postbox_seed = 77;
  /// Also compute each delivered flow's ideal unicast hop count
  /// (mesh::ApNetwork::min_hops over the static AP graph, from the AP the
  /// flow left from) so the summary carries the paper's
  /// transmissions/min_hops overhead ratio under concurrent load
  /// (bench/fig11_frontier). Off by default: fig9-style capacity sweeps
  /// don't pay for searches they don't read.
  bool measure_overhead = false;
};

struct WorkloadResult {
  std::vector<core::FlowRecord> flows;  ///< one per scheduled flow, in order
  core::CapacitySummary summary;
  obsx::MetricsSnapshot metrics;  ///< network registry after the run
};

/// Replay `schedule` on `network`. Registers a postbox in every destination
/// building (idempotent), schedules each flow's injection, runs the
/// simulator once, and folds per-flow delivery/latency plus the medium's
/// contention counters into a CapacitySummary. Clears the network's
/// injected-flow bookkeeping on exit so runs compose.
WorkloadResult run_workload(core::CityMeshNetwork& network,
                            const FlowSchedule& schedule, const RunConfig& config = {});

}  // namespace citymesh::trafficx
