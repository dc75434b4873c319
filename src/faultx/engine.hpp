// Scenario engine: drives a compiled fault timeline against a live network.
//
// Two replay modes over the same timeline:
//   - install(): every action is scheduled at its absolute time through
//     CityMeshNetwork::schedule_control (any shard count), so faults unfold
//     *during* message floods — an AP can die with packets in flight (the
//     medium drops its rx/tx live). This is the mode the end-to-end
//     scenario benches use.
//   - apply_until(t): a cursor that applies all actions with time <= t
//     immediately. The checkpoint-evaluation harness uses this so the
//     network state is frozen while a checkpoint's measurement sends run
//     (each send advances simulated time; installed events would smear the
//     scenario across the measurement).
// Use one mode per engine instance; mixing them would double-apply actions.
#pragma once

#include <optional>
#include <vector>

#include "core/network.hpp"
#include "faultx/scenario.hpp"

namespace citymesh::faultx {

class ScenarioEngine {
 public:
  ScenarioEngine(core::CityMeshNetwork& network, CompiledScenario compiled)
      : net_(&network),
        compiled_(std::move(compiled)),
        region_handles_(compiled_.regions.size()) {}

  /// Convenience: compile `scenario` against the network's own placement.
  ScenarioEngine(core::CityMeshNetwork& network, const Scenario& scenario)
      : ScenarioEngine(network, compile(scenario, network.aps())) {}

  /// Live mode: schedule the whole timeline into the network's event loop.
  /// Actions already due (time <= now) are applied immediately.
  void install();

  /// Checkpoint mode: apply every action with time <= t. Monotonic cursor —
  /// calling with a smaller t than before is a no-op.
  void apply_until(sim::SimTime t);

  /// Apply the remainder of the timeline.
  void apply_all() { apply_until(sim::kForever); }

  const CompiledScenario& scenario() const { return compiled_; }
  std::size_t applied() const { return applied_; }

 private:
  void apply(const FaultAction& action);

  core::CityMeshNetwork* net_;
  CompiledScenario compiled_;
  /// Lazily-created network degraded-region handles, per compiled region.
  std::vector<std::optional<std::size_t>> region_handles_;
  std::size_t cursor_ = 0;
  std::size_t applied_ = 0;
};

}  // namespace citymesh::faultx
