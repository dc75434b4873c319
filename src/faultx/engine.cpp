#include "faultx/engine.hpp"

#include "obsx/trace.hpp"

namespace citymesh::faultx {

void ScenarioEngine::apply(const FaultAction& action) {
  ++applied_;
  obsx::TraceBuffer& trace = net_->trace();
  switch (action.kind) {
    case FaultKind::kApDown:
      net_->set_ap_status(action.ap, core::ApStatus::kDown);
      trace.record(obsx::TraceKind::kApDown, action.time,
                   static_cast<std::uint32_t>(action.ap), 0);
      break;
    case FaultKind::kApUp:
      net_->set_ap_status(action.ap, core::ApStatus::kUp);
      trace.record(obsx::TraceKind::kApUp, action.time,
                   static_cast<std::uint32_t>(action.ap), 0);
      break;
    case FaultKind::kRegionDegrade: {
      auto& handle = region_handles_.at(action.region);
      if (handle) {
        net_->set_degraded_region_active(*handle, true);
      } else {
        const auto& spec = compiled_.regions.at(action.region);
        handle = net_->add_degraded_region(spec.region, spec.extra_loss);
      }
      trace.record(obsx::TraceKind::kRegionDegrade, action.time, obsx::kTraceNone,
                   0, static_cast<std::uint32_t>(action.region));
      break;
    }
    case FaultKind::kRegionRestore: {
      const auto& handle = region_handles_.at(action.region);
      if (handle) net_->set_degraded_region_active(*handle, false);
      trace.record(obsx::TraceKind::kRegionRestore, action.time, obsx::kTraceNone,
                   0, static_cast<std::uint32_t>(action.region));
      break;
    }
  }
}

void ScenarioEngine::install() {
  // schedule_control is shard-agnostic: the plain schedule_at on the single
  // event loop, a coordinator event between windows on a tiled network.
  for (std::size_t i = cursor_; i < compiled_.actions.size(); ++i) {
    const FaultAction& action = compiled_.actions[i];
    if (action.time <= net_->sim_now()) {
      apply(action);
    } else {
      net_->schedule_control(action.time, [this, i] { apply(compiled_.actions[i]); });
    }
  }
  cursor_ = compiled_.actions.size();
}

void ScenarioEngine::apply_until(sim::SimTime t) {
  while (cursor_ < compiled_.actions.size() && compiled_.actions[cursor_].time <= t) {
    apply(compiled_.actions[cursor_]);
    ++cursor_;
  }
}

}  // namespace citymesh::faultx
