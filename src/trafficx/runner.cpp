#include "trafficx/runner.hpp"

#include <algorithm>
#include <unordered_map>

#include "cryptox/identity.hpp"

namespace citymesh::trafficx {

WorkloadResult run_workload(core::CityMeshNetwork& network,
                            const FlowSchedule& schedule, const RunConfig& config) {
  WorkloadResult result;
  result.flows.resize(schedule.flows.size());

  // Contention counters are cumulative on the medium(s); this run's share is
  // the delta, so workload runs compose (and stack on faultx scenarios).
  // medium_totals() sums across tile shards when the network runs tiled.
  const core::CityMeshNetwork::MediumTotals before = network.medium_totals();

  // One postbox identity per destination building, derived deterministically
  // so the same (schedule, seed) addresses the same recipients every run.
  // register_postbox is idempotent; buildings without APs get no postbox and
  // their flows fail injection below (route planning still succeeds).
  std::unordered_map<osmx::BuildingId, core::PostboxInfo> recipients;
  for (const Flow& flow : schedule.flows) {
    if (recipients.contains(flow.dst)) continue;
    const auto keys =
        cryptox::KeyPair::from_seed(config.postbox_seed ^ (0x9e3779b97f4a7c15ULL * (flow.dst + 1)));
    const auto info = core::PostboxInfo::for_key(keys, flow.dst);
    network.register_postbox(info);
    recipients.emplace(flow.dst, info);
  }

  // Schedule every injection at its arrival time, then run the event loop
  // once: flows overlap and contend for airtime. Payload bytes are zeros —
  // the medium charges size, not content. An injection changes no AP
  // status, tracing or degraded region (ControlClass::kInjection), so it
  // does not end the settle horizon of the windows around it.
  const double t0 = network.sim_now();
  std::vector<std::uint32_t> message_ids(schedule.flows.size(), 0);
  std::size_t max_payload = 1;
  for (const Flow& flow : schedule.flows) {
    max_payload = std::max(max_payload, flow.payload_bytes);
  }
  std::vector<std::uint8_t> payload(max_payload, 0);
  for (std::size_t i = 0; i < schedule.flows.size(); ++i) {
    const Flow& flow = schedule.flows[i];
    result.flows[i].start_s = flow.start_s;
    result.flows[i].payload_bytes = flow.payload_bytes;
    network.schedule_control(t0 + flow.start_s, [&, i] {
      const Flow& f = schedule.flows[i];
      const auto inject = network.inject(
          f.src, recipients.at(f.dst),
          {payload.data(), std::min(f.payload_bytes, payload.size())});
      if (inject.accepted()) {
        result.flows[i].injected = true;
        message_ids[i] = inject.message_id;
      }
    }, core::ControlClass::kInjection);
  }
  network.run_until(t0 + schedule.spec.duration_s + config.tail_s, config.max_events);

  for (std::size_t i = 0; i < schedule.flows.size(); ++i) {
    if (message_ids[i] == 0) continue;
    const core::FlowState* state = network.flow_state(message_ids[i]);
    if (state == nullptr) continue;
    result.flows[i].transmissions = state->transmissions;
    if (!state->delivered) continue;
    result.flows[i].delivered = true;
    result.flows[i].latency_s = state->delivery_time_s - state->injected_at_s;
    if (config.measure_overhead) {
      // Overhead denominator: ideal unicast hops over the *static* AP graph
      // from the AP the flow left from (a live fault may have moved it off
      // the building's representative) to the closest AP of the destination
      // building, the same query `send` uses. 0 when unreachable or when
      // the source AP sits in the destination building.
      result.flows[i].min_hops =
          network.aps()
              .min_hops(state->source_ap, network.aps().aps_of_building(schedule.flows[i].dst))
              .value_or(0);
    }
  }
  network.clear_flow_states();

  const core::CityMeshNetwork::MediumTotals after = network.medium_totals();
  result.summary = core::summarize_capacity(
      result.flows, schedule.spec.duration_s, after.queue_drops - before.queue_drops,
      after.deferrals - before.deferrals, after.airtime_s - before.airtime_s);
  result.metrics = network.merged_metrics();
  return result;
}

}  // namespace citymesh::trafficx
