#include "routing/control_overhead.hpp"

#include "graphx/shortest_path.hpp"

namespace citymesh::routing {

namespace {

/// Expected flood cost from a uniformly random node: the size of its
/// connected component (every member rebroadcasts once), averaged over
/// nodes — i.e. sum(size_c^2) / N.
double expected_flood_cost(const graphx::Topology& mesh) {
  const std::size_t n = mesh.vertex_count();
  if (n == 0) return 0.0;
  const auto comps = graphx::connected_components(mesh);
  double sum_sq = 0.0;
  for (const std::size_t size : comps.sizes()) {
    sum_sq += static_cast<double>(size) * static_cast<double>(size);
  }
  return sum_sq / static_cast<double>(n);
}

}  // namespace

ControlLoad proactive_control_load(const graphx::Topology& mesh, const ProactiveParams& p) {
  const auto n = static_cast<double>(mesh.vertex_count());
  ControlLoad load;
  // Each node originates one update per interval and each update is flooded
  // through its component. Summed over origins, one round costs
  // sum_c size_c^2 = n * expected_flood_cost transmissions.
  load.control_tx_per_hour = (3600.0 / p.update_interval_s) * n * expected_flood_cost(mesh);
  load.per_node_state_entries = n;  // a route entry per reachable node
  return load;
}

ControlLoad reactive_control_load(const graphx::Topology& mesh, const ReactiveParams& p) {
  const auto n = static_cast<double>(mesh.vertex_count());
  ControlLoad load;
  const double discoveries_per_hour = n * p.discoveries_per_node_per_hour;
  // RREQ floods the component; the RREP path is small against that and the
  // constant is absorbed into the flood term.
  load.control_tx_per_hour = discoveries_per_hour * expected_flood_cost(mesh);
  // Route cache: active destinations only; assume O(discovery rate) entries.
  load.per_node_state_entries = p.discoveries_per_node_per_hour;
  return load;
}

ControlLoad citymesh_control_load(std::size_t building_count) {
  ControlLoad load;
  load.control_tx_per_hour = 0.0;
  load.per_node_state_entries = static_cast<double>(building_count);
  return load;
}

}  // namespace citymesh::routing
