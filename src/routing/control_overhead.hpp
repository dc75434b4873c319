// Control-plane cost models for the §5 scaling argument.
//
// The paper's case against reusing MANET protocols at city scale is about
// *control* traffic: proactive protocols (DSDV/OLSR/BATMAN) flood topology
// state continuously; reactive protocols (AODV/DSR) flood a route request
// per new destination; CityMesh exchanges no metadata at all. These models
// compute the steady-state control load each family would impose on a given
// realized AP mesh, so the argument can be plotted against network size
// instead of asserted.
//
// Models (standard first-order accounting, parameters exposed):
//   proactive: every node broadcasts a periodic update; link-state updates
//     are flooded network-wide (every node rebroadcasts once per update),
//     so load = N updates/period, each costing N rebroadcasts => O(N^2)
//     transmissions per period network-wide. Per-node table: O(N) entries.
//   reactive: each new route request floods the source's component (O(N)
//     transmissions) + an O(path) reply; load scales with the session rate.
//   citymesh: zero control transmissions; per-node state is the (static)
//     map cache, refreshed out-of-band.
#pragma once

#include <cstddef>

#include "graphx/graph.hpp"

namespace citymesh::routing {

struct ProactiveParams {
  /// Seconds between each node's topology/update broadcast (OLSR TC default
  /// ~5 s; DSDV periodic dumps ~15 s).
  double update_interval_s = 5.0;
};

struct ReactiveParams {
  /// New route discoveries per node per hour (fresh destinations or broken
  /// routes; disaster traffic is bursty, so this is a knob, not a constant).
  double discoveries_per_node_per_hour = 2.0;
};

struct ControlLoad {
  /// Network-wide control transmissions per hour in steady state.
  double control_tx_per_hour = 0.0;
  /// Routing-state entries a single node must maintain.
  double per_node_state_entries = 0.0;
};

/// Proactive (DSDV/OLSR-family) load on the realized mesh: N nodes each
/// originate an update per interval and every connected node rebroadcasts
/// each update once (flooding; MPR-style optimizations shave a constant).
ControlLoad proactive_control_load(const graphx::Topology& mesh, const ProactiveParams& p);

/// Reactive (AODV/DSR-family) load: each discovery floods the requester's
/// connected component and unicasts a reply back.
ControlLoad reactive_control_load(const graphx::Topology& mesh, const ReactiveParams& p);

/// CityMesh: no control packets; state = cached building map entries
/// (buildings, not nodes — supplied by the caller since the mesh graph does
/// not know the city).
ControlLoad citymesh_control_load(std::size_t building_count);

}  // namespace citymesh::routing
