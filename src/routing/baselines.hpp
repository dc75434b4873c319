// Baseline routing strategies from the paper's related-work section (§5),
// implemented over the same AP graph so the benches can compare their
// transmission and control overhead against CityMesh's conduit flood.
//
//  - flood_route:      unrestricted TTL-bounded flooding (every first-time
//                      receiver rebroadcasts) — the no-map upper bound on
//                      robustness and on overhead.
//  - greedy_geo_route: GPSR-style greedy geographic forwarding; each hop
//                      picks the neighbor closest to the destination and
//                      fails at a local minimum (we deliberately omit
//                      perimeter recovery; §5 notes it degrades with the
//                      imprecise in-building locations CityMesh assumes).
//  - aodv_route:       AODV-style reactive discovery: an RREQ flood, an RREP
//                      along the reverse path, then unicast data. Shows the
//                      per-route control-packet burst the paper argues makes
//                      reactive MANET protocols unscalable (§5).
//
// These are deterministic graph computations rather than event simulations:
// the compared quantities (packet counts, success) are identical either way,
// and determinism keeps the benches fast and reproducible.
#pragma once

#include <cstddef>
#include <vector>

#include "geo/point.hpp"
#include "graphx/graph.hpp"

namespace citymesh::routing {

struct RoutingResult {
  bool delivered = false;
  /// Broadcast/unicast transmissions carrying the data packet.
  std::size_t data_transmissions = 0;
  /// Transmissions of protocol control packets (RREQ/RREP for AODV).
  std::size_t control_transmissions = 0;
  /// Hops of the final data path (when delivered by a unicast scheme).
  std::size_t path_hops = 0;
};

/// TTL-bounded flood from `src`; delivered when `dst` is reached within ttl
/// hops. Every node that receives the packet for the first time at depth
/// < ttl rebroadcasts once.
RoutingResult flood_route(const graphx::Topology& g, graphx::VertexId src,
                          graphx::VertexId dst, std::size_t ttl);

/// Greedy geographic forwarding using per-node positions. Fails (delivered =
/// false) when no neighbor is strictly closer to the destination.
RoutingResult greedy_geo_route(const graphx::Topology& g,
                               const std::vector<geo::Point>& positions,
                               graphx::VertexId src, graphx::VertexId dst,
                               std::size_t max_hops = 10'000);

/// AODV-style discovery + unicast. The RREQ floods the source's component
/// until the destination is reached (all nodes at depth <= depth(dst)
/// rebroadcast, matching AODV without expanding-ring optimization); the RREP
/// and data retrace the discovered path.
RoutingResult aodv_route(const graphx::Topology& g, graphx::VertexId src,
                         graphx::VertexId dst);

}  // namespace citymesh::routing
