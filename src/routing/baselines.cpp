#include "routing/baselines.hpp"

#include <limits>
#include <queue>

#include "graphx/shortest_path.hpp"

namespace citymesh::routing {

RoutingResult flood_route(const graphx::Topology& g, graphx::VertexId src,
                          graphx::VertexId dst, std::size_t ttl) {
  RoutingResult result;
  if (src == dst) {
    result.delivered = true;
    return result;
  }
  // BFS layers; a node at depth d rebroadcasts iff d < ttl.
  std::vector<std::size_t> depth(g.vertex_count(),
                                 std::numeric_limits<std::size_t>::max());
  std::queue<graphx::VertexId> q;
  depth[src] = 0;
  q.push(src);
  result.data_transmissions = 1;  // source broadcast
  while (!q.empty()) {
    const graphx::VertexId v = q.front();
    q.pop();
    if (depth[v] >= ttl) continue;  // TTL exhausted; no rebroadcast
    for (const graphx::VertexId to : g.neighbors(v)) {
      if (depth[to] != std::numeric_limits<std::size_t>::max()) continue;
      depth[to] = depth[v] + 1;
      if (to == dst) {
        result.delivered = true;
        result.path_hops = depth[to];
      }
      // First-time receivers rebroadcast while TTL remains.
      if (depth[to] < ttl) {
        ++result.data_transmissions;
        q.push(to);
      }
    }
  }
  return result;
}

RoutingResult greedy_geo_route(const graphx::Topology& g,
                               const std::vector<geo::Point>& positions,
                               graphx::VertexId src, graphx::VertexId dst,
                               std::size_t max_hops) {
  RoutingResult result;
  const geo::Point target = positions.at(dst);
  graphx::VertexId current = src;
  double current_d2 = geo::distance2(positions.at(src), target);
  while (result.path_hops < max_hops) {
    if (current == dst) {
      result.delivered = true;
      return result;
    }
    graphx::VertexId best = current;
    double best_d2 = current_d2;
    for (const graphx::VertexId to : g.neighbors(current)) {
      const double d2 = geo::distance2(positions.at(to), target);
      if (d2 < best_d2) {
        best_d2 = d2;
        best = to;
      }
    }
    if (best == current) return result;  // local minimum: greedy dead end
    current = best;
    current_d2 = best_d2;
    ++result.path_hops;
    ++result.data_transmissions;
  }
  return result;  // hop budget exhausted
}

RoutingResult aodv_route(const graphx::Topology& g, graphx::VertexId src,
                         graphx::VertexId dst) {
  RoutingResult result;
  if (src == dst) {
    result.delivered = true;
    return result;
  }
  const auto sp = graphx::bfs(g, src);
  if (!sp.reachable(dst)) {
    // RREQ floods the entire source component and finds nothing.
    for (graphx::VertexId v = 0; v < g.vertex_count(); ++v) {
      if (sp.reachable(v)) ++result.control_transmissions;
    }
    return result;
  }
  const auto dst_depth = static_cast<std::size_t>(sp.distance[dst]);
  // RREQ: every node discovered strictly before the destination's depth
  // rebroadcasts the request once (no expanding-ring optimization).
  for (graphx::VertexId v = 0; v < g.vertex_count(); ++v) {
    if (sp.reachable(v) && static_cast<std::size_t>(sp.distance[v]) < dst_depth) {
      ++result.control_transmissions;
    }
  }
  // RREP unicasts back along the reverse path.
  result.control_transmissions += dst_depth;
  // Data unicasts along the discovered route.
  result.delivered = true;
  result.path_hops = dst_depth;
  result.data_transmissions = dst_depth;
  return result;
}

}  // namespace citymesh::routing
