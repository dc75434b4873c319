// Source-route planning (§3 step 2).
//
// The sender runs Dijkstra over the building graph (cubed-distance weights)
// from its own building to the destination postbox's building — walking the
// graph's essential edges only (BuildingGraph::planning_graph), which yields
// the same route as the full graph at about half the cost — then
// compresses the resulting building list into waypoints (conduit.hpp) and
// encodes them into the packet header (wire/packet.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/building_graph.hpp"
#include "core/conduit.hpp"
#include "graphx/shortest_path.hpp"
#include "wire/packet.hpp"

namespace citymesh::core {

struct PlannedRoute {
  std::vector<BuildingId> buildings;  ///< full Dijkstra route, src..dst
  std::vector<BuildingId> waypoints;  ///< compressed (always src..dst)
  double conduit_width_m = 50.0;
  /// Exact bit size of the encoded header carrying these waypoints.
  std::size_t header_bits = 0;
};

/// Shortest-path cache shared across planners of one network (LRU over
/// sources). Each entry is a resumable Dijkstra
/// (graphx::IncrementalDijkstra) over the map's planning graph: a fresh
/// source costs exactly what a targeted run costs (the search still stops
/// at the destination), and a repeated source resumes the same run where it
/// stopped. The tree depends only on the graph (conduit width affects
/// compression, not Dijkstra), which is why the cache outlives the per-send
/// RoutePlanner instances. Cached trees yield bit-identical routes: a
/// resumed run settles the same prefix in the same order as an independent
/// targeted run, so extracted paths match exactly (the determinism digests
/// do not move).
///
/// Capacity 8: each entry holds O(V) arrays (~180 KiB on boston), and
/// measured traffic repeats sources rarely — boston hotspot load at 32
/// flows/s for 20 s gets 13 hits at capacity 64 and 4 at 8, uniform load
/// 2 vs 0 — while single-source emergency traffic needs one entry.
///
/// Not thread-safe: route planning happens on the coordinator thread only
/// (like every send/inject entry point).
class SptCache {
 public:
  static constexpr std::size_t kCapacity = 8;

  explicit SptCache(const graphx::Graph& graph) : graph_(&graph) {}

  /// The tree rooted at `from`, settled at least through `to`.
  const graphx::ShortestPaths& tree(graphx::VertexId from, graphx::VertexId to);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Entry {
    std::uint64_t stamp = 0;  ///< last-use tick for LRU eviction
    std::unique_ptr<graphx::IncrementalDijkstra> search;
  };

  const graphx::Graph* graph_;
  std::vector<Entry> entries_;
  std::uint64_t stamp_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

class RoutePlanner {
 public:
  /// `cache` (optional) must be built over `map.planning_graph()` and
  /// outlive the planner; without one, every plan runs its own targeted
  /// Dijkstra over the planning graph.
  RoutePlanner(const BuildingGraph& map, ConduitConfig conduit,
               SptCache* cache = nullptr)
      : map_(&map), conduit_(conduit), cache_(cache) {}

  /// Plan a compressed route; nullopt when the building graph predicts no
  /// path (the sender knows immediately that CityMesh cannot help).
  std::optional<PlannedRoute> plan(BuildingId from, BuildingId to) const;

  /// Plan without compression (ablation: full building list as waypoints).
  std::optional<PlannedRoute> plan_uncompressed(BuildingId from, BuildingId to) const;

  const BuildingGraph& map() const { return *map_; }
  const ConduitConfig& conduit_config() const { return conduit_; }

 private:
  std::optional<PlannedRoute> plan_impl(BuildingId from, BuildingId to, bool compress) const;

  const BuildingGraph* map_;
  ConduitConfig conduit_;
  SptCache* cache_;
};

/// Header-bit accounting for a waypoint list (used by planning and benches).
std::size_t route_header_bits(const std::vector<BuildingId>& waypoints,
                              double conduit_width_m);

}  // namespace citymesh::core
