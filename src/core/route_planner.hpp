// Source-route planning (§3 step 2).
//
// The sender's route is the Dijkstra shortest path over the building graph
// (cubed-distance weights) from its own building to the destination
// postbox's building. The planner finds it with an exact ALT search
// (graphx/alt.hpp), steered by the map's eight landmarks
// (BuildingGraph::landmarks), over the graph's essential edges only
// (BuildingGraph::planning_graph): the same route, bit for bit, at a
// fraction of the settled vertices. It then compresses the building list
// into waypoints (conduit.hpp) and encodes them into the packet header
// (wire/packet.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/building_graph.hpp"
#include "core/conduit.hpp"
#include "graphx/alt.hpp"
#include "wire/packet.hpp"

namespace citymesh::core {

struct PlannedRoute {
  std::vector<BuildingId> buildings;  ///< full shortest route, src..dst
  std::vector<BuildingId> waypoints;  ///< compressed (always src..dst)
  double conduit_width_m = 50.0;
  /// Exact bit size of the encoded header carrying these waypoints.
  std::size_t header_bits = 0;
};

class RoutePlanner {
 public:
  /// `search` (optional) is a workspace reused across plans, which must
  /// outlive the planner and be used from one thread at a time; without
  /// one, every plan allocates its own.
  RoutePlanner(const BuildingGraph& map, ConduitConfig conduit,
               graphx::AltSearch* search = nullptr)
      : map_(&map), conduit_(conduit), search_(search) {}

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
  graphx::AltSearch* search_;
};

/// Header-bit accounting for a waypoint list (used by planning and benches).
std::size_t route_header_bits(const std::vector<BuildingId>& waypoints,
                              double conduit_width_m);

}  // namespace citymesh::core
