#include "core/route_planner.hpp"

namespace citymesh::core {

std::size_t route_header_bits(const std::vector<BuildingId>& waypoints,
                              double conduit_width_m) {
  wire::PacketHeader h;
  h.conduit_width_m = conduit_width_m;
  h.waypoints = waypoints;
  return wire::header_bits(h);
}

std::optional<PlannedRoute> RoutePlanner::plan_impl(BuildingId from, BuildingId to,
                                                    bool compress) const {
  if (from >= map_->building_count() || to >= map_->building_count()) return std::nullopt;
  // Different components: no path, known without a search.
  if (!map_->connected(from, to)) return std::nullopt;
  PlannedRoute route;
  if (from == to) {
    route.buildings = {from};
    route.waypoints = {from};
  } else {
    graphx::AltSearch local;
    graphx::AltSearch& search = search_ != nullptr ? *search_ : local;
    route.buildings = search.path(map_->planning_graph(), map_->landmarks(), from, to);
    if (route.buildings.empty()) return std::nullopt;
    route.waypoints = compress ? compress_route(route.buildings, *map_, conduit_)
                               : route.buildings;
  }
  route.conduit_width_m = conduit_.width_m;
  route.header_bits = route_header_bits(route.waypoints, conduit_.width_m);
  return route;
}

std::optional<PlannedRoute> RoutePlanner::plan(BuildingId from, BuildingId to) const {
  return plan_impl(from, to, /*compress=*/true);
}

std::optional<PlannedRoute> RoutePlanner::plan_uncompressed(BuildingId from,
                                                            BuildingId to) const {
  return plan_impl(from, to, /*compress=*/false);
}

}  // namespace citymesh::core
