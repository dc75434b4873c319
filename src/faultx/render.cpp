#include "faultx/render.hpp"

#include "viz/svg.hpp"

namespace citymesh::faultx {

bool render_scenario_svg(const core::CityMeshNetwork& network,
                         std::span<const geo::Polygon> outages,
                         const core::SendOutcome* trace, const std::string& path,
                         const ScenarioRenderOptions& options) {
  const osmx::City& city = network.city();
  const mesh::ApNetwork& aps = network.aps();
  viz::SvgScene scene{city.extent(), options.pixel_width};

  // The Fig-5b night-mode base: dark fabric so the fault overlay pops.
  scene.add_polygon(geo::Polygon::rectangle(city.extent()), "#1a1a2e");
  for (const auto& water : city.water()) scene.add_polygon(water, "#274060");
  for (const auto& b : city.buildings()) {
    scene.add_polygon(b.footprint, "#5b2333", "none", 0.0, 0.9);
  }

  // Surviving links only — a dead AP's links vanish with it.
  if (options.draw_links) {
    for (const auto& ap : aps.aps()) {
      if (!network.ap_up(ap.id)) continue;
      for (const graphx::VertexId to : aps.graph().neighbors(ap.id)) {
        if (to < ap.id || !network.ap_up(to)) continue;
        scene.add_line(ap.position, aps.ap(to).position, "#888888", 0.5, 0.5);
      }
    }
  }

  // Outage polygons above the fabric, below the AP markers.
  for (const auto& region : outages) {
    scene.add_polygon(region, "#e67e22", "#e67e22", 1.5, 0.22, "7 4");
  }
  for (const auto& region : network.degraded_regions()) {
    if (!region.active) continue;
    scene.add_polygon(region.region, "#f1c40f", "#f1c40f", 1.5, 0.18, "3 3");
  }

  for (const auto& ap : aps.aps()) {
    if (network.ap_up(ap.id)) {
      scene.add_circle(ap.position, 1.4, "#ffffff", 0.9);
    } else {
      scene.add_cross(ap.position, 2.2, "#e74c3c", 1.0, 0.9);
    }
  }

  if (trace && trace->route_found) {
    std::vector<geo::Point> waypoints;
    waypoints.reserve(trace->route.waypoints.size());
    for (const core::BuildingId b : trace->route.waypoints) {
      waypoints.push_back(city.building(b).centroid);
    }
    scene.add_polyline(waypoints, "#3498db", 2.5, 0.9);
    for (const mesh::ApId id : trace->rebroadcast_aps) {
      scene.add_circle(aps.ap(id).position, 2.0, "#2ecc71", 0.9);
    }
    if (!waypoints.empty()) {
      scene.add_circle(waypoints.front(), 5.0, "#3498db", 0.9);
      scene.add_circle(waypoints.back(), 5.0,
                       trace->delivered ? "#2ecc71" : "#e74c3c", 0.9);
    }
    const geo::Point label{city.extent().min.x + city.extent().width() * 0.02,
                           city.extent().max.y - city.extent().height() * 0.03};
    scene.add_text(label,
                   trace->delivered ? "delivered around the outage"
                                    : "delivery severed by the outage",
                   15.0, "#eeeeee");
  }

  return scene.write_file(path);
}

}  // namespace citymesh::faultx
