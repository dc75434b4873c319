// Figure 5 reproduction: a rendered section of a downtown area.
//  (a) building footprints,
//  (b) the same region with APs as dots and sub-50m links as gray lines,
//      at the paper's parameters (50 m range, 1 AP / 200 m^2).
// Writes fig5a_footprints.svg and fig5b_apgraph.svg and prints the mesh
// statistics of the rendered section.
#include <iostream>

#include "bench_util.hpp"
#include "mesh/ap_network.hpp"
#include "osmx/citygen.hpp"
#include "viz/svg.hpp"

namespace osmx = citymesh::osmx;
namespace mesh = citymesh::mesh;
namespace geo = citymesh::geo;
namespace viz = citymesh::viz;

int main(int argc, char** argv) {
  citymesh::benchutil::ManifestEmitter emit{"fig5_render", argc, argv};
  std::cout << "CityMesh reproduction - Figure 5 (downtown section render)\n";

  const auto profile = osmx::profile_by_name("boston");
  emit.manifest().city = profile.name;
  emit.manifest().seeds[profile.name] = profile.seed;
  const auto city = osmx::generate_city(profile);
  mesh::PlacementConfig placement;  // paper defaults: 1/200 m^2, 50 m
  const auto net = mesh::place_aps(city, placement);

  // The downtown survey region is the rendered section.
  geo::Rect section = city.extent();
  for (const auto& region : city.regions()) {
    if (region.type == osmx::AreaType::kDowntown) {
      section = region.bounds;
      break;
    }
  }

  // (a) footprints in red, like the paper's left panel.
  viz::SvgScene a{section, 900.0};
  std::size_t buildings_in_section = 0;
  for (const auto& b : city.buildings()) {
    if (!section.contains(b.centroid)) continue;
    a.add_polygon(b.footprint, "#c0392b");
    ++buildings_in_section;
  }
  const bool a_ok = a.write_file("fig5a_footprints.svg");

  // (b) dark background, footprints dimmed, APs as white dots, links gray.
  viz::SvgScene b{section, 900.0};
  b.add_polygon(geo::Polygon::rectangle(section), "#1a1a2e");
  for (const auto& bd : city.buildings()) {
    if (!section.contains(bd.centroid)) continue;
    b.add_polygon(bd.footprint, "#5b2333", "none", 0.0, 0.9);
  }
  std::size_t aps_in_section = 0;
  std::size_t links_in_section = 0;
  for (const auto& ap : net.aps()) {
    if (!section.contains(ap.position)) continue;
    ++aps_in_section;
    for (const auto to : net.graph().neighbors(ap.id)) {
      if (to < ap.id) continue;  // draw each link once
      const geo::Point other = net.ap(to).position;
      if (!section.contains(other)) continue;
      b.add_line(ap.position, other, "#888888", 0.5, 0.6);
      ++links_in_section;
    }
  }
  for (const auto& ap : net.aps()) {
    if (section.contains(ap.position)) b.add_circle(ap.position, 1.6, "#ffffff");
  }
  const bool b_ok = b.write_file("fig5b_apgraph.svg");

  std::cout << "  section: " << section.width() << " x " << section.height()
            << " m of downtown\n"
            << "  buildings rendered: " << buildings_in_section << '\n'
            << "  APs rendered:       " << aps_in_section << '\n'
            << "  links rendered:     " << links_in_section << '\n'
            << "  fig5a_footprints.svg " << (a_ok ? "written" : "FAILED") << '\n'
            << "  fig5b_apgraph.svg    " << (b_ok ? "written" : "FAILED") << '\n';

  std::cout << "\nWhole-city mesh at paper parameters (range 50 m, 1 AP/200 m^2):\n"
            << "  total APs:   " << net.ap_count() << '\n'
            << "  total links: " << net.graph().edge_count() << '\n'
            << "  mean degree: "
            << (net.ap_count()
                    ? 2.0 * static_cast<double>(net.graph().edge_count()) /
                          static_cast<double>(net.ap_count())
                    : 0.0)
            << '\n'
            << "  islands:     " << net.components().count << '\n';
  for (const std::size_t value :
       {buildings_in_section, aps_in_section, links_in_section,
        static_cast<std::size_t>(net.ap_count()),
        static_cast<std::size_t>(net.graph().edge_count()),
        static_cast<std::size_t>(net.components().count)}) {
    emit.row(std::to_string(value));
  }
  return emit.finish((a_ok && b_ok) ? 0 : 1);
}
