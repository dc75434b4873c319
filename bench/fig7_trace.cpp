// Figure 7 reproduction: a single simulation trace rendered as SVG.
//
// Unlike the other figure benches this one goes through the obsx trace
// layer end to end: the delivery is recorded into the network's TraceBuffer,
// written out as fig7_trace.jsonl, read *back* from that file, and the
// figure is rendered purely from the recorded event stream (roles derived
// with core::roles_from_trace) — proving a stored trace carries everything
// the figure needs.
//
// Green line: the building route selected by CityMesh's route algorithm.
// Light blue dots: APs inside the rebroadcast conduit that transmitted.
// Red dots: APs that received the packet but did not rebroadcast (outside
// the conduit). Writes fig7_trace.svg and prints the delivery statistics.
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench_util.hpp"
#include "core/network.hpp"
#include "cryptox/sealed.hpp"
#include "obsx/trace.hpp"
#include "osmx/citygen.hpp"
#include "viz/ascii.hpp"
#include "viz/svg.hpp"

namespace core = citymesh::core;
namespace obsx = citymesh::obsx;
namespace osmx = citymesh::osmx;
namespace geo = citymesh::geo;
namespace viz = citymesh::viz;
namespace cryptox = citymesh::cryptox;

int main(int argc, char** argv) {
  citymesh::benchutil::ManifestEmitter emit{"fig7_trace", argc, argv};
  std::cout << "CityMesh reproduction - Figure 7 (single simulation trace)\n";

  const auto profile = osmx::profile_by_name("boston");
  emit.manifest().city = profile.name;
  emit.manifest().seeds[profile.name] = profile.seed;
  const auto city = osmx::generate_city(profile);
  core::NetworkConfig cfg;  // paper defaults
  core::CityMeshNetwork net{city, cfg};

  // A cross-town pair: lower-left quadrant to upper-right quadrant.
  const geo::Point extent{city.extent().max};
  core::BuildingId src = 0;
  core::BuildingId dst = 0;
  double best_src = 1e18;
  double best_dst = 1e18;
  for (const auto& b : city.buildings()) {
    const double d_src = geo::distance(b.centroid, {extent.x * 0.18, extent.y * 0.2});
    const double d_dst = geo::distance(b.centroid, {extent.x * 0.82, extent.y * 0.66});
    if (d_src < best_src) {
      best_src = d_src;
      src = b.id;
    }
    if (d_dst < best_dst) {
      best_dst = d_dst;
      dst = b.id;
    }
  }

  const auto bob = cryptox::KeyPair::from_seed(2024);
  const auto info = core::PostboxInfo::for_key(bob, dst);
  if (!net.register_postbox(info)) {
    std::cerr << "destination building has no APs; rerun with another seed\n";
    return 1;
  }

  // Record the whole delivery into the network's trace buffers.
  net.set_tracing(true);
  const auto alice = cryptox::KeyPair::from_seed(2025);
  const auto sealed = cryptox::seal(alice, info.public_key, "fig7 payload", 7);
  const auto outcome = net.send(src, info, sealed.serialize());

  // Persist the event stream, then reload it: the figure below is rendered
  // only from what survived the JSONL round trip.
  const char* jsonl_path = "fig7_trace.jsonl";
  {
    std::ofstream out{jsonl_path};
    obsx::write_trace_jsonl(out, net.merged_trace_events());
    if (!out) {
      std::cerr << "failed to write " << jsonl_path << '\n';
      return 1;
    }
  }
  std::ifstream in{jsonl_path};
  std::string error;
  const auto events = obsx::read_trace_jsonl(in, &error);
  if (!events) {
    std::cerr << "failed to re-read trace: " << error << '\n';
    return 1;
  }
  const core::TraceRoles roles =
      core::roles_from_trace(*events, outcome.message_id);

  std::cout << "  route: " << outcome.route.buildings.size() << " buildings -> "
            << outcome.route.waypoints.size() << " waypoints ("
            << outcome.header_bits << " header bits)\n"
            << "  delivered: " << (outcome.delivered ? "yes" : "NO") << " after "
            << viz::fmt(outcome.delivery_time_s * 1000.0, 1) << " ms\n"
            << "  trace events:       " << events->size() << " (from " << jsonl_path
            << ")\n"
            << "  rebroadcasting APs: " << roles.rebroadcast.size() << '\n'
            << "  receive-only APs:   " << roles.received_only.size() << '\n';
  if (outcome.min_hops) {
    std::cout << "  ideal unicast hops: " << *outcome.min_hops << '\n';
  }
  if (const auto oh = outcome.overhead()) {
    std::cout << "  transmission overhead: " << viz::fmt(*oh, 1)
              << "x  (paper reports 13x median)\n";
  }

  emit.manifest().set_param("trace_events",
                            static_cast<std::uint64_t>(events->size()));
  emit.manifest().set_param("message_id",
                            static_cast<std::uint64_t>(outcome.message_id));
  for (const auto& e : *events) emit.row(obsx::trace_line(e));
  emit.add_metrics(net.merged_metrics());

  // Render — from the reloaded trace roles, not from the live outcome.
  viz::SvgScene scene{city.extent(), 1100.0};
  for (const auto& water : city.water()) scene.add_polygon(water, "#a8c8e8");
  for (const auto& b : city.buildings()) scene.add_polygon(b.footprint, "#e0e0e0");

  for (const auto ap : roles.received_only) {
    scene.add_circle(net.aps().ap(ap).position, 1.4, "#d62728", 0.8);  // red
  }
  for (const auto ap : roles.rebroadcast) {
    scene.add_circle(net.aps().ap(ap).position, 1.6, "#56b4e9");  // light blue
  }
  std::vector<geo::Point> route_line;
  for (const auto b : outcome.route.buildings) {
    route_line.push_back(city.building(b).centroid);
  }
  scene.add_polyline(route_line, "#2ca02c", 2.5);  // green
  scene.add_circle(city.building(src).centroid, 5.0, "#2ca02c");
  scene.add_circle(city.building(dst).centroid, 5.0, "#9467bd");
  scene.add_text({20, city.extent().max.y - 30},
                 "green: building route; blue: conduit APs (rebroadcast); "
                 "red: received only");

  const bool ok = scene.write_file("fig7_trace.svg");
  std::cout << "  fig7_trace.svg " << (ok ? "written" : "FAILED") << '\n';
  return emit.finish(ok && outcome.delivered ? 0 : 1);
}
