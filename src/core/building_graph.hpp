// The building graph (§3 step 2).
//
// Vertices are buildings; an edge predicts that APs in the two buildings can
// hear each other. Crucially this graph is derived from the *map alone* —
// footprints, the configured transmission range, and the assumed AP density —
// never from the realized AP placement. That asymmetry is the paper's core
// idea: routing state is map data, not network state.
//
// Edge weights are the cubed centroid distance by default: cubing makes one
// 100 m hop cost 8x two 50 m hops, so Dijkstra prefers chains of short,
// reliably-connected hops (§3: "Cubed-distance edge weights prioritize
// shorter edges for connectivity between buildings through their APs").
//
// A weight is a function of the map, so only the graph route planning walks
// stores it. The full graph is kept as ids alone (graphx::Topology), and its
// weights are recomputed from the centroids on demand (edge_weight); each
// centroid is stored once, in the centroid grid.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "geo/spatial_grid.hpp"
#include "graphx/alt.hpp"
#include "graphx/graph.hpp"
#include "graphx/shortest_path.hpp"
#include "osmx/building.hpp"

namespace citymesh::core {

using BuildingId = osmx::BuildingId;

/// Edge-weight policy; kCubed is the paper's choice, the others exist for
/// the ablation benches.
enum class EdgeWeight : std::uint8_t {
  kLinear,
  kSquared,
  kCubed,
};

double edge_cost(double distance_m, EdgeWeight policy);

struct BuildingGraphConfig {
  /// Assumed AP transmission range (the paper evaluates 50 m).
  double transmission_range_m = 50.0;
  /// Two buildings get an edge when the gap between their footprints is
  /// predicted to be coverable: centroid distance <= connect_factor * range
  /// + the two buildings' effective radii. The effective radius accounts for
  /// APs sitting anywhere inside the footprint, not just at the centroid.
  double connect_factor = 1.0;
  EdgeWeight weight = EdgeWeight::kCubed;
};

/// The map-derived routing substrate shared by senders and APs.
class BuildingGraph {
 public:
  BuildingGraph(const osmx::City& city, const BuildingGraphConfig& config);

  /// The full predicted-connectivity graph, ids only: one edge per pair of
  /// buildings predicted to hear each other. An edge's weight is
  /// edge_weight() of its two ends.
  const graphx::Topology& graph() const { return graph_; }

  /// The weight of the edge between buildings a and b: edge_cost of their
  /// centroid distance under config().weight. The one expression the
  /// constructor weighs every edge with, so it is bit-identical from either
  /// end. Throws std::out_of_range for an id past building_count().
  double edge_weight(BuildingId a, BuildingId b) const {
    return edge_cost(geo::distance(centroid(a), centroid(b)), config_.weight);
  }

  /// The graph route planning walks, weighted: graph() minus every edge a
  /// two-hop detour strictly beats (graphx::essential_edges). Dijkstra over
  /// it settles the same vertices in the same order with the same parents,
  /// so every planned route is bit-identical, at a fraction of the edges.
  const graphx::Graph& planning_graph() const { return planning_graph_; }

  /// One landmark per compass and diagonal direction (graphx/alt.hpp).
  static constexpr std::size_t kLandmarks = 8;

  /// The ALT landmark table over planning_graph(). The landmarks are the
  /// extreme buildings of the largest planning component towards north,
  /// northeast, east, southeast, south, southwest, west and northwest: the
  /// largest projection of the centroid onto that direction (lowest id on a
  /// tie). A building extreme in several directions counts once, so a
  /// table may hold fewer than kLandmarks landmarks. Built on
  /// the first call, once per map and thread-safely, so every network on a
  /// CompiledCity shares it and a city that never plans never pays for it.
  const graphx::LandmarkTable& landmarks() const;

  /// True when the map predicts some path between the two buildings (same
  /// connected component). Precondition: both ids are in range.
  bool connected(BuildingId a, BuildingId b) const {
    return components_.component_of[a] == components_.component_of[b];
  }

  const BuildingGraphConfig& config() const { return config_; }
  std::size_t building_count() const { return centroids().size(); }

  /// Centroid of a building (what APs look up when reconstructing conduits).
  /// Throws std::out_of_range for an id past building_count().
  geo::Point centroid(BuildingId id) const { return centroid_grid_.position(id); }
  /// Every centroid by building id: the centroid grid's own array.
  std::span<const geo::Point> centroids() const { return centroid_grid_.positions(); }

  /// Effective radius used in the connectivity prediction.
  double effective_radius(BuildingId id) const { return radii_.at(id); }

  /// Spatial index over building centroids, and the one copy of them. Built
  /// once for edge discovery and kept for message compilation (conduit
  /// bounding-box queries in core/compiled_message) — both want cells near
  /// the transmission range.
  const geo::SpatialGrid& centroid_grid() const { return centroid_grid_; }

 private:
  BuildingGraphConfig config_;
  std::vector<double> radii_;
  geo::SpatialGrid centroid_grid_;
  graphx::Topology graph_;
  graphx::Graph planning_graph_;
  graphx::Components components_;
  mutable std::once_flag landmarks_once_;
  mutable graphx::LandmarkTable landmarks_;
};

}  // namespace citymesh::core
