#include "core/building_graph.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "geo/spatial_grid.hpp"
#include "graphx/link_builder.hpp"

namespace citymesh::core {

double edge_cost(double distance_m, EdgeWeight policy) {
  switch (policy) {
    case EdgeWeight::kLinear: return distance_m;
    case EdgeWeight::kSquared: return distance_m * distance_m;
    case EdgeWeight::kCubed: return distance_m * distance_m * distance_m;
  }
  throw std::invalid_argument{"edge_cost: unknown policy"};
}

BuildingGraph::BuildingGraph(const osmx::City& city, const BuildingGraphConfig& config)
    : config_(config), centroid_grid_(config.transmission_range_m * 2.0) {
  if (config.transmission_range_m <= 0.0) {
    throw std::invalid_argument{"BuildingGraph: transmission range must be > 0"};
  }
  const double range = config.transmission_range_m * config.connect_factor;
  {
    const auto& buildings = city.buildings();
    std::vector<geo::Point> centroids;  // the grid keeps the one copy
    centroids.reserve(buildings.size());
    radii_.reserve(buildings.size());
    for (const auto& b : buildings) {
      centroids.push_back(b.centroid);
      // Effective radius: half the diagonal of the bounding box, i.e. the
      // farthest an in-building AP can sit from the centroid.
      const auto bounds = b.footprint.bounds();
      const double radius =
          bounds ? 0.5 * geo::distance(bounds->min, bounds->max) : 0.0;
      radii_.push_back(radius);
    }
    centroid_grid_ = geo::SpatialGrid{config.transmission_range_m * 2.0, centroids};
  }

  // Buildings a and b link when d <= range + r_a + r_b, so no link is
  // longer than r_a + range + r_max from either end. The 1e-9 relative slack
  // covers the rounding of that sum, added in another order than the test's.
  double max_radius = 0.0;
  for (const double r : radii_) max_radius = std::max(max_radius, r);
  graphx::Graph full = graphx::LinkBuilder::build(
      centroid_grid_,
      [&](BuildingId a) { return (radii_[a] + range + max_radius) * (1.0 + 1e-9); },
      [&](BuildingId a, BuildingId b, double d2) {
        return std::sqrt(d2) <= range + radii_[a] + radii_[b];
      },
      [&](BuildingId a, BuildingId b) -> std::optional<double> { return edge_weight(a, b); });
  planning_graph_ = graphx::essential_edges(full);
  // Keep the ids; the weights go with `full`, since edge_weight() recomputes
  // each one bit for bit.
  graph_ = std::move(static_cast<graphx::Topology&>(full));
  components_ = graphx::connected_components(planning_graph_);
}

const graphx::LandmarkTable& BuildingGraph::landmarks() const {
  std::call_once(landmarks_once_, [this] {
    const std::uint32_t largest = components_.largest();
    // Extreme building per direction: the largest projection of its
    // centroid onto (N, NE, E, SE, S, SW, W, NW). The diagonals are not
    // normalized; scaling a direction does not move its argmax.
    constexpr std::array<geo::Point, kLandmarks> directions{
        {{0.0, 1.0}, {1.0, 1.0}, {1.0, 0.0}, {1.0, -1.0},
         {0.0, -1.0}, {-1.0, -1.0}, {-1.0, 0.0}, {-1.0, 1.0}}};
    const std::span<const geo::Point> centroids = this->centroids();
    std::vector<graphx::VertexId> chosen;
    for (const geo::Point dir : directions) {
      std::optional<BuildingId> best;
      double best_score = 0.0;
      for (BuildingId b = 0; b < centroids.size(); ++b) {
        if (components_.component_of[b] != largest) continue;
        const double score = centroids[b].x * dir.x + centroids[b].y * dir.y;
        if (!best || score > best_score) {
          best = b;
          best_score = score;
        }
      }
      if (best && std::find(chosen.begin(), chosen.end(), *best) == chosen.end())
        chosen.push_back(*best);
    }
    landmarks_ = graphx::LandmarkTable{planning_graph_, chosen};
  });
  return landmarks_;
}

}  // namespace citymesh::core
