// AP placement and the AP connectivity graph.
//
// Reproduces the simulator substrate of §4: APs are placed uniformly at
// random *inside building footprints* at a configurable density (the paper
// uses 1 AP / 200 m^2) and connected whenever their distance is below the
// transmission range (50 m in the paper). The resulting ApNetwork is the
// ground truth the building-routing algorithm is evaluated against — the
// routing layer itself never reads it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "geo/rng.hpp"
#include "geo/spatial_grid.hpp"
#include "graphx/graph.hpp"
#include "graphx/shortest_path.hpp"
#include "osmx/building.hpp"

namespace citymesh::mesh {

using ApId = std::uint32_t;

struct AccessPoint {
  ApId id = 0;
  geo::Point position;
  osmx::BuildingId building = 0;  ///< footprint the AP was placed in
};

/// Radio link model used when building the AP graph.
enum class LinkModel : std::uint8_t {
  /// Hard disc: link iff distance <= transmission_range_m. The paper's §4
  /// simulator ("symmetric transmission range cutoff").
  kDisc,
  /// Log-distance shadowing (the §6 "higher fidelity" future-work item):
  /// links are certain below `shadow_certain_frac * range`, impossible above
  /// `shadow_max_frac * range`, and probabilistic in between with a linearly
  /// decaying success probability. Softens the disc model's percolation
  /// cliff the same way real fading does: some short links fail, some long
  /// ones succeed (cf. the paper's Figure 2, where APs are commonly heard
  /// beyond 100 m).
  kShadowed,
};

struct PlacementConfig {
  double density_per_m2 = 1.0 / 200.0;  ///< paper's sparse default
  double transmission_range_m = 50.0;
  LinkModel link_model = LinkModel::kDisc;
  double shadow_certain_frac = 0.6;  ///< below this fraction of range: P=1
  double shadow_max_frac = 1.8;      ///< above this fraction of range: P=0
  std::uint64_t seed = 1;
};

class ApNetwork {
 public:
  /// Disc-model network with the given symmetric range.
  ApNetwork(std::vector<AccessPoint> aps, double range_m);

  /// Network with an explicit link model (see LinkModel).
  ApNetwork(std::vector<AccessPoint> aps, const PlacementConfig& config);

  const std::vector<AccessPoint>& aps() const { return aps_; }
  std::size_t ap_count() const { return aps_.size(); }
  const AccessPoint& ap(ApId id) const { return aps_.at(id); }
  double transmission_range() const { return range_m_; }

  /// Symmetric connectivity graph (edge weight = distance in meters).
  const graphx::Graph& graph() const { return graph_; }

  /// Spatial index over AP positions.
  const geo::SpatialGrid& grid() const { return grid_; }

  /// APs owned by a building (possibly empty).
  const std::vector<ApId>& aps_of_building(osmx::BuildingId b) const;

  /// Any AP of the building, preferring the one closest to the centroid;
  /// nullopt when the building has no AP.
  std::optional<ApId> representative_ap(const osmx::City& city, osmx::BuildingId b) const;

  /// Connected components of the AP graph.
  const graphx::Components& components() const { return components_; }

  /// True if a multi-hop AP path exists between the two APs.
  bool connected(ApId a, ApId b) const {
    return components_.component_of[a] == components_.component_of[b];
  }

  /// Fewest AP hops from `from` to the nearest of `targets` (a building is
  /// `aps_of_building(b)`): the denominator of the paper's transmission-
  /// overhead metric. 0 when `from` is a target; nullopt when no target
  /// shares `from`'s component (an empty span included), answered from the
  /// component labels without a search. Otherwise a BFS from `from` that
  /// returns on the first target it reaches, so a send
  /// visits the ball of radius min_hops around `from`, not the whole graph;
  /// its one-byte-per-AP mark buffer is still O(ap_count()). Buffers are per
  /// call: the network is shared read-only across threads. Throws
  /// std::out_of_range for an AP id past ap_count().
  std::optional<std::size_t> min_hops(ApId from, std::span<const ApId> targets) const;

 private:
  std::vector<AccessPoint> aps_;
  double range_m_;
  graphx::Graph graph_;
  geo::SpatialGrid grid_;
  graphx::Components components_;
  std::vector<std::vector<ApId>> by_building_;
  std::vector<ApId> empty_;
};

/// Place APs inside the city's building footprints per the config.
ApNetwork place_aps(const osmx::City& city, const PlacementConfig& config);

}  // namespace citymesh::mesh
