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
#include <mutex>
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

  /// Symmetric connectivity graph: ids only. A link's length is
  /// link_length() of its two ends.
  const graphx::Topology& graph() const { return graph_; }

  /// Spatial index over AP positions.
  const geo::SpatialGrid& grid() const { return grid_; }

  /// AP positions by id, one dense array (the grid's).
  std::span<const geo::Point> positions() const { return grid_.positions(); }

  /// The length of the link (a, b) in meters: the distance of the two APs'
  /// positions, the one expression the link model decided the link on. It
  /// is bit-identical for (b, a), since a - b is exactly -(b - a), so every
  /// reader (the medium's fan-out, the tile cut, min_hops' bound) gets the
  /// same length from either end.
  double link_length(ApId a, ApId b) const {
    const std::span<const geo::Point> at = positions();
    return geo::distance(at[a], at[b]);
  }

  /// APs owned by a building, ascending (empty for a building without an
  /// AP, any id past the last AP's building included). A view into one CSR
  /// index over all APs, valid as long as the network.
  std::span<const ApId> aps_of_building(osmx::BuildingId b) const {
    if (b + std::size_t{1} >= building_first_.size()) return {};
    const ApId* first = building_aps_.data();
    return {first + building_first_[b], first + building_first_[b + 1]};
  }

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
  /// component labels without a search. Otherwise an exact A* search on hop
  /// count from `from` (see the .cpp), steered by two admissible, consistent
  /// bounds: ⌈distance to the nearest target / longest link⌉, and the hop
  /// landmarks' interval bound when `from` lies in their component. It visits
  /// a corridor toward the targets, not the ball of radius min_hops; its
  /// four-byte-per-AP label buffer is still O(ap_count()). Buffers are per
  /// call: the network is shared read-only across threads. Throws
  /// std::out_of_range for an AP id past ap_count().
  std::optional<std::size_t> min_hops(ApId from, std::span<const ApId> targets) const;

  /// Hop landmarks: the northmost, eastmost, southmost and westmost APs of
  /// the largest component (lowest id on a tie; duplicates dropped).
  static constexpr std::size_t kHopLandmarks = 4;

  /// What min_hops' bounds read. Built on first use, once per network and
  /// thread-safely, so every CityMeshNetwork on a CompiledCity shares it and
  /// a city that never asks for min_hops never pays for it.
  struct HopBounds {
    /// The longest link_length() over graph(), in meters (0 without
    /// links): no path of k hops spans more than k times this.
    double longest_link = 0.0;
    /// The hop landmarks' component (the largest).
    std::uint32_t component = 0;
    std::size_t landmark_count = 0;
    /// BFS hop counts from each hop landmark, contiguous per AP: row v
    /// holds landmark_count entries (the hop count clamped to 0xFFFE;
    /// 0xFFFF for an AP outside the landmarks' component).
    std::vector<std::uint16_t> hops;
  };
  const HopBounds& hop_bounds() const;

 private:
  std::vector<AccessPoint> aps_;
  double range_m_;
  graphx::Topology graph_;
  geo::SpatialGrid grid_;
  graphx::Components components_;
  /// The building -> AP index as CSR: building b's APs are
  /// building_aps_[building_first_[b] .. building_first_[b + 1]); one entry
  /// per building up to the last AP's, plus one.
  std::vector<std::uint32_t> building_first_;
  std::vector<ApId> building_aps_;
  mutable std::once_flag hop_bounds_once_;
  mutable HopBounds hop_bounds_;
};

/// The APs place_aps puts inside the city's building footprints, by id.
std::vector<AccessPoint> sample_aps(const osmx::City& city, const PlacementConfig& config);

/// Place APs inside the city's building footprints per the config.
ApNetwork place_aps(const osmx::City& city, const PlacementConfig& config);

}  // namespace citymesh::mesh
