#include "mesh/ap_network.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace citymesh::mesh {

namespace {

PlacementConfig disc_config(double range_m) {
  PlacementConfig cfg;
  cfg.transmission_range_m = range_m;
  cfg.link_model = LinkModel::kDisc;
  return cfg;
}

/// Bulk-built index over the AP positions, in the vector's order.
geo::SpatialGrid ap_grid(const std::vector<AccessPoint>& aps, double cell_size) {
  std::vector<std::uint32_t> ids;
  std::vector<geo::Point> positions;
  ids.reserve(aps.size());
  positions.reserve(aps.size());
  for (const auto& ap : aps) {
    ids.push_back(ap.id);
    positions.push_back(ap.position);
  }
  return geo::SpatialGrid{cell_size, ids, positions};
}

}  // namespace

ApNetwork::ApNetwork(std::vector<AccessPoint> aps, double range_m)
    : ApNetwork(std::move(aps), disc_config(range_m)) {}

ApNetwork::ApNetwork(std::vector<AccessPoint> aps, const PlacementConfig& config)
    : aps_(std::move(aps)),
      range_m_(config.transmission_range_m),
      grid_(ap_grid(aps_, std::max(config.transmission_range_m, 1.0))) {
  if (range_m_ <= 0.0) throw std::invalid_argument{"ApNetwork: range must be > 0"};
  if (config.link_model == LinkModel::kShadowed &&
      (config.shadow_certain_frac <= 0.0 ||
       config.shadow_max_frac < config.shadow_certain_frac)) {
    throw std::invalid_argument{"ApNetwork: invalid shadowing fractions"};
  }

  osmx::BuildingId max_building = 0;
  for (const auto& ap : aps_) max_building = std::max(max_building, ap.building);
  by_building_.resize(aps_.empty() ? 0 : max_building + 1);

  for (const auto& ap : aps_) by_building_[ap.building].push_back(ap.id);

  // Build the connectivity graph: one edge per admitted pair. The grid
  // query returns both orderings; keep a < b to add each edge once. Link
  // admission is per the model; the shadowed draw is seeded so the realized
  // topology is reproducible.
  const double query_radius = config.link_model == LinkModel::kDisc
                                  ? range_m_
                                  : range_m_ * config.shadow_max_frac;
  geo::Rng link_rng{config.seed ^ 0x51AD0E5ULL};
  graphx::GraphBuilder builder{aps_.size()};
  for (const auto& ap : aps_) {
    grid_.for_each_in_radius(ap.position, query_radius, [&](std::uint32_t other, geo::Point p) {
      if (other <= ap.id) return;
      const double d = geo::distance(ap.position, p);
      bool linked = false;
      if (config.link_model == LinkModel::kDisc) {
        linked = d <= range_m_;
      } else {
        const double certain = range_m_ * config.shadow_certain_frac;
        const double max_d = range_m_ * config.shadow_max_frac;
        if (d <= certain) {
          linked = true;
        } else if (d < max_d) {
          const double p_link = (max_d - d) / (max_d - certain);
          linked = link_rng.chance(p_link);
        }
      }
      if (linked) builder.add_edge(ap.id, other, d);
    });
  }
  graph_ = builder.build();
  components_ = graphx::connected_components(graph_);
}

const std::vector<ApId>& ApNetwork::aps_of_building(osmx::BuildingId b) const {
  if (b >= by_building_.size()) return empty_;
  return by_building_[b];
}

std::optional<ApId> ApNetwork::representative_ap(const osmx::City& city,
                                                 osmx::BuildingId b) const {
  const auto& candidates = aps_of_building(b);
  if (candidates.empty()) return std::nullopt;
  const geo::Point centroid = city.building(b).centroid;
  ApId best = candidates.front();
  double best_d2 = geo::distance2(aps_[best].position, centroid);
  for (const ApId id : candidates) {
    const double d2 = geo::distance2(aps_[id].position, centroid);
    if (d2 < best_d2) {
      best = id;
      best_d2 = d2;
    }
  }
  return best;
}

std::optional<std::size_t> ApNetwork::min_hops(ApId from,
                                               std::span<const ApId> targets) const {
  const std::uint32_t component = components_.component_of.at(from);
  bool reachable = false;
  for (const ApId t : targets) {
    if (t == from) return 0;
    reachable |= components_.component_of.at(t) == component;
  }
  if (!reachable) return std::nullopt;

  // A BFS from `from`, one whole level at a time, that returns on the
  // first target it reaches: every vertex of the levels before is closer,
  // and none of them was a target.
  enum : std::uint8_t { kUnseen, kSeen, kTarget };
  std::vector<std::uint8_t> mark(aps_.size(), kUnseen);
  for (const ApId t : targets) mark[t] = kTarget;
  mark[from] = kSeen;
  std::vector<ApId> frontier{from};
  std::vector<ApId> next;
  for (std::size_t depth = 1; !frontier.empty(); ++depth) {
    next.clear();
    for (const ApId v : frontier) {
      for (const graphx::VertexId u : graph_.neighbors(v).ids()) {
        if (mark[u] == kTarget) return depth;
        if (mark[u] == kUnseen) {
          mark[u] = kSeen;
          next.push_back(u);
        }
      }
    }
    frontier.swap(next);
  }
  return std::nullopt;  // unreachable: the component labels said connected
}

ApNetwork place_aps(const osmx::City& city, const PlacementConfig& config) {
  if (config.density_per_m2 <= 0.0) {
    throw std::invalid_argument{"place_aps: density must be > 0"};
  }
  geo::Rng rng{config.seed};
  std::vector<AccessPoint> aps;

  for (const auto& building : city.buildings()) {
    const double expected = building.area_m2() * config.density_per_m2;
    // Integer part plus a Bernoulli draw for the fraction keeps the global
    // density exact in expectation without a full Poisson sampler.
    std::size_t count = static_cast<std::size_t>(expected);
    if (rng.chance(expected - std::floor(expected))) ++count;

    const auto bounds = building.footprint.bounds();
    if (!bounds) continue;
    for (std::size_t i = 0; i < count; ++i) {
      // Rejection-sample a point inside the footprint.
      geo::Point p;
      bool placed = false;
      for (int attempt = 0; attempt < 64; ++attempt) {
        p = {rng.uniform(bounds->min.x, bounds->max.x),
             rng.uniform(bounds->min.y, bounds->max.y)};
        if (building.footprint.contains(p)) {
          placed = true;
          break;
        }
      }
      if (!placed) p = building.centroid;  // degenerate footprint fallback
      aps.push_back({static_cast<ApId>(aps.size()), p, building.id});
    }
  }
  return ApNetwork{std::move(aps), config};
}

}  // namespace citymesh::mesh
