#include "mesh/ap_network.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "graphx/link_builder.hpp"

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

  for (std::size_t i = 0; i < aps_.size(); ++i) {
    if (aps_[i].id != i) throw std::invalid_argument{"ApNetwork: AP ids must equal their index"};
  }
  // The building -> AP index, counting-sorted: ids ascend within a building.
  if (!aps_.empty()) {
    osmx::BuildingId max_building = 0;
    for (const auto& ap : aps_) max_building = std::max(max_building, ap.building);
    // Count into each building's own slot, sum to each one's end, then
    // place from the last AP back, which leaves each slot at its start.
    building_first_.assign(std::size_t{max_building} + 2, 0);
    for (const auto& ap : aps_) ++building_first_[ap.building];
    for (std::size_t b = 1; b < building_first_.size(); ++b) {
      building_first_[b] += building_first_[b - 1];
    }
    building_aps_.resize(aps_.size());
    for (auto ap = aps_.rbegin(); ap != aps_.rend(); ++ap) {
      building_aps_[--building_first_[ap->building]] = ap->id;
    }
  }

  // The connectivity graph: one link per admitted pair, decided on its
  // link_length(); the graph stores ids only. The shadowed model's draws
  // are seeded, and LinkBuilder makes them in a fixed order, so the
  // realized topology is reproducible.
  const bool disc = config.link_model == LinkModel::kDisc;
  const double reach = disc ? range_m_ : range_m_ * config.shadow_max_frac;
  const double certain = disc ? range_m_ : range_m_ * config.shadow_certain_frac;
  geo::Rng link_rng{config.seed ^ 0x51AD0E5ULL};
  graph_ = graphx::LinkBuilder::build(
      grid_, [reach](std::uint32_t) { return reach; },
      [](std::uint32_t, std::uint32_t, double) { return true; },
      [&](std::uint32_t a, std::uint32_t b) {
        const double d = link_length(a, b);
        return d <= certain || (d < reach && link_rng.chance((reach - d) / (reach - certain)));
      });
  components_ = graphx::connected_components(graph_);
}

std::optional<ApId> ApNetwork::representative_ap(const osmx::City& city,
                                                 osmx::BuildingId b) const {
  const std::span<const ApId> candidates = aps_of_building(b);
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

const ApNetwork::HopBounds& ApNetwork::hop_bounds() const {
  std::call_once(hop_bounds_once_, [this] {
    HopBounds table;
    for (ApId v = 0; v < aps_.size(); ++v) {
      for (const graphx::VertexId u : graph_.neighbors(v)) {
        table.longest_link = std::max(table.longest_link, link_length(v, u));
      }
    }
    if (aps_.empty()) {
      hop_bounds_ = std::move(table);
      return;
    }
    table.component = components_.largest();
    // Extreme AP per direction: the largest projection of its position onto
    // (north, east, south, west).
    constexpr std::array<geo::Point, kHopLandmarks> directions{
        {{0.0, 1.0}, {1.0, 0.0}, {0.0, -1.0}, {-1.0, 0.0}}};
    std::vector<ApId> chosen;
    for (const geo::Point dir : directions) {
      std::optional<ApId> best;
      double best_score = 0.0;
      for (const auto& ap : aps_) {
        if (components_.component_of[ap.id] != table.component) continue;
        const double score = ap.position.x * dir.x + ap.position.y * dir.y;
        if (!best || score > best_score) {
          best = ap.id;
          best_score = score;
        }
      }
      if (std::find(chosen.begin(), chosen.end(), *best) == chosen.end()) {
        chosen.push_back(*best);
      }
    }
    // One BFS per landmark, written straight into its column. Clamping at
    // 0xFFFE keeps the bound: |min(a, c) - min(b, c)| <= |a - b|.
    const std::size_t stride = chosen.size();
    table.landmark_count = stride;
    table.hops.assign(aps_.size() * stride, 0xFFFF);
    std::vector<ApId> frontier;
    std::vector<ApId> next;
    for (std::size_t l = 0; l < stride; ++l) {
      table.hops[chosen[l] * stride + l] = 0;
      frontier.assign(1, chosen[l]);
      for (std::uint32_t depth = 1; !frontier.empty(); ++depth) {
        const auto label = static_cast<std::uint16_t>(std::min<std::uint32_t>(depth, 0xFFFE));
        next.clear();
        for (const ApId v : frontier) {
          for (const graphx::VertexId u : graph_.neighbors(v)) {
            if (table.hops[u * stride + l] != 0xFFFF) continue;
            table.hops[u * stride + l] = label;
            next.push_back(u);
          }
        }
        frontier.swap(next);
      }
    }
    hop_bounds_ = std::move(table);
  });
  return hop_bounds_;
}

// The ideal-hop query is A* on hop count (unit weights) with
//
//   h(v) = max(h_geo(v), h_lm(v)),
//   h_geo(v) = ceil((1 - 1e-9) * |v - nearest target| / longest link),
//   h_lm(v)  = max over landmarks L of the distance from d_L(v) to the
//              interval [min_t d_L(t), max_t d_L(t)] over the targets.
//
// Admissible. A k-hop path spans at most k links of length <= longest link,
// so the real distance is at most k times it; the computed distances and the
// quotient carry a relative error of a few 2^-53, which the 1e-9 factor
// covers (h_geo may round down, never up). For the target t nearest in
// hops, hops(v, t) >= |d_L(v) - d_L(t)| >= the distance from d_L(v) to the
// interval. Consistent: both are 1-Lipschitz along a link, h_geo because
// each link is at most the longest one (the 1e-9 slack again covers the
// rounding below ~10^5 hops), h_lm exactly; so is their max. Hence
// f = g + h never drops along a link and rises by at most 2: three buckets
// keyed f mod 3 hold every open entry. An entry is stale when its g is no
// longer the vertex's label; the first pop of a vertex carries its final g.
// Targets are never queued: generating one records the path's length, and
// the search returns once the bucket key reaches the best length recorded
// (at once when the key already does), since every open path is at least
// as long as the key. A target's h is 0, so the answer equals the BFS's.
// Each bucket is a stack, so ties in f expand the deepest entry first.
std::optional<std::size_t> ApNetwork::min_hops(ApId from,
                                               std::span<const ApId> targets) const {
  const std::uint32_t component = components_.component_of.at(from);
  std::vector<ApId> reachable;
  for (const ApId t : targets) {
    if (t == from) return 0;
    if (components_.component_of.at(t) == component) reachable.push_back(t);
  }
  if (reachable.empty()) return std::nullopt;

  constexpr std::uint32_t kUnreached = std::numeric_limits<std::uint32_t>::max();
  constexpr std::uint32_t kTarget = kUnreached - 1;
  std::vector<std::uint32_t> label(aps_.size(), kUnreached);
  std::vector<geo::Point> target_at;
  target_at.reserve(reachable.size());
  for (const ApId t : reachable) {
    label[t] = kTarget;
    target_at.push_back(aps_[t].position);
  }

  // The landmark intervals, when `from` is in the landmarks' component (then
  // so is every reachable target).
  std::array<std::uint16_t, kHopLandmarks> lo{};
  std::array<std::uint16_t, kHopLandmarks> hi{};
  std::size_t landmarks = 0;
  const HopBounds& table = hop_bounds();
  if (table.component == component) {
    landmarks = table.landmark_count;
    lo.fill(0xFFFF);
    for (const ApId t : reachable) {
      for (std::size_t l = 0; l < landmarks; ++l) {
        const std::uint16_t d = table.hops[t * landmarks + l];
        lo[l] = std::min(lo[l], d);
        hi[l] = std::max(hi[l], d);
      }
    }
  }
  const double per_hop = table.longest_link > 0.0 ? (1.0 - 1e-9) / table.longest_link : 0.0;
  const auto bound = [&](ApId v) {
    std::uint32_t h = 0;
    if (per_hop > 0.0) {
      double d2 = std::numeric_limits<double>::infinity();
      for (const geo::Point p : target_at) d2 = std::min(d2, geo::distance2(aps_[v].position, p));
      h = static_cast<std::uint32_t>(std::ceil(std::sqrt(d2) * per_hop));
    }
    for (std::size_t l = 0; l < landmarks; ++l) {
      const std::uint16_t d = table.hops[v * landmarks + l];
      const std::uint32_t gap = d < lo[l] ? lo[l] - d : d > hi[l] ? d - hi[l] : 0;
      h = std::max(h, gap);
    }
    return h;
  };

  struct Entry {
    ApId v;
    std::uint32_t g;
  };
  std::array<std::vector<Entry>, 3> buckets;
  label[from] = 0;
  std::uint32_t key = bound(from);
  buckets[key % 3].push_back({from, 0});
  std::uint32_t best = kUnreached;
  for (;; ++key) {
    std::vector<Entry>& bucket = buckets[key % 3];
    while (!bucket.empty() && key < best) {
      const Entry e = bucket.back();
      bucket.pop_back();
      if (e.g != label[e.v]) continue;  // stale: relabelled shorter since
      const std::uint32_t g = e.g + 1;
      for (const graphx::VertexId u : graph_.neighbors(e.v)) {
        if (label[u] == kTarget) {
          if (g <= key) return g;  // no open path is shorter than the key
          best = std::min(best, g);
        } else if (g < label[u]) {
          label[u] = g;
          const std::uint32_t f = g + bound(u);
          assert(f >= key && f <= key + 2);
          buckets[f % 3].push_back({u, g});
        }
      }
    }
    if (key >= best) return best;
    if (buckets[0].empty() && buckets[1].empty() && buckets[2].empty()) break;
  }
  return std::nullopt;  // unreachable: the component labels said connected
}

std::vector<AccessPoint> sample_aps(const osmx::City& city, const PlacementConfig& config) {
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
      aps.push_back({static_cast<ApId>(aps.size()), building.id, p});
    }
  }
  return aps;
}

ApNetwork place_aps(const osmx::City& city, const PlacementConfig& config) {
  return ApNetwork{sample_aps(city, config), config};
}

}  // namespace citymesh::mesh
