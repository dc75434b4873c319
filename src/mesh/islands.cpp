#include "mesh/islands.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace citymesh::mesh {

IslandReport analyze_islands(const ApNetwork& network) {
  IslandReport report;
  auto sizes = network.components().sizes();
  std::sort(sizes.begin(), sizes.end(), std::greater<>());
  report.island_count = sizes.size();
  report.sizes = std::move(sizes);
  if (!report.sizes.empty() && network.ap_count() > 0) {
    report.largest_fraction =
        static_cast<double>(report.sizes.front()) / static_cast<double>(network.ap_count());
  }
  return report;
}

namespace {

/// Evenly sub-sample up to `limit` ids (keeps closest-pair search tractable
/// on large islands without biasing toward any region).
std::vector<ApId> sample_ids(const std::vector<ApId>& ids, std::size_t limit) {
  if (ids.size() <= limit) return ids;
  std::vector<ApId> out;
  out.reserve(limit);
  const double stride = static_cast<double>(ids.size()) / static_cast<double>(limit);
  for (std::size_t i = 0; i < limit; ++i) {
    out.push_back(ids[static_cast<std::size_t>(i * stride)]);
  }
  return out;
}

struct ClosestPair {
  ApId a = 0;
  ApId b = 0;
  double dist = std::numeric_limits<double>::infinity();
};

ClosestPair closest_pair(const ApNetwork& net, const std::vector<ApId>& sa,
                         const std::vector<ApId>& sb) {
  ClosestPair best;
  for (const ApId ia : sa) {
    const geo::Point pa = net.ap(ia).position;
    for (const ApId ib : sb) {
      const double d = geo::distance(pa, net.ap(ib).position);
      if (d < best.dist) best = {ia, ib, d};
    }
  }
  return best;
}

}  // namespace

BridgePlan plan_bridges(const ApNetwork& network, std::size_t target_islands,
                        std::size_t max_new_aps, std::size_t min_island_size) {
  BridgePlan plan;
  const auto& comps = network.components();
  plan.islands_before = comps.count;

  // Collect member lists for islands worth bridging.
  std::vector<std::vector<ApId>> islands(comps.count);
  for (ApId id = 0; id < network.ap_count(); ++id) {
    islands[comps.component_of[id]].push_back(id);
  }
  std::erase_if(islands, [&](const auto& v) { return v.size() < min_island_size; });
  std::sort(islands.begin(), islands.end(),
            [](const auto& a, const auto& b) { return a.size() > b.size(); });
  plan.islands_after = islands.size();

  constexpr std::size_t kSampleLimit = 400;
  const double spacing = network.transmission_range() * 0.8;

  while (islands.size() > std::max<std::size_t>(target_islands, 1) &&
         plan.new_aps.size() < max_new_aps) {
    // Connect the second-largest island to the largest.
    auto& primary = islands[0];
    std::size_t best_other = 1;
    ClosestPair best;
    const auto sp = sample_ids(primary, kSampleLimit);
    for (std::size_t i = 1; i < islands.size(); ++i) {
      const auto cp = closest_pair(network, sp, sample_ids(islands[i], kSampleLimit));
      if (cp.dist < best.dist) {
        best = cp;
        best_other = i;
      }
    }
    if (!std::isfinite(best.dist)) break;

    const geo::Point from = network.ap(best.a).position;
    const geo::Point to = network.ap(best.b).position;
    const auto gap_hops = static_cast<std::size_t>(std::ceil(best.dist / spacing));
    for (std::size_t h = 1; h < gap_hops; ++h) {
      if (plan.new_aps.size() >= max_new_aps) break;
      plan.new_aps.push_back(
          geo::lerp(from, to, static_cast<double>(h) / static_cast<double>(gap_hops)));
    }

    // Merge the bridged island into the primary and continue.
    primary.insert(primary.end(), islands[best_other].begin(), islands[best_other].end());
    islands.erase(islands.begin() + static_cast<std::ptrdiff_t>(best_other));
    plan.islands_after = islands.size();
  }
  return plan;
}

ApNetwork apply_bridges(const ApNetwork& network, const BridgePlan& plan) {
  std::vector<AccessPoint> aps = network.aps();
  for (const geo::Point p : plan.new_aps) {
    // Attribute the bridge AP to the building of the nearest existing AP so
    // downstream building lookups stay well-defined.
    osmx::BuildingId owner = 0;
    double best = std::numeric_limits<double>::infinity();
    // Search an expanding radius; bridges are near island edges so the
    // nearest AP is close in practice.
    for (double r = network.transmission_range(); r < 1e7; r *= 4.0) {
      bool found = false;
      network.grid().for_each_in_radius(p, r, [&](std::uint32_t id, geo::Point q) {
        const double d = geo::distance(p, q);
        if (d < best) {
          best = d;
          owner = network.ap(id).building;
          found = true;
        }
      });
      if (found) break;
    }
    aps.push_back({static_cast<ApId>(aps.size()), owner, p});
  }
  return ApNetwork{std::move(aps), network.transmission_range()};
}

}  // namespace citymesh::mesh
