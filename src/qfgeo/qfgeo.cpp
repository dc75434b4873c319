#include "qfgeo/qfgeo.hpp"

#include <algorithm>

namespace citymesh::qfgeo {

namespace {

/// Candidate inflation for the grid pre-filter, mirroring
/// core/compiled_message: the exact ellipse test decides membership, the
/// bounding-box query only has to be a superset, so a small margin absorbs
/// floating-point disagreement at the boundary.
constexpr double kBoundsMargin = 1e-3;

}  // namespace

Region make_region(geo::Point src, geo::Point dst, const RegionConfig& config) {
  Region region;
  region.src = src;
  region.dst = dst;
  const double d = geo::distance(src, dst);
  region.threshold_m = std::max(config.stretch * d, d + 2.0 * config.slack_m);
  return region;
}

geo::IdBitmap region_members(const Region& region, const geo::SpatialGrid& grid) {
  geo::IdBitmap members{static_cast<std::uint32_t>(grid.id_bound())};
  for (const std::uint32_t id :
       grid.query_rect(region.bounds().expanded(kBoundsMargin))) {
    if (region.contains(grid.position(id))) members.insert(id);
  }
  members.trim();
  return members;
}

double forward_delay(const ForwarderConfig& config, double my_dist_m,
                     double from_dist_m, std::size_t queued) {
  // Progress in meters toward the destination, normalized by one radio hop:
  // 1 = a full hop of progress (earliest election), 0 = none (latest).
  // Meter-normalized spacing is what lets the winner's transmission
  // overhear-cancel runners-up: receivers a few meters apart in progress are
  // milliseconds apart in time, not microseconds. Clamped so a receiver
  // marginally farther than the transmitter (callers shouldn't pass one)
  // still gets a finite delay.
  const double norm = config.progress_norm_m > 0.0 ? config.progress_norm_m : 1.0;
  const double progress = std::clamp((from_dist_m - my_dist_m) / norm, 0.0, 1.0);
  const double spread = std::max(0.0, config.max_delay_s - config.base_delay_s);
  return config.base_delay_s + spread * (1.0 - progress) +
         config.capacity_penalty_s * static_cast<double>(queued);
}

}  // namespace citymesh::qfgeo
