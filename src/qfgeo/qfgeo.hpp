// QF-Geo: capacity-aware bounded-region geographic routing (src/qfgeo).
//
// The paper's §5 claim — conduit-scoped flooding beats classical mesh
// routing at city scale — needs a live competitor, not just the static
// graph baselines in routing/baselines. QF-Geo (arXiv 2305.05718) is the
// structurally closest published relative of conduits: instead of flooding
// a corridor around a *planned* building route, it floods nothing at all —
// packets are forwarded greedily by distance to the destination, but only
// by nodes inside a *bounded forwarding region* (an ellipse/lens between
// source and destination, widened by a stretch factor), and each forwarding
// election is penalized by the candidate's queue occupancy (capacity
// awareness).
//
// This module is the protocol's pure-geometry/pure-arithmetic half, kept
// below core in the dependency order (core wires it into the simulator):
//
//   Region        the bounded forwarding region: an ellipse with foci at
//                 the source and destination points. p is inside iff
//                 d(p,src) + d(p,dst) <= threshold, with
//                 threshold = max(stretch * d(src,dst), d(src,dst) + 2*slack)
//                 — the stretch term widens long routes proportionally, the
//                 slack term gives short routes a usable region at all
//                 (a pure stretch factor collapses to the chord as d -> 0).
//
//   region_members  the compile-once membership set: building/point ids
//                 whose position lies inside the region, found by querying
//                 a SpatialGrid over the region's bounding box and refining
//                 with the exact ellipse test — the same
//                 grid-prefilter-then-exact-predicate shape as
//                 core::compile_message, so the per-reception membership
//                 check stays one bitmap load (geo::IdBitmap).
//
//   forward_delay  the greedy election: receiver-side contention-based
//                 forwarding (GeRaF/BLR style). Every in-region receiver
//                 that makes progress toward the destination arms a
//                 deterministic timer; receivers closer to the destination
//                 fire earlier, and each queued packet at the receiver adds
//                 a capacity penalty, so a congested best-positioned AP
//                 yields to an idle slightly-worse one. No RNG draws —
//                 the delay is a pure function of (geometry, queue depth),
//                 which keeps tiled (src/shardx) runs shard-invariant.
#pragma once

#include <cstddef>
#include <cstdint>

#include "geo/geometry.hpp"
#include "geo/id_bitmap.hpp"
#include "geo/spatial_grid.hpp"

namespace citymesh::qfgeo {

/// Shape parameters of the bounded forwarding region.
struct RegionConfig {
  /// Ellipse sum threshold as a multiple of the src-dst distance. 1.0 is
  /// the degenerate chord; QF-Geo's evaluation uses small stretches so the
  /// region hugs the straight line.
  double stretch = 1.25;
  /// Minimum widening in meters: threshold >= d + 2 * slack_m, so nearby
  /// pairs still get a region wider than one building.
  double slack_m = 60.0;
};

/// The bounded forwarding region between one source/destination pair.
/// Immutable after make_region; contains() is allocation-free.
struct Region {
  geo::Point src;
  geo::Point dst;
  /// Focal-sum threshold: p inside iff d(p,src) + d(p,dst) <= threshold_m.
  double threshold_m = 0.0;

  bool contains(geo::Point p) const {
    return geo::distance(p, src) + geo::distance(p, dst) <= threshold_m;
  }

  /// Loose axis-aligned bounds (a superset of the ellipse): every interior
  /// point lies within the semi-major axis a = threshold/2 of the center in
  /// each coordinate.
  geo::Rect bounds() const {
    const double a = threshold_m / 2.0;
    const geo::Point c{(src.x + dst.x) / 2.0, (src.y + dst.y) / 2.0};
    return geo::Rect{{c.x - a, c.y - a}, {c.x + a, c.y + a}};
  }
};

Region make_region(geo::Point src, geo::Point dst, const RegionConfig& config);

/// Ids (grid point indices — building ids when the grid indexes building
/// centroids) whose position lies inside the region: grid candidates over
/// the loose bounds, refined by the exact ellipse predicate; a bitmap over
/// the members' id range.
geo::IdBitmap region_members(const Region& region, const geo::SpatialGrid& grid);

/// Greedy forwarding-election timing.
struct ForwarderConfig {
  /// Delay floor: even the best-positioned receiver waits this long, giving
  /// the medium a window to surface competing copies for overhear-cancel.
  double base_delay_s = 0.002;
  /// Delay ceiling for a receiver that made (almost) no progress. The
  /// receiver's *progress in meters* interpolates between max (no progress)
  /// and base (progress >= progress_norm_m). Normalizing by meters of
  /// progress — not by the remaining-distance ratio — is what makes the
  /// election discriminate: two receivers 5 m apart in progress are spaced
  /// (max - base) * 5 / progress_norm_m apart in time, enough for the
  /// winner's transmission to overhear-cancel the runner-up before it fires.
  double max_delay_s = 0.2;
  /// Progress that earns the minimum delay; the transmission range is the
  /// natural scale (no receiver can progress further than one radio hop).
  double progress_norm_m = 50.0;
  /// Capacity awareness — each packet sitting in the receiver's transmit
  /// queue pushes its election back by this much, so congested APs lose the
  /// election to idle ones (QF-Geo's queue-length penalty).
  double capacity_penalty_s = 0.004;
};

/// Deterministic election delay for one in-region receiver that made
/// positive progress. `my_dist_m`/`from_dist_m` are the receiver's and the
/// transmitter's distances to the destination (my_dist_m < from_dist_m);
/// `queued` is the receiver's current transmit-queue depth.
double forward_delay(const ForwarderConfig& config, double my_dist_m,
                     double from_dist_m, std::size_t queued);

}  // namespace citymesh::qfgeo
