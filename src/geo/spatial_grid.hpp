// A fixed-cell spatial index over 2D points.
//
// CityMesh needs two geometric queries at scale: "which APs are within the
// transmission range of this AP" (mesh construction) and "which APs fall
// inside this conduit's bounding box" (rebroadcast simulation). A uniform
// grid whose cell size matches the query radius answers both in O(k) for k
// results, and builds in O(n log n) — adequate for millions of APs and far
// simpler than an R-tree (P.11: encapsulate the messy construct once).
//
// Layout: a flat, immutable CSR over the *occupied* cells only. Cells are
// sorted by (row, column) — row = floor(y / cell), column = floor(x / cell)
// — and each occupied row owns a contiguous run of cells; each cell owns a
// contiguous run of item ids, kept in insertion order. Points live in one
// vector indexed by id. A query binary-searches the occupied rows and, in
// each, the occupied columns of its range, so it costs O(log n + occupied
// cells in range + hits) however large the query rectangle is, and memory is
// O(points + occupied cells) whatever the coordinate extent (OSM input can
// be hostile: a 100 km broadcast radius must not probe 4M empty cells).
//
// Queries visit candidates in (row, column, insertion) order — "grid
// order". for_each_pair() sweeps the whole index once instead: each point
// looks only forward in grid order (a half stencil), so every unordered pair
// is tested once. graphx/link_builder.hpp builds the AP and building graphs
// from it and states the neighbour order that follows.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "geo/geometry.hpp"
#include "geo/point.hpp"

namespace citymesh::geo {

/// Maps item ids (caller-defined dense indices) to points and supports
/// radius and rectangle queries.
class SpatialGrid {
 public:
  /// `cell_size` should be close to the typical query radius.
  explicit SpatialGrid(double cell_size);

  /// Bulk-build from a vector of points; item id i is points[i].
  SpatialGrid(double cell_size, std::span<const Point> points);

  /// Bulk-build with explicit (possibly sparse) ids: item ids[k] sits at
  /// points[k], and insertion order is k. Throws std::invalid_argument on a
  /// repeated id or mismatched lengths.
  SpatialGrid(double cell_size, std::span<const std::uint32_t> ids,
              std::span<const Point> points);

  /// Add one item. Slow path (rebuilds the index, O(n log n)); library code
  /// bulk-builds instead.
  void insert(std::uint32_t id, Point p);

  std::size_t size() const { return ids_.size(); }
  double cell_size() const { return cell_size_; }

  /// Point registered for `id`. Precondition: id was inserted; throws
  /// std::out_of_range past the largest inserted id.
  Point position(std::uint32_t id) const { return points_.at(id); }

  /// Ids of all items with distance(point, center) <= radius.
  std::vector<std::uint32_t> query_radius(Point center, double radius) const;

  /// Invoke `fn(id, point)` for all items within `radius` of `center`, in
  /// (row, column, insertion) order.
  template <class Fn>
  void for_each_in_radius(Point center, double radius, Fn&& fn) const {
    if (!(radius >= 0.0)) return;
    const double r2 = radius * radius;
    for_each_candidate({{center.x - radius, center.y - radius},
                        {center.x + radius, center.y + radius}},
                       [&](std::uint32_t id) {
                         const Point p = points_[id];
                         if (distance2(p, center) <= r2) fn(id, p);
                       });
  }

  /// Ids of all items inside the axis-aligned rectangle, in (row, column,
  /// insertion) order.
  std::vector<std::uint32_t> query_rect(const Rect& r) const;

  /// One past the largest inserted id (0 when empty).
  std::size_t id_bound() const { return points_.size(); }

  /// Every item id in grid order. An item's index here is its *rank*.
  std::span<const std::uint32_t> grid_order() const { return ids_; }

  /// Invoke `fn(i, j, d2)` once for every unordered pair of items, given by
  /// rank i < j, with d2 = their squared distance <= reach(grid_order()[i])²;
  /// a reach below 0 (or NaN) gives that item no pairs. Pairs come grouped
  /// by i ascending, and within a group j ascends. A caller whose link test
  /// is symmetric passes a reach that bounds its links from either end.
  ///
  /// A half-stencil sweep: each occupied cell scans the rest of itself, the
  /// occupied cells after it in its row, and the occupied rows below it
  /// within the reach of its points — one contiguous run of ids per row,
  /// found once per cell, never per point. It walks occupied rows and cells
  /// only, so one huge reach costs the pairs it admits, not the empty cells
  /// it spans.
  template <class Reach, class Fn>
  void for_each_pair(Reach&& reach, Fn&& fn) const {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    // Positions in grid order: every run the stencil scans is contiguous.
    std::vector<Point> at(ids_.size());
    for (std::size_t k = 0; k < ids_.size(); ++k) at[k] = points_[ids_[k]];
    std::vector<std::pair<std::uint32_t, std::uint32_t>> runs;  // the rows below
    for (std::size_t ri = 0; ri + 1 < row_begin_.size(); ++ri) {
      const auto row_end = cell_cols_.begin() + row_begin_[ri + 1];
      for (std::uint32_t ci = row_begin_[ri]; ci < row_begin_[ri + 1]; ++ci) {
        const std::uint32_t first = cell_begin_[ci];
        const std::uint32_t last = cell_begin_[ci + 1];
        // The cell's stencil covers every point of it: its widest reach
        // from its extreme coordinates. The 1e-9 relative slack keeps a pair
        // whose rounded d2 passes inside the stencil.
        double r = 0.0, min_x = kInf, max_x = -kInf, max_y = -kInf;
        for (std::uint32_t k = first; k < last; ++k) {
          r = std::max(r, static_cast<double>(reach(ids_[k])));
          min_x = std::min(min_x, at[k].x);
          max_x = std::max(max_x, at[k].x);
          max_y = std::max(max_y, at[k].y);
        }
        r *= 1.0 + 1e-9;
        const std::int64_t hi_row = cell_coord(max_y + r);
        const std::int64_t lo_col = cell_coord(min_x - r);
        const std::int64_t hi_col = cell_coord(max_x + r);
        const auto own_end = std::upper_bound(cell_cols_.begin() + ci + 1, row_end, hi_col);
        const std::uint32_t row_run_end = cell_begin_[own_end - cell_cols_.begin()];
        runs.clear();
        const auto cells = cell_cols_.begin();
        for (std::size_t rj = ri + 1; rj < row_keys_.size() && row_keys_[rj] <= hi_row; ++rj) {
          const auto row_cells_end = cells + row_begin_[rj + 1];
          const auto lo = std::lower_bound(cells + row_begin_[rj], row_cells_end, lo_col);
          const auto hi = std::upper_bound(lo, row_cells_end, hi_col);
          if (lo != hi) runs.emplace_back(cell_begin_[lo - cells], cell_begin_[hi - cells]);
        }
        for (std::uint32_t k = first; k < last; ++k) {
          const double reach_a = reach(ids_[k]);
          if (!(reach_a >= 0.0)) continue;
          const double r2 = reach_a * reach_a;
          const Point p = at[k];
          const auto scan = [&](std::uint32_t begin, std::uint32_t end) {
            for (std::uint32_t j = begin; j < end; ++j) {
              const double d2 = distance2(at[j], p);
              if (d2 <= r2) fn(k, j, d2);
            }
          };
          scan(k + 1, row_run_end);  // the rest of the cell, then its row
          for (const auto& [begin, end] : runs) scan(begin, end);
        }
      }
    }
  }

 private:
  /// Cell coordinate of one axis value. Values whose cell index would not
  /// fit (or NaN) saturate, so hostile coordinates cannot overflow the cast.
  std::int64_t cell_coord(double v) const;

  /// Rebuild the CSR from ids_ (taken as insertion order) and points_.
  void build_index();

  /// Invoke `visit(id)` for every item in an occupied cell overlapping the
  /// rectangle, in (row, column, insertion) order.
  template <class Visit>
  void for_each_candidate(const Rect& r, Visit&& visit) const {
    const std::int64_t lo_row = cell_coord(r.min.y);
    const std::int64_t hi_row = cell_coord(r.max.y);
    const std::int64_t lo_col = cell_coord(r.min.x);
    const std::int64_t hi_col = cell_coord(r.max.x);
    auto row = std::lower_bound(row_keys_.begin(), row_keys_.end(), lo_row);
    for (; row != row_keys_.end() && *row <= hi_row; ++row) {
      const auto ri = static_cast<std::size_t>(row - row_keys_.begin());
      const auto cells_end = cell_cols_.begin() + row_begin_[ri + 1];
      auto cell = std::lower_bound(cell_cols_.begin() + row_begin_[ri], cells_end, lo_col);
      for (; cell != cells_end && *cell <= hi_col; ++cell) {
        const auto ci = static_cast<std::size_t>(cell - cell_cols_.begin());
        for (std::uint32_t k = cell_begin_[ci]; k < cell_begin_[ci + 1]; ++k) visit(ids_[k]);
      }
    }
  }

  double cell_size_;
  std::vector<Point> points_;              ///< by id; ids never inserted hold NaN
  std::vector<std::int64_t> row_keys_;     ///< occupied rows, ascending
  std::vector<std::uint32_t> row_begin_;   ///< row i's cells: [row_begin_[i], row_begin_[i+1])
  std::vector<std::int64_t> cell_cols_;    ///< column per occupied cell, ascending per row
  std::vector<std::uint32_t> cell_begin_;  ///< cell c's ids: [cell_begin_[c], cell_begin_[c+1])
  std::vector<std::uint32_t> ids_;         ///< ids grouped by cell, insertion order within
};

}  // namespace citymesh::geo
