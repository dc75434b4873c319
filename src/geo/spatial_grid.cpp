#include "geo/spatial_grid.hpp"

#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace citymesh::geo {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

}  // namespace

SpatialGrid::SpatialGrid(double cell_size) : cell_size_(cell_size) {
  if (!(cell_size > 0.0)) throw std::invalid_argument{"SpatialGrid: cell_size must be > 0"};
}

SpatialGrid::SpatialGrid(double cell_size, std::span<const Point> points)
    : SpatialGrid(cell_size) {
  points_.assign(points.begin(), points.end());
  ids_.resize(points.size());
  std::iota(ids_.begin(), ids_.end(), std::uint32_t{0});
  build_index();
}

SpatialGrid::SpatialGrid(double cell_size, std::span<const std::uint32_t> ids,
                         std::span<const Point> points)
    : SpatialGrid(cell_size) {
  if (ids.size() != points.size()) {
    throw std::invalid_argument{"SpatialGrid: ids and points differ in length"};
  }
  std::uint32_t max_id = 0;
  for (const std::uint32_t id : ids) max_id = std::max(max_id, id);
  std::vector<char> seen(ids.empty() ? 0 : std::size_t{max_id} + 1, 0);
  points_.assign(seen.size(), {kNaN, kNaN});
  for (std::size_t k = 0; k < ids.size(); ++k) {
    if (seen[ids[k]] != 0) throw std::invalid_argument{"SpatialGrid: repeated id"};
    seen[ids[k]] = 1;
    points_[ids[k]] = points[k];
  }
  ids_.assign(ids.begin(), ids.end());
  build_index();
}

void SpatialGrid::insert(std::uint32_t id, Point p) {
  if (std::find(ids_.begin(), ids_.end(), id) != ids_.end()) {
    throw std::invalid_argument{"SpatialGrid: repeated id"};
  }
  if (id >= points_.size()) points_.resize(std::size_t{id} + 1, {kNaN, kNaN});
  points_[id] = p;
  // ids_ is grouped by cell with insertion order inside each cell, so it is
  // itself a valid insertion order for the rebuild: appending keeps the new
  // item last in its cell.
  ids_.push_back(id);
  build_index();
}

std::int64_t SpatialGrid::cell_coord(double v) const {
  // Below 2^62 in magnitude the cast is exact and overflow-free; finite
  // map coordinates never come near it.
  constexpr double kLimit = 4.0e18;
  const double c = std::floor(v / cell_size_);
  if (!(c > -kLimit)) return static_cast<std::int64_t>(-kLimit);  // also NaN
  if (c > kLimit) return static_cast<std::int64_t>(kLimit);
  return static_cast<std::int64_t>(c);
}

void SpatialGrid::build_index() {
  if (ids_.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error{"SpatialGrid: more items than 32-bit offsets"};
  }
  struct Key {
    std::int64_t row;
    std::int64_t col;
    std::uint32_t order;  ///< insertion order: keeps the sort stable
  };
  std::vector<Key> keys(ids_.size());
  for (std::size_t k = 0; k < ids_.size(); ++k) {
    const Point p = points_[ids_[k]];
    keys[k] = {cell_coord(p.y), cell_coord(p.x), static_cast<std::uint32_t>(k)};
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.row != b.row) return a.row < b.row;
    if (a.col != b.col) return a.col < b.col;
    return a.order < b.order;
  });

  std::vector<std::uint32_t> grouped(keys.size());
  row_keys_.clear();
  row_begin_.clear();
  cell_cols_.clear();
  cell_begin_.clear();
  for (std::size_t k = 0; k < keys.size(); ++k) {
    grouped[k] = ids_[keys[k].order];
    const bool new_row = k == 0 || keys[k].row != keys[k - 1].row;
    if (new_row) {
      row_keys_.push_back(keys[k].row);
      row_begin_.push_back(static_cast<std::uint32_t>(cell_cols_.size()));
    }
    if (new_row || keys[k].col != keys[k - 1].col) {
      cell_cols_.push_back(keys[k].col);
      cell_begin_.push_back(static_cast<std::uint32_t>(k));
    }
  }
  row_begin_.push_back(static_cast<std::uint32_t>(cell_cols_.size()));
  cell_begin_.push_back(static_cast<std::uint32_t>(keys.size()));
  ids_ = std::move(grouped);
  row_keys_.shrink_to_fit();
  row_begin_.shrink_to_fit();
  cell_cols_.shrink_to_fit();
  cell_begin_.shrink_to_fit();
}

std::vector<std::uint32_t> SpatialGrid::query_radius(Point center, double radius) const {
  std::vector<std::uint32_t> out;
  for_each_in_radius(center, radius,
                     [&out](std::uint32_t id, Point) { out.push_back(id); });
  return out;
}

std::vector<std::uint32_t> SpatialGrid::query_rect(const Rect& r) const {
  std::vector<std::uint32_t> out;
  for_each_candidate(r, [&](std::uint32_t id) {
    if (r.contains(points_[id])) out.push_back(id);
  });
  return out;
}

}  // namespace citymesh::geo
