#include "shardx/tiling.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace citymesh::shardx {

namespace {

/// cols x rows = shards with cols >= rows and the grid as square as the
/// factorization allows: cols is the smallest divisor of shards that is
/// >= ceil(sqrt(shards)). Prime K degenerates to a K x 1 strip, which is
/// still a valid (if boundary-heavy) partition.
void grid_shape(std::size_t shards, std::uint32_t& cols, std::uint32_t& rows) {
  const auto root =
      static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(shards))));
  for (std::size_t c = root; c <= shards; ++c) {
    if (shards % c == 0) {
      cols = static_cast<std::uint32_t>(c);
      rows = static_cast<std::uint32_t>(shards / c);
      return;
    }
  }
  cols = static_cast<std::uint32_t>(shards);
  rows = 1;
}

/// Uniform cols x rows grid over the centroid bounding box.
void assign_grid(const geo::SpatialGrid& centroid_grid, std::size_t building_count,
                 TilePlan& plan) {
  double min_x = centroid_grid.position(0).x, max_x = min_x;
  double min_y = centroid_grid.position(0).y, max_y = min_y;
  for (std::uint32_t b = 1; b < building_count; ++b) {
    const geo::Point p = centroid_grid.position(b);
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  const double span_x = max_x - min_x;
  const double span_y = max_y - min_y;
  for (std::uint32_t b = 0; b < building_count; ++b) {
    const geo::Point p = centroid_grid.position(b);
    std::uint32_t col = 0, row = 0;
    if (span_x > 0.0) {
      col = static_cast<std::uint32_t>((p.x - min_x) / span_x * plan.grid_cols);
      col = std::min(col, plan.grid_cols - 1);
    }
    if (span_y > 0.0) {
      row = static_cast<std::uint32_t>((p.y - min_y) / span_y * plan.grid_rows);
      row = std::min(row, plan.grid_rows - 1);
    }
    plan.building_tile[b] = row * plan.grid_cols + col;
  }
}

/// Weighted rectilinear partition: cut buildings into cols columns of
/// roughly equal total weight by centroid x, then each column into rows
/// tiles by centroid y. A building's weight is the sum over its APs of
/// (1 + radio degree): each AP contributes its own event handling plus one
/// reception per in-range neighbor whenever anything nearby transmits — a
/// static proxy for the per-tile event rate the window barrier waits on.
/// Integer weights and (coordinate, id) sort keys keep the cuts exactly
/// reproducible across platforms.
void assign_adaptive(const geo::SpatialGrid& centroid_grid, std::size_t building_count,
                     const mesh::ApNetwork& net, TilePlan& plan) {
  std::vector<std::uint64_t> weight(building_count, 0);
  const graphx::Topology& topology = net.graph();
  for (const auto& ap : net.aps()) {
    weight[ap.building] += 1 + topology.degree(ap.id);
  }

  std::vector<std::uint32_t> order(building_count);
  for (std::uint32_t b = 0; b < building_count; ++b) order[b] = b;
  const auto by_x = [&](std::uint32_t a, std::uint32_t b) {
    const double xa = centroid_grid.position(a).x, xb = centroid_grid.position(b).x;
    if (xa != xb) return xa < xb;
    return a < b;
  };
  std::sort(order.begin(), order.end(), by_x);

  std::uint64_t total = 0;
  for (const std::uint64_t w : weight) total += w;

  // Greedy column cuts at cumulative targets total*(c+1)/cols: a column
  // closes once it reaches its share, so every column holds a contiguous
  // x-range and the weights differ from ideal by at most one building.
  std::vector<std::vector<std::uint32_t>> columns(plan.grid_cols);
  {
    std::uint64_t cum = 0;
    std::uint32_t col = 0;
    for (const std::uint32_t b : order) {
      columns[col].push_back(b);
      cum += weight[b];
      while (col + 1 < plan.grid_cols &&
             cum * plan.grid_cols >= total * (static_cast<std::uint64_t>(col) + 1)) {
        ++col;
      }
    }
  }

  for (std::uint32_t col = 0; col < plan.grid_cols; ++col) {
    std::vector<std::uint32_t>& members = columns[col];
    const auto by_y = [&](std::uint32_t a, std::uint32_t b) {
      const double ya = centroid_grid.position(a).y, yb = centroid_grid.position(b).y;
      if (ya != yb) return ya < yb;
      return a < b;
    };
    std::sort(members.begin(), members.end(), by_y);
    std::uint64_t col_total = 0;
    for (const std::uint32_t b : members) col_total += weight[b];
    std::uint64_t cum = 0;
    std::uint32_t row = 0;
    for (const std::uint32_t b : members) {
      plan.building_tile[b] = row * plan.grid_cols + col;
      cum += weight[b];
      while (row + 1 < plan.grid_rows &&
             cum * plan.grid_rows >= col_total * (static_cast<std::uint64_t>(row) + 1)) {
        ++row;
      }
    }
  }
}

}  // namespace

TilePlan plan_tiles(const geo::SpatialGrid& centroid_grid, std::size_t building_count,
                    const mesh::ApNetwork& net, std::size_t shards, TilingMode mode) {
  if (shards == 0) throw std::invalid_argument{"plan_tiles: shards must be >= 1"};
  if (shards > 1 && building_count == 0)
    throw std::invalid_argument{"plan_tiles: cannot tile a city with no buildings"};

  TilePlan plan;
  plan.tile_count = shards;
  grid_shape(shards, plan.grid_cols, plan.grid_rows);

  plan.building_tile.assign(building_count, 0);
  if (shards > 1) {
    if (mode == TilingMode::kAdaptive) {
      assign_adaptive(centroid_grid, building_count, net, plan);
    } else {
      assign_grid(centroid_grid, building_count, plan);
    }
  }

  const std::size_t ap_count = net.ap_count();
  plan.ap_tile.assign(ap_count, 0);
  plan.tile_aps.assign(shards, {});
  for (mesh::ApId ap = 0; ap < ap_count; ++ap) {
    const TileId tile = plan.building_tile.at(net.ap(ap).building);
    plan.ap_tile[ap] = tile;
    plan.tile_aps[tile].push_back(ap);  // ascending: ap ids iterate in order
  }

  plan.boundary_ap.assign(ap_count, false);
  for (mesh::ApId ap = 0; ap < ap_count; ++ap) {
    for (const graphx::VertexId to : net.graph().neighbors(ap)) {
      if (plan.ap_tile[ap] != plan.ap_tile[to]) {
        plan.cross.push_back({ap, to, net.link_length(ap, to)});
        plan.boundary_ap[ap] = true;
      }
    }
  }
  return plan;
}

graphx::Graph tile_subgraph(const mesh::ApNetwork& net, const std::vector<TileId>& ap_tile,
                            TileId tile) {
  const graphx::Topology& topology = net.graph();
  graphx::GraphBuilder builder(topology.vertex_count());
  for (graphx::VertexId v = 0; v < topology.vertex_count(); ++v) {
    if (ap_tile[v] != tile) continue;
    for (const graphx::VertexId to : topology.neighbors(v)) {
      // Each undirected edge is visited from both endpoints; add it once.
      if (to > v && ap_tile[to] == tile) builder.add_edge(v, to, net.link_length(v, to));
    }
  }
  return builder.build();
}

double lookahead_s(const std::vector<CrossLink>& cross, double min_serialization_s,
                   double prop_delay_s_per_m) {
  if (cross.empty()) return sim::kForever;
  double best = sim::kForever;
  for (const CrossLink& link : cross)
    best = std::min(best, min_serialization_s + prop_delay_s_per_m * link.length_m);
  return best;
}

}  // namespace citymesh::shardx
