// The brute-force reference for graphx::LinkBuilder, shared by test_graphx
// (hostile geometry) and test_mesh (the AP and building graphs of every
// default profile), and the comparison and hashing helpers the suites that
// check a compiled city's graphs use.
//
// It decides every pair (a, b), a < b, from a: for a in ascending id order,
// b in the grid's (row, column, insertion) order, the order LinkBuilder's
// contract states. O(n²), with no grid.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <optional>
#include <span>
#include <vector>

#include "core/building_graph.hpp"
#include "geo/point.hpp"
#include "graphx/graph.hpp"
#include "graphx/link_builder.hpp"

namespace link_reference {

/// Ids 0..n-1 sorted by (row, column, id) for square cells of `cell` m.
inline std::vector<std::uint32_t> grid_order(std::span<const citymesh::geo::Point> points,
                                             double cell) {
  std::vector<std::uint32_t> order(points.size());
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  const auto key = [&](std::uint32_t id) {
    return std::pair{std::floor(points[id].y / cell), std::floor(points[id].x / cell)};
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) { return key(a) < key(b); });
  return order;
}

/// Reference candidates: for every a, each b > a at most `reach` from it
/// (a loose cut: the link test is exact), in grid order. Every pair is
/// tested once, O(n²).
using Candidates = std::vector<std::vector<std::uint32_t>>;

inline Candidates candidates(std::span<const citymesh::geo::Point> points, double cell,
                             double reach) {
  std::vector<std::uint32_t> rank(points.size());
  const std::vector<std::uint32_t> order = grid_order(points, cell);
  for (std::uint32_t k = 0; k < order.size(); ++k) rank[order[k]] = k;
  std::vector<double> xs, ys;  // apart, so the distance loop vectorizes
  for (const citymesh::geo::Point p : points) {
    xs.push_back(p.x);
    ys.push_back(p.y);
  }
  const double r2 = reach * reach * (1.0 + 1e-6);
  Candidates out(points.size());
  for (std::uint32_t a = 0; a < points.size(); ++a) {
    const double ax = xs[a], ay = ys[a];
    for (std::uint32_t b = a + 1; b < points.size(); ++b) {
      const double dx = xs[b] - ax, dy = ys[b] - ay;
      if (dx * dx + dy * dy <= r2) out[a].push_back(b);
    }
    std::sort(out[a].begin(), out[a].end(),
              [&](std::uint32_t x, std::uint32_t y) { return rank[x] < rank[y]; });
  }
  return out;
}

/// `link(a, b)` for every candidate, a ascending, b in grid order; a
/// returned weight adds the link. GraphBuilder keeps each vertex's
/// insertion order, which is the reference neighbour order.
template <class Link>
citymesh::graphx::Graph reference_graph(const Candidates& candidates, Link&& link) {
  citymesh::graphx::GraphBuilder builder{candidates.size()};
  for (std::uint32_t a = 0; a < candidates.size(); ++a) {
    for (const std::uint32_t b : candidates[a]) {
      if (const std::optional<double> w = link(a, b)) builder.add_edge(a, b, *w);
    }
  }
  return builder.build();
}

/// `weight_of(v, i, to)`, the weight of v's i-th neighbour `to`, as a
/// Graph stores it or, for an id-only Topology, as the compiled city
/// derives it: the distance of the two positions for the AP graph
/// (mesh::ApNetwork::link_length), the map's edge_weight for the building
/// graph.
inline auto stored_weights(const citymesh::graphx::Graph& g) {
  return [&g](std::uint32_t v, std::size_t i, std::uint32_t) {
    return g.weight(g.edge_offset(v) + static_cast<citymesh::graphx::EdgeOffset>(i));
  };
}
inline auto position_lengths(std::span<const citymesh::geo::Point> positions) {
  return [positions](std::uint32_t v, std::size_t, std::uint32_t to) {
    return citymesh::geo::distance(positions[v], positions[to]);
  };
}
inline auto building_weights(const citymesh::core::BuildingGraph& map) {
  return [&map](std::uint32_t v, std::size_t, std::uint32_t to) { return map.edge_weight(v, to); };
}

/// The map's full building graph with its weights, for the searches and
/// checks that walk weighted edges: rebuilt through LinkBuilder::build from
/// the map's own radii, centroid grid and edge_weight, the link model
/// core::BuildingGraph builds with before it keeps only the ids. `bands` as
/// in LinkBuilder::build (0: one per CPU the caller may use).
inline citymesh::graphx::Graph weighted_building_graph(const citymesh::core::BuildingGraph& map,
                                                       std::size_t bands = 0) {
  const citymesh::core::BuildingGraphConfig& cfg = map.config();
  const double range = cfg.transmission_range_m * cfg.connect_factor;
  double max_radius = 0.0;
  for (std::uint32_t b = 0; b < map.building_count(); ++b) {
    max_radius = std::max(max_radius, map.effective_radius(b));
  }
  return citymesh::graphx::LinkBuilder::build(
      map.centroid_grid(),
      [&](std::uint32_t a) { return (map.effective_radius(a) + range + max_radius) * (1.0 + 1e-9); },
      [&](std::uint32_t a, std::uint32_t b, double d2) {
        return std::sqrt(d2) <= range + map.effective_radius(a) + map.effective_radius(b);
      },
      [&](std::uint32_t a, std::uint32_t b) -> std::optional<double> {
        return map.edge_weight(a, b);
      },
      bands);
}

/// Same offsets, same neighbour order, bit-identical weights; `weight_of`
/// gives the actual graph's (stored_weights, position_lengths or
/// building_weights).
template <class WeightOf>
testing::AssertionResult same_graph(const citymesh::graphx::Topology& actual,
                                    WeightOf&& weight_of,
                                    const citymesh::graphx::Graph& expected) {
  if (actual.vertex_count() != expected.vertex_count()) {
    return testing::AssertionFailure() << "vertex count " << actual.vertex_count() << " vs "
                                       << expected.vertex_count();
  }
  for (std::uint32_t v = 0; v < actual.vertex_count(); ++v) {
    if (actual.edge_offset(v) != expected.edge_offset(v) || actual.degree(v) != expected.degree(v)) {
      return testing::AssertionFailure() << "vertex " << v << ": offset " << actual.edge_offset(v)
                                         << " degree " << actual.degree(v) << " vs offset "
                                         << expected.edge_offset(v) << " degree "
                                         << expected.degree(v);
    }
    const std::span<const std::uint32_t> got = actual.neighbors(v);
    const auto want = expected.neighbors(v);
    for (std::size_t i = 0; i < got.size(); ++i) {
      const double weight = weight_of(v, i, got[i]);
      const citymesh::graphx::Edge w = want[i];
      if (got[i] != w.to || std::memcmp(&weight, &w.weight, sizeof(double)) != 0) {
        return testing::AssertionFailure() << "vertex " << v << " slot " << i << ": (" << got[i]
                                           << ", " << weight << ") vs (" << w.to << ", "
                                           << w.weight << ")";
      }
    }
  }
  return testing::AssertionSuccess();
}
inline testing::AssertionResult same_graph(const citymesh::graphx::Graph& actual,
                                           const citymesh::graphx::Graph& expected) {
  return same_graph(actual, stored_weights(actual), expected);
}

/// FNV-1a over the CSR: vertex count, then per vertex its degree and each
/// (neighbour, weight bits) in slice order, the weight from `weight_of`.
template <class WeightOf>
std::uint64_t fingerprint_by(const citymesh::graphx::Topology& g, WeightOf&& weight_of) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(g.vertex_count());
  for (std::uint32_t v = 0; v < g.vertex_count(); ++v) {
    mix(g.degree(v));
    const std::span<const std::uint32_t> ids = g.neighbors(v);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const double weight = weight_of(v, i, ids[i]);
      std::uint64_t bits = 0;
      std::memcpy(&bits, &weight, sizeof bits);
      mix(ids[i]);
      mix(bits);
    }
  }
  return h;
}
inline std::uint64_t fingerprint(const citymesh::graphx::Graph& g) {
  return fingerprint_by(g, stored_weights(g));
}
/// An id-only AP graph hashed with the position-derived length where a
/// Graph's weight bits go: equal to the weighted graph's fingerprint when
/// every stored weight was that length.
inline std::uint64_t fingerprint(const citymesh::graphx::Topology& g,
                                 std::span<const citymesh::geo::Point> positions) {
  return fingerprint_by(g, position_lengths(positions));
}

}  // namespace link_reference
