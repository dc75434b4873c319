// The brute-force reference for graphx::LinkBuilder, shared by test_graphx
// (hostile geometry) and test_mesh (the AP and building graphs of every
// default profile).
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

#include "geo/point.hpp"
#include "graphx/graph.hpp"

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

/// Same offsets, same neighbour order, bit-identical weights.
inline testing::AssertionResult same_graph(const citymesh::graphx::Graph& actual,
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
    const auto got = actual.neighbors(v);
    const auto want = expected.neighbors(v);
    for (std::size_t i = 0; i < got.size(); ++i) {
      const citymesh::graphx::Edge g = got[i];
      const citymesh::graphx::Edge w = want[i];
      if (g.to != w.to || std::memcmp(&g.weight, &w.weight, sizeof(double)) != 0) {
        return testing::AssertionFailure() << "vertex " << v << " slot " << i << ": (" << g.to
                                           << ", " << g.weight << ") vs (" << w.to << ", "
                                           << w.weight << ")";
      }
    }
  }
  return testing::AssertionSuccess();
}

/// FNV-1a over the CSR: vertex count, then per vertex its degree and each
/// (neighbour, weight bits) in slice order.
inline std::uint64_t fingerprint(const citymesh::graphx::Graph& g) {
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
    for (const auto e : g.neighbors(v)) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &e.weight, sizeof bits);
      mix(e.to);
      mix(bits);
    }
  }
  return h;
}

}  // namespace link_reference
