// Exact goal-directed shortest paths: ALT, i.e. A* steered by landmark
// triangle-inequality bounds (Goldberg & Harrelson, SODA 2005).
//
// A LandmarkTable holds, for every vertex v, its distance d(L, v) from each
// of a few landmarks L. For a target t, the triangle inequality makes
// |d(L, t) − d(L, v)| a lower bound on the remaining distance from v, so a
// search that pops vertices in (distance + bound) order walks towards t and
// settles a small fraction of what Dijkstra settles. AltSearch::path
// returns exactly dijkstra(g, s, t).path_to(t): the same vertices, the same
// equal-cost tie-breaks, bit for bit.
//
// Why the path is exact. Write d(v) for dijkstra()'s computed distance and
// k(v) = fl(d(v) + π(v)) for the search key, where the potential is
//   π(v) = (1 − 1e-9) · max_i |d(L_i, t) − d(L_i, v)|
// over the landmarks that reach both v and t, and call u a tight predecessor
// of v when fl(d(u) + w(u, v)) = d(v).
//  (1) dijkstra() pops in strictly increasing (d, id) order: a vertex enters
//      its heap at fl(d + w) > d, so every vertex keyed d is already queued
//      when the first of them pops. It relaxes with strict `<`, so v's
//      parent is the first popped tight predecessor: the (d, id)-least one.
//  (2) The 1e-9 slack makes π strictly feasible: k(u) < k(v) for every
//      tight predecessor u of v. In exact arithmetic π(u) ≤ w + π(v), and the
//      slack adds 1e-9·w of room, which LandmarkTable's weight check keeps
//      above every rounding error (below).
//  (3) By induction over pops, every vertex pops at its Dijkstra distance.
//      No tentative distance is ever below d(·), since each is a rounded sum
//      from a popped vertex. If v popped above d(v), take the first vertex
//      x on v's Dijkstra parent chain not yet popped. Its predecessor on the
//      chain popped exactly, so x is queued at d(x). By (2), keys strictly
//      increase along the chain, so k(x) < k(v) and x would have popped
//      first.
//  (4) Hence every tight predecessor of v pops before v. The first to pop
//      sets v's distance by strict `<`. Each later one arrives with
//      nd == dist[v] and re-parents v only when it is (d, id)-smaller than
//      the current parent. So when v pops, its parent is the (d, id)-least
//      tight predecessor, which is dijkstra()'s parent by (1). No vertex
//      popping after v can tie v's distance.
//  (5) Both searches stop when t pops, and the chain from t consists of
//      popped vertices with final parents, so the paths are equal.
//
// Zero and tiny weights void (1) and (2): a zero-weight edge makes two
// vertices tie on d, and ALT's parent chains can then cycle or differ from
// Dijkstra's. LandmarkTable therefore builds empty unless every weight w
// satisfies 1e-9·w > 2^-48·(D + w_max), with D the largest landmark
// distance. That bound covers the rounding in π, in the keys and in d: a
// search distance is at most 2D(1 + nu), and 32 units of u = 2^-53 cover
// every rounded term. With an empty table, or a target no landmark
// reaches, π is 0 and the tie rule is off, so the loop *is* dijkstra().
#pragma once

#include <span>
#include <vector>

#include "graphx/shortest_path.hpp"

namespace citymesh::graphx {

/// Distances from a few landmarks to every vertex, stored contiguously per
/// vertex (one row of landmark_count() doubles).
class LandmarkTable {
 public:
  /// The empty table: every bound is 0.
  LandmarkTable() = default;

  /// One full dijkstra() per landmark. Empty when the weight check in the
  /// header fails (a zero, negative, NaN or infinite weight among them).
  LandmarkTable(const Graph& g, std::span<const VertexId> landmarks);

  bool empty() const { return count_ == 0; }
  std::size_t landmark_count() const { return count_; }

  /// Distance from landmark `i` to `v`; infinity when `i` does not reach v.
  double distance(std::size_t i, VertexId v) const { return rows_[v * count_ + i]; }

 private:
  friend class AltSearch;
  std::size_t count_ = 0;
  std::vector<double> rows_;
};

/// Reusable ALT workspace. Per-vertex state is stamped with a query
/// counter, so a query resets nothing in O(V); it touches only the
/// vertices it reaches. One instance serves any number of queries on one
/// thread; the graph may differ between queries.
class AltSearch {
 public:
  /// dijkstra(g, source, target).path_to(target), bit for bit; empty when
  /// the target is unreachable. `table` must be built over `g` (or empty).
  std::vector<VertexId> path(const Graph& g, const LandmarkTable& table, VertexId source,
                             VertexId target);

 private:
  struct Node {
    double dist;
    double potential;  ///< π(v), fixed for the query
    VertexId parent;
    std::uint32_t stamp;
  };

  std::vector<Node> nodes_;
  std::vector<double> key_;  ///< fl(dist + potential); the heap's order
  IndexedMinHeap heap_;
  std::uint32_t stamp_ = 0;
};

}  // namespace citymesh::graphx
