// Shortest-path algorithms over Graph.
//
// Dijkstra defines the paper's source-route planning (cubed-distance weights
// over the building graph); graphx/alt.hpp answers the same queries faster.
// Bellman-Ford exists solely as a test oracle for the property suite. BFS
// measures the *minimum hop count* over the AP graph, which is the
// denominator of the paper's transmission-overhead metric.
#pragma once

#include <limits>
#include <optional>
#include <queue>
#include <vector>

#include "graphx/graph.hpp"

namespace citymesh::graphx {

constexpr double kInfiniteDistance = std::numeric_limits<double>::infinity();

/// Result of a single-source shortest-path run.
struct ShortestPaths {
  std::vector<double> distance;    ///< per-vertex distance; infinity when unreachable
  std::vector<VertexId> parent;    ///< per-vertex predecessor; self for source/unreachable

  bool reachable(VertexId v) const { return distance[v] < kInfiniteDistance; }

  /// Vertices from source to `target` inclusive; empty when unreachable.
  std::vector<VertexId> path_to(VertexId target) const;
};

/// Dijkstra from `source`. All edge weights must be non-negative.
/// If `target` is set, the search stops once the target is settled.
ShortestPaths dijkstra(const Graph& g, VertexId source,
                       std::optional<VertexId> target = std::nullopt);

/// Indexed 4-ary min-heap over vertex ids, ordered by (distance, vertex) —
/// the exact comparator the legacy lazy-deletion priority queue realized, so
/// Dijkstra's settle order (and therefore every parent assignment) is
/// bit-identical while the heap holds at most one entry per vertex instead
/// of one per relaxation. 4-ary: shallower than binary and the four children
/// share a cache line of vertex ids.
class IndexedMinHeap {
 public:
  /// Bind to a distance array (not owned; values may change between calls —
  /// decrease-key re-sifts on update()). Clears the heap.
  void reset(std::size_t vertex_count, const double* distance) {
    dist_ = distance;
    heap_.clear();
    pos_.assign(vertex_count, 0);
  }

  bool empty() const { return heap_.empty(); }

  /// Empty the heap in O(size), keeping the binding (reset() is O(V)).
  void clear() {
    for (const VertexId v : heap_) pos_[v] = 0;
    heap_.clear();
  }

  /// Insert `v`, or restore heap order after dist_[v] decreased.
  void update(VertexId v) {
    if (pos_[v] == 0) {
      heap_.push_back(v);
      pos_[v] = static_cast<std::uint32_t>(heap_.size());
    }
    sift_up(pos_[v] - 1);
  }

  /// Remove and return the minimum (distance, vertex).
  VertexId pop() {
    const VertexId top = heap_.front();
    pos_[top] = 0;
    const VertexId last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_.front() = last;
      pos_[last] = 1;
      sift_down(0);
    }
    return top;
  }

 private:
  bool before(VertexId a, VertexId b) const {
    const double da = dist_[a];
    const double db = dist_[b];
    if (da != db) return da < db;
    return a < b;
  }
  void sift_up(std::size_t i) {
    const VertexId v = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!before(v, heap_[parent])) break;
      heap_[i] = heap_[parent];
      pos_[heap_[i]] = static_cast<std::uint32_t>(i + 1);
      i = parent;
    }
    heap_[i] = v;
    pos_[v] = static_cast<std::uint32_t>(i + 1);
  }
  void sift_down(std::size_t i) {
    const VertexId v = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t best = 4 * i + 1;
      if (best >= n) break;
      const std::size_t end = std::min(best + 4, n);
      for (std::size_t c = best + 1; c < end; ++c)
        if (before(heap_[c], heap_[best])) best = c;
      if (!before(heap_[best], v)) break;
      heap_[i] = heap_[best];
      pos_[heap_[i]] = static_cast<std::uint32_t>(i + 1);
      i = best;
    }
    heap_[i] = v;
    pos_[v] = static_cast<std::uint32_t>(i + 1);
  }

  const double* dist_ = nullptr;
  std::vector<VertexId> heap_;
  std::vector<std::uint32_t> pos_;  ///< index + 1 into heap_; 0 = absent
};

/// The building graph's planning subgraph. Drops every edge (s, y) of
/// weight c that some common neighbour x strictly dominates,
/// w(s,x) + w(x,y) < c − m, and keeps every other edge in its CSR order.
/// Dijkstra over the result pops the same vertices in the same order with
/// the same distances and parents as over `g`, so every extracted path
/// (dijkstra()'s, and so graphx::AltSearch's) is bit-identical. (Tentative distances of
/// vertices a targeted run leaves unsettled may differ; nothing reads them.)
/// Cubed-distance weights make most long edges dominated: 75–84% of the
/// built-in cities' building edges go. Throws std::invalid_argument on a
/// negative weight; a NaN or infinite weight disables pruning (m is then
/// not finite). Cost: O(sum of degree^2), one pass.
///
/// Why the result is exact. Let u = 2^-53, n = vertex count, W the exact
/// sum of all edge weights and Ŵ ≥ W/2 its computed sum; m = 16·n·u·Ŵ.
///  (1) The computed test fl(a + b) < fl(c − m) implies the real
///      a + b < c − m + 3uc.
///  (2) By induction on weight (a, b < c), every dropped edge has a path of
///      kept edges — at most n − 1 of them once loops are cut — of real
///      weight ≤ c − μ, with μ = m − 3uW ≥ (8n − 3)·u·W.
///  (3) Every distance Dijkstra computes is a rounded sum along a simple
///      path, so d ≤ 2W. Adding k ≤ n − 1 weights to d one at a time rounds
///      up by at most a factor 1 + 2ku, and fl(d + c) ≥ (d + c)(1 − u);
///      with d + c ≤ 3W, μ > 3(2n − 1)·u·W puts the kept path's computed
///      total strictly below the dropped edge's proposal fl(d + c).
///  (4) Rounding is monotone, so once s settles at d each vertex of that
///      path ends at or below its prefix sum, and y ends strictly below
///      fl(d + c): a dropped edge never supplies a final distance or parent.
///      Induct over pops. If both runs popped the same prefix with the same
///      values, the full graph's next pop z got its final key over a kept
///      edge from the prefix. The pruned run holds the same key with the
///      same parent (the first settled neighbour to reach that key, since
///      relaxation updates only on strict improvement), and every other key
///      there is no smaller than in the full run; so the (distance, id)
///      minimum — the next pop — is z again.
Graph essential_edges(const Graph& g);

/// Bellman-Ford oracle (O(VE)); throws std::invalid_argument on negative cycles.
ShortestPaths bellman_ford(const Graph& g, VertexId source);

/// Unweighted BFS; distance counts hops.
ShortestPaths bfs(const Graph& g, VertexId source,
                  std::optional<VertexId> target = std::nullopt);

/// Connected components; returns per-vertex component id (0-based, dense)
/// and the number of components.
struct Components {
  std::vector<std::uint32_t> component_of;
  std::uint32_t count = 0;

  /// Size of each component.
  std::vector<std::size_t> sizes() const;
  /// Id of the largest component.
  std::uint32_t largest() const;
};

Components connected_components(const Graph& g);

/// Disjoint-set union with path compression and union by size.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n);
  std::uint32_t find(std::uint32_t x);
  /// Returns true when the two sets were merged (false if already joined).
  bool unite(std::uint32_t a, std::uint32_t b);
  bool connected(std::uint32_t a, std::uint32_t b) { return find(a) == find(b); }
  std::size_t set_count() const { return set_count_; }
  std::size_t size_of(std::uint32_t x);

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
  std::size_t set_count_;
};

}  // namespace citymesh::graphx
