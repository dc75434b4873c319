#include "graphx/alt.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace citymesh::graphx {

namespace {

/// The slack that makes the potential strictly feasible (alt.hpp).
constexpr double kSlack = 1e-9;
constexpr double kPotentialScale = 1.0 - kSlack;

}  // namespace

LandmarkTable::LandmarkTable(const Graph& g, std::span<const VertexId> landmarks) {
  double w_min = kInfiniteDistance;
  double w_max = 0.0;
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    for (const double w : g.neighbors(v).weights()) {
      w_min = std::min(w_min, w);
      w_max = std::max(w_max, w);
    }
  }
  // `!(... > 0)` also rejects NaN; an infinite weight fails the final check.
  if (landmarks.empty() || !(w_min > 0.0)) return;

  const std::size_t count = landmarks.size();
  std::vector<double> rows(g.vertex_count() * count, kInfiniteDistance);
  double reach = 0.0;  // D: the largest finite landmark distance
  for (std::size_t i = 0; i < count; ++i) {
    const ShortestPaths sp = dijkstra(g, landmarks[i]);
    for (VertexId v = 0; v < g.vertex_count(); ++v) {
      if (!sp.reachable(v)) continue;
      rows[v * count + i] = sp.distance[v];
      reach = std::max(reach, sp.distance[v]);
    }
  }
  if (!(w_min * kSlack > 0x1p-48 * (reach + w_max))) return;
  count_ = count;
  rows_ = std::move(rows);
}

std::vector<VertexId> AltSearch::path(const Graph& g, const LandmarkTable& table,
                                      VertexId source, VertexId target) {
  const std::size_t n = g.vertex_count();
  if (nodes_.size() != n) {
    nodes_.assign(n, Node{kInfiniteDistance, 0.0, 0, 0});
    key_.assign(n, kInfiniteDistance);
    heap_.reset(n, key_.data());
    stamp_ = 0;
  } else {
    heap_.clear();
  }
  if (++stamp_ == 0) {  // the counter wrapped: forget every old stamp
    for (Node& node : nodes_) node.stamp = 0;
    stamp_ = 1;
  }

  // The target's row, hoisted; `guided` is false when no landmark reaches
  // the target, and then π = 0 and the tie rule is off: plain dijkstra().
  const std::size_t k = table.count_;
  const double* target_row = k == 0 ? nullptr : &table.rows_[target * k];
  bool guided = false;
  for (std::size_t i = 0; i < k; ++i) guided |= target_row[i] < kInfiniteDistance;

  const auto touch = [&](VertexId v) -> Node& {
    Node& node = nodes_[v];
    if (node.stamp == stamp_) return node;
    double bound = 0.0;
    if (guided) {
      const double* row = &table.rows_[v * k];
      for (std::size_t i = 0; i < k; ++i) {
        if (row[i] < kInfiniteDistance && target_row[i] < kInfiniteDistance)
          bound = std::max(bound, std::fabs(target_row[i] - row[i]));
      }
    }
    node = Node{kInfiniteDistance, kPotentialScale * bound, v, stamp_};
    return node;
  };

  Node& start = touch(source);
  start.dist = 0.0;
  key_[source] = start.potential;
  heap_.update(source);
  while (!heap_.empty()) {
    const VertexId u = heap_.pop();
    if (u == target) break;
    const double du = nodes_[u].dist;
    for (const Edge& e : g.neighbors(u)) {
      if (e.weight < 0.0) throw std::invalid_argument{"dijkstra: negative edge weight"};
      const double nd = du + e.weight;
      Node& node = touch(e.to);
      if (nd < node.dist) {
        node.dist = nd;
        node.parent = u;
        key_[e.to] = nd + node.potential;
        heap_.update(e.to);
      } else if (guided && nd == node.dist && e.to != source) {
        // Another tight predecessor: keep the (d, id)-least (alt.hpp, (4)).
        const double dp = nodes_[node.parent].dist;
        if ((du < dp || (du == dp && u < node.parent)) && (du < node.dist || u < e.to))
          node.parent = u;
      }
    }
  }

  if (nodes_[target].stamp != stamp_ || nodes_[target].dist == kInfiniteDistance) return {};
  std::vector<VertexId> path{target};
  for (VertexId v = target; nodes_[v].parent != v;) {
    v = nodes_[v].parent;
    path.push_back(v);
    // Unreachable under the table's weight check; a cycle would hang here.
    if (path.size() > n) throw std::logic_error{"AltSearch: parent chain cycles"};
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace citymesh::graphx
