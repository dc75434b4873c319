#include "graphx/shortest_path.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>

namespace citymesh::graphx {

std::vector<VertexId> ShortestPaths::path_to(VertexId target) const {
  if (!reachable(target)) return {};
  std::vector<VertexId> path;
  VertexId v = target;
  path.push_back(v);
  while (parent[v] != v) {
    v = parent[v];
    path.push_back(v);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

ShortestPaths dijkstra(const Graph& g, VertexId source, std::optional<VertexId> target) {
  const std::size_t n = g.vertex_count();
  ShortestPaths sp;
  sp.distance.assign(n, kInfiniteDistance);
  sp.parent.resize(n);
  for (VertexId v = 0; v < n; ++v) sp.parent[v] = v;

  IndexedMinHeap heap;
  heap.reset(n, sp.distance.data());
  sp.distance[source] = 0.0;
  heap.update(source);

  while (!heap.empty()) {
    const VertexId v = heap.pop();  // settled: distance is final
    if (target && v == *target) break;
    const double d = sp.distance[v];
    for (const Edge& e : g.neighbors(v)) {
      if (e.weight < 0.0) throw std::invalid_argument{"dijkstra: negative edge weight"};
      const double nd = d + e.weight;
      if (nd < sp.distance[e.to]) {
        sp.distance[e.to] = nd;
        sp.parent[e.to] = v;
        heap.update(e.to);
      }
    }
  }
  return sp;
}

Graph essential_edges(const Graph& g) {
  const std::size_t n = g.vertex_count();
  double directed_total = 0.0;  // every edge counted twice: exactly 2·Ŵ
  for (const double w : g.weights_) {
    if (w < 0.0) throw std::invalid_argument{"essential_edges: negative edge weight"};
    directed_total += w;
  }
  // m = 16·n·u·Ŵ = Ŵ·n·2^-49 (see the header for the derivation).
  const double margin = 0.5 * directed_total * (static_cast<double>(n) * 0x1p-49);
  if (!std::isfinite(margin)) return g;  // a NaN or infinite weight

  // Each edge is tested once, from its lower endpoint s: load s's
  // neighbourhood weights (lightest parallel edge per neighbour; +inf marks
  // a non-neighbour), then look for a witness x among the neighbours of y.
  // The backward entry (y → s) copies that verdict from a per-y chain of
  // kept forward edges, so the result stays undirected.
  constexpr double kAbsent = std::numeric_limits<double>::infinity();
  constexpr std::uint32_t kEndOfChain = std::numeric_limits<std::uint32_t>::max();
  struct KeptForward {
    VertexId from;
    double weight;
    std::uint32_t next;
  };
  std::vector<KeptForward> kept_forward;
  std::vector<std::uint32_t> chain_head(n, kEndOfChain);
  std::vector<double> weight_from_s(n, kAbsent);
  std::vector<char> keep(g.targets_.size(), 0);
  for (VertexId s = 0; s < n; ++s) {
    const EdgeOffset begin = g.offsets_[s];
    const EdgeOffset end = g.offsets_[s + 1];
    for (EdgeOffset i = begin; i < end; ++i) {
      double& w = weight_from_s[g.targets_[i]];
      w = std::min(w, g.weights_[i]);
    }
    for (EdgeOffset i = begin; i < end; ++i) {
      const VertexId y = g.targets_[i];
      const double c = g.weights_[i];
      if (y < s) {
        for (std::uint32_t k = chain_head[s]; k != kEndOfChain; k = kept_forward[k].next) {
          if (kept_forward[k].from == y && kept_forward[k].weight == c) {
            keep[i] = 1;
            break;
          }
        }
        continue;
      }
      const double limit = c - margin;
      bool dominated = false;
      for (EdgeOffset j = g.offsets_[y]; j < g.offsets_[y + 1]; ++j) {
        if (weight_from_s[g.targets_[j]] + g.weights_[j] < limit) {
          dominated = true;
          break;
        }
      }
      if (dominated) continue;
      keep[i] = 1;
      kept_forward.push_back({s, c, chain_head[y]});
      chain_head[y] = static_cast<std::uint32_t>(kept_forward.size() - 1);
    }
    for (EdgeOffset i = begin; i < end; ++i) weight_from_s[g.targets_[i]] = kAbsent;
  }

  Graph out;
  const auto kept = static_cast<std::size_t>(std::count(keep.begin(), keep.end(), 1));
  out.targets_.reserve(kept);
  out.weights_.reserve(kept);
  out.offsets_.assign(n + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    for (EdgeOffset i = g.offsets_[v]; i < g.offsets_[v + 1]; ++i) {
      if (keep[i] == 0) continue;
      out.targets_.push_back(g.targets_[i]);
      out.weights_.push_back(g.weights_[i]);
    }
    out.offsets_[v + 1] = static_cast<EdgeOffset>(out.targets_.size());
  }
  return out;
}

ShortestPaths bellman_ford(const Graph& g, VertexId source) {
  const std::size_t n = g.vertex_count();
  ShortestPaths sp;
  sp.distance.assign(n, kInfiniteDistance);
  sp.parent.resize(n);
  for (VertexId v = 0; v < n; ++v) sp.parent[v] = v;
  sp.distance[source] = 0.0;

  for (std::size_t round = 0; round + 1 < std::max<std::size_t>(n, 1); ++round) {
    bool changed = false;
    for (VertexId v = 0; v < n; ++v) {
      if (sp.distance[v] == kInfiniteDistance) continue;
      for (const Edge& e : g.neighbors(v)) {
        const double nd = sp.distance[v] + e.weight;
        if (nd < sp.distance[e.to]) {
          sp.distance[e.to] = nd;
          sp.parent[e.to] = v;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  // Negative-cycle check.
  for (VertexId v = 0; v < n; ++v) {
    if (sp.distance[v] == kInfiniteDistance) continue;
    for (const Edge& e : g.neighbors(v)) {
      if (sp.distance[v] + e.weight < sp.distance[e.to]) {
        throw std::invalid_argument{"bellman_ford: negative cycle"};
      }
    }
  }
  return sp;
}

ShortestPaths bfs(const Topology& g, VertexId source, std::optional<VertexId> target) {
  const std::size_t n = g.vertex_count();
  ShortestPaths sp;
  sp.distance.assign(n, kInfiniteDistance);
  sp.parent.resize(n);
  for (VertexId v = 0; v < n; ++v) sp.parent[v] = v;

  std::queue<VertexId> q;
  sp.distance[source] = 0.0;
  q.push(source);
  while (!q.empty()) {
    const VertexId v = q.front();
    q.pop();
    if (target && v == *target) break;
    for (const VertexId to : g.neighbors(v)) {
      if (sp.distance[to] == kInfiniteDistance) {
        sp.distance[to] = sp.distance[v] + 1.0;
        sp.parent[to] = v;
        q.push(to);
      }
    }
  }
  return sp;
}

std::vector<std::size_t> Components::sizes() const {
  std::vector<std::size_t> s(count, 0);
  for (const std::uint32_t c : component_of) ++s[c];
  return s;
}

std::uint32_t Components::largest() const {
  const auto s = sizes();
  return static_cast<std::uint32_t>(
      std::max_element(s.begin(), s.end()) - s.begin());
}

Components connected_components(const Topology& g) {
  const std::size_t n = g.vertex_count();
  Components comps;
  comps.component_of.assign(n, UINT32_MAX);
  std::vector<VertexId> stack;
  for (VertexId start = 0; start < n; ++start) {
    if (comps.component_of[start] != UINT32_MAX) continue;
    const std::uint32_t id = comps.count++;
    stack.push_back(start);
    comps.component_of[start] = id;
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      for (const VertexId to : g.neighbors(v)) {
        if (comps.component_of[to] == UINT32_MAX) {
          comps.component_of[to] = id;
          stack.push_back(to);
        }
      }
    }
  }
  return comps;
}

UnionFind::UnionFind(std::size_t n)
    : parent_(n), size_(n, 1), set_count_(n) {
  for (std::uint32_t i = 0; i < n; ++i) parent_[i] = i;
}

std::uint32_t UnionFind::find(std::uint32_t x) {
  std::uint32_t root = x;
  while (parent_[root] != root) root = parent_[root];
  while (parent_[x] != root) {
    const std::uint32_t next = parent_[x];
    parent_[x] = root;
    x = next;
  }
  return root;
}

bool UnionFind::unite(std::uint32_t a, std::uint32_t b) {
  std::uint32_t ra = find(a);
  std::uint32_t rb = find(b);
  if (ra == rb) return false;
  if (size_[ra] < size_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  size_[ra] += size_[rb];
  --set_count_;
  return true;
}

std::size_t UnionFind::size_of(std::uint32_t x) { return size_[find(x)]; }

}  // namespace citymesh::graphx
