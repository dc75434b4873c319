#include "graphx/graph.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace citymesh::graphx {

void GraphBuilder::add_edge(VertexId a, VertexId b, double weight) {
  if (a >= vertex_count_ || b >= vertex_count_) {
    throw std::out_of_range{"GraphBuilder::add_edge: vertex id out of range"};
  }
  if (a == b) return;  // ignore self-loops; they never help a route
  edges_.push_back({a, b, weight});
}

Graph GraphBuilder::build() const {
  if (edges_.size() * 2 > std::numeric_limits<EdgeOffset>::max()) {
    throw std::length_error{"GraphBuilder::build: directed edge count exceeds 32-bit CSR offsets"};
  }
  Graph g;
  g.offsets_.assign(vertex_count_ + 1, 0);
  for (const auto& e : edges_) {
    ++g.offsets_[e.a + 1];
    ++g.offsets_[e.b + 1];
  }
  for (std::size_t v = 0; v < vertex_count_; ++v) {
    g.offsets_[v + 1] += g.offsets_[v];
  }
  // Stable counting sort into the split arrays: each vertex's slice lists
  // neighbors in edge-insertion order, so a tile subgraph that adds a
  // graph's edges in its own order (shardx::tile_subgraph) keeps that order.
  g.targets_.resize(edges_.size() * 2);
  g.weights_.resize(edges_.size() * 2);
  std::vector<EdgeOffset> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const auto& e : edges_) {
    const EdgeOffset at_a = cursor[e.a]++;
    g.targets_[at_a] = e.b;
    g.weights_[at_a] = e.weight;
    const EdgeOffset at_b = cursor[e.b]++;
    g.targets_[at_b] = e.a;
    g.weights_[at_b] = e.weight;
  }
  return g;
}

bool Graph::has_edge(VertexId a, VertexId b) const {
  for (const VertexId to : neighbors(a).ids()) {
    if (to == b) return true;
  }
  return false;
}

}  // namespace citymesh::graphx
