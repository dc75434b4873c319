// Compact undirected graphs in compressed-sparse-row form, in two kinds.
//
// - `Topology`: 4-byte offsets and 4-byte neighbour ids, nothing else. The
//   two graphs a compiled city keeps whole are ids only, because each
//   edge's weight is a function of the map and is recomputed instead of
//   stored, 4 bytes per directed entry instead of 12:
//   - the *AP graph* (vertices = access points, edges = pairs within
//     transmission range): a link's length is the distance of the two APs'
//     positions (mesh::ApNetwork::link_length);
//   - the full *building graph* (vertices = buildings, edges = predicted
//     inter-building connectivity): an edge's weight is the cubed centroid
//     distance (core::BuildingGraph::edge_weight).
// - `Graph`: a Topology plus an 8-byte weight per directed entry, in a
//   packed array parallel to the ids. The building graph is built as one
//   and pruned to the planning graph, which is one too; so is every graph
//   the shortest-path searches (Dijkstra, ALT, essential_edges) and the
//   tests walk.
//
// A Graph is a Topology, so an id-only consumer (BFS, components, the
// medium's fan-out) takes either. `Topology::neighbors()` is the contiguous
// id run; `Graph::neighbors()` returns a view whose iteration yields `Edge`
// values assembled from the two arrays. Both are immutable once built: the
// AP and building graphs by LinkBuilder (link_builder.hpp), which states
// their neighbour order, other graphs by GraphBuilder. Each is built once
// per compiled city, and every consumer (medium shards, relayx link tables,
// tile plans) indexes that one copy.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

namespace citymesh::graphx {

using VertexId = std::uint32_t;

/// Offset into the packed adjacency arrays. 32 bits bounds the graph at
/// ~4.3e9 directed edges — three orders of magnitude above the metro
/// ladder's largest rung — and halves the offset table against size_t.
using EdgeOffset = std::uint32_t;

/// One outgoing edge in the CSR adjacency (materialized on read; the stored
/// form is the split target/weight arrays).
struct Edge {
  VertexId to;
  double weight;
};

class Graph;

/// Incremental builder; add edges in any order, then freeze into a Graph.
class GraphBuilder {
 public:
  explicit GraphBuilder(std::size_t vertex_count) : vertex_count_(vertex_count) {}

  /// Add an undirected edge (stored once here, twice in the CSR).
  void add_edge(VertexId a, VertexId b, double weight = 1.0);

  std::size_t vertex_count() const { return vertex_count_; }
  std::size_t edge_count() const { return edges_.size(); }

  Graph build() const;

 private:
  struct RawEdge {
    VertexId a;
    VertexId b;
    double weight;
  };
  std::size_t vertex_count_;
  // Chunked, not contiguous: a doubling vector would copy every edge on each
  // growth, and a large graph's would end in one allocation too big for the
  // allocator ever to place in freed heap. (The city graphs come from
  // LinkBuilder; this builds test graphs and shardx::tile_subgraph.)
  std::deque<RawEdge> edges_;
};

/// Offsets and neighbour ids: the adjacency without weights.
class Topology {
 public:
  Topology() = default;

  std::size_t vertex_count() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  /// Number of undirected edges.
  std::size_t edge_count() const { return targets_.size() / 2; }
  /// Number of directed adjacency entries (2x edge_count) — the size of the
  /// packed id array, and of any external per-directed-edge table aligned
  /// with it via edge_offset().
  std::size_t directed_edge_count() const { return targets_.size(); }

  /// The neighbour ids of vertex v, contiguous in memory.
  std::span<const VertexId> neighbors(VertexId v) const {
    return {targets_.data() + offsets_[v], static_cast<std::size_t>(offsets_[v + 1] - offsets_[v])};
  }

  /// Start of vertex v's slice in the packed edge arrays. Valid for
  /// v == vertex_count() too (the one-past-the-end offset), so external
  /// per-directed-edge state (relayx ETX rows, a Graph's weights, the
  /// medium's link_length slot) can reuse this indexing instead of
  /// rebuilding its own offset table.
  EdgeOffset edge_offset(VertexId v) const { return offsets_[v]; }

  std::size_t degree(VertexId v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  bool has_edge(VertexId a, VertexId b) const;

 protected:
  friend class GraphBuilder;
  friend class LinkBuilder;  // link_builder.hpp
  friend Graph essential_edges(const Graph& g);  // shortest_path.hpp
  std::vector<EdgeOffset> offsets_;   // vertex_count + 1 entries
  std::vector<VertexId> targets_;     // packed neighbor ids
};

/// A Topology with a weight per directed entry.
class Graph : public Topology {
 public:
  /// View over one vertex's CSR slice. Iteration and indexing yield `Edge`
  /// values assembled from the split arrays; `ids()` exposes the contiguous
  /// neighbor-id run directly for loops that never touch weights.
  class NeighborRange {
   public:
    class iterator {
     public:
      using value_type = Edge;
      using difference_type = std::ptrdiff_t;

      iterator() = default;
      iterator(const VertexId* to, const double* weight) : to_(to), weight_(weight) {}
      Edge operator*() const { return {*to_, *weight_}; }
      iterator& operator++() {
        ++to_;
        ++weight_;
        return *this;
      }
      iterator operator++(int) {
        iterator tmp = *this;
        ++*this;
        return tmp;
      }
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.to_ == b.to_;
      }
      friend bool operator!=(const iterator& a, const iterator& b) {
        return a.to_ != b.to_;
      }

     private:
      const VertexId* to_ = nullptr;
      const double* weight_ = nullptr;
    };

    NeighborRange(const VertexId* to, const double* weight, std::size_t count)
        : to_(to), weight_(weight), count_(count) {}

    iterator begin() const { return {to_, weight_}; }
    iterator end() const { return {to_ + count_, weight_ + count_}; }
    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    Edge operator[](std::size_t i) const { return {to_[i], weight_[i]}; }
    /// The neighbor ids alone, contiguous in memory.
    std::span<const VertexId> ids() const { return {to_, count_}; }
    std::span<const double> weights() const { return {weight_, count_}; }

   private:
    const VertexId* to_;
    const double* weight_;
    std::size_t count_;
  };

  Graph() = default;

  /// Neighbors of vertex v with weights.
  NeighborRange neighbors(VertexId v) const {
    const EdgeOffset begin = offsets_[v];
    return {targets_.data() + begin, weights_.data() + begin,
            static_cast<std::size_t>(offsets_[v + 1] - begin)};
  }

  /// The weight of directed entry `slot` (edge_offset(v) + i is v's i-th).
  double weight(EdgeOffset slot) const { return weights_[slot]; }

 private:
  friend class GraphBuilder;
  friend class LinkBuilder;  // link_builder.hpp
  friend Graph essential_edges(const Graph& g);  // shortest_path.hpp
  std::vector<double> weights_;       // packed weights, parallel to targets_
};

}  // namespace citymesh::graphx
