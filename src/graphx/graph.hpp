// A compact undirected weighted graph in compressed-sparse-row form.
//
// Both of CityMesh's graphs are instances of this type: the *AP graph*
// (vertices = access points, edges = pairs within transmission range) and
// the *building graph* (vertices = buildings, edges = predicted inter-
// building connectivity, weight = cubed centroid distance).
//
// Memory layout (metro-memory refactor): the adjacency is split into two
// packed parallel arrays — 4-byte neighbor ids and 8-byte weights — behind
// 4-byte offsets, instead of one array of padded 16-byte {id, weight}
// structs. A hot loop that only needs the neighbor ids (the medium's
// per-transmission fan-out) walks 4 bytes per edge; weight-consuming loops
// (Dijkstra relaxation) read the second array in the same stride.
// `neighbors()` returns a lightweight view whose iteration still yields
// `Edge` values, so call sites are unchanged. The graph is immutable once
// built — the AP and building graphs by LinkBuilder (link_builder.hpp),
// which states their neighbour order, other graphs by GraphBuilder — and
// is built once per compiled city; every consumer (medium shards, relayx
// link tables, tile plans) indexes this one copy.
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
  // Chunked, not contiguous: a metro-scale AP graph has ~2M edges (30 MB),
  // and a doubling vector would copy them on every growth and end in one
  // allocation too large for the allocator ever to place in freed heap.
  std::deque<RawEdge> edges_;
};

class Graph {
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

  std::size_t vertex_count() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  /// Number of undirected edges.
  std::size_t edge_count() const { return targets_.size() / 2; }
  /// Number of directed adjacency entries (2x edge_count) — the size of the
  /// packed edge arrays, and of any external per-directed-edge table aligned
  /// with them via edge_offset().
  std::size_t directed_edge_count() const { return targets_.size(); }

  /// Neighbors of vertex v with weights.
  NeighborRange neighbors(VertexId v) const {
    const EdgeOffset begin = offsets_[v];
    return {targets_.data() + begin, weights_.data() + begin,
            static_cast<std::size_t>(offsets_[v + 1] - begin)};
  }

  /// Start of vertex v's slice in the packed edge arrays. Valid for
  /// v == vertex_count() too (the one-past-the-end offset), so external
  /// per-directed-edge state (relayx ETX rows) can reuse this indexing
  /// instead of rebuilding its own offset table.
  EdgeOffset edge_offset(VertexId v) const { return offsets_[v]; }

  std::size_t degree(VertexId v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  bool has_edge(VertexId a, VertexId b) const;

 private:
  friend class GraphBuilder;
  friend class LinkBuilder;  // link_builder.hpp
  friend Graph essential_edges(const Graph& g);  // shortest_path.hpp
  std::vector<EdgeOffset> offsets_;   // vertex_count + 1 entries
  std::vector<VertexId> targets_;     // packed neighbor ids
  std::vector<double> weights_;       // packed weights, parallel to targets_
};

}  // namespace citymesh::graphx
