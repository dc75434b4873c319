// Proximity graphs straight into CSR: the one builder behind the AP graph
// (mesh::ApNetwork) and the building graph (core::BuildingGraph).
//
// geo::SpatialGrid::for_each_pair sweeps the grid with a half stencil,
// testing each unordered pair of points once. It sweeps twice: the first
// sweep counts each vertex's candidate higher-id neighbours, the second
// writes them into one array in the order it finds them. (Keeping the
// pairs between one sweep and the regrouping would need a growing array as
// long as the link count; on metro-xxl that raised peak RSS by 8 MiB and
// saved no measurable time.) Then one pass over the vertices in ascending
// id order decides each candidate link and lays out the final CSR, and a
// last pass copies every link into its higher endpoint's slice. No edge
// list is ever stored.
//
// Neighbour order is part of the contract. Vertex v's slice lists:
//   1. its lower-id neighbours, in ascending id order;
//   2. then its higher-id neighbours, in the grid's (row, column, insertion)
//      order.
// Per-directed-edge tables (relayx link rows, tile-filtered walks) index
// this order, and the medium fans a transmission out in it, which fixes the
// event seq numbers and so every digest.
//
// The sweep finds v's higher-id neighbours in grid order: the pairs of an
// earlier point come before those of a later one, and each point's own
// pairs run forward in grid order. The deciding pass walks the vertices in
// ascending id order and each vertex's candidates in that grid order, so
// a link model that draws random numbers (the shadowed model) draws them
// in a fixed, documented order.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "geo/spatial_grid.hpp"
#include "graphx/graph.hpp"

namespace citymesh::graphx {

class LinkBuilder {
 public:
  /// The graph over the grid's ids (vertex_count = grid.id_bound()).
  ///
  /// - `reach(id)`: no pair farther apart than the reach of both of its
  ///   points is linked (see SpatialGrid::for_each_pair).
  /// - `admit(lo, hi, d2)`: the cheap sweep-time test of a pair within reach,
  ///   lo < hi, d2 = their squared distance. Pure: it runs twice per pair.
  /// - `link(lo, hi)`: the weight of an admitted pair's link, or nullopt for
  ///   none. Called once per admitted pair, in ascending lo and then in grid
  ///   order of hi, so it may draw random numbers.
  template <class Reach, class Admit, class Link>
  static Graph build(const geo::SpatialGrid& grid, Reach&& reach, Admit&& admit, Link&& link) {
    const std::size_t n = grid.id_bound();
    const std::span<const std::uint32_t> order = grid.grid_order();
    // Candidates are grouped by the rank of their lower-id end, not by its
    // id: the sweep only touches ranks near the one it scans, so both
    // passes count and write within cache.
    std::vector<EdgeOffset> cand_offsets(order.size() + 1, 0);
    std::size_t total = 0;
    grid.for_each_pair(reach, [&](std::uint32_t i, std::uint32_t j, double d2) {
      const bool i_low = order[i] < order[j];
      if (admit(i_low ? order[i] : order[j], i_low ? order[j] : order[i], d2)) {
        ++cand_offsets[(i_low ? i : j) + 1];
        ++total;
      }
    });
    if (total * 2 > std::numeric_limits<EdgeOffset>::max()) {
      throw std::length_error{"LinkBuilder: directed edge count exceeds 32-bit CSR offsets"};
    }
    for (std::size_t k = 0; k < order.size(); ++k) cand_offsets[k + 1] += cand_offsets[k];
    std::vector<VertexId> cand(total);  // the higher-id ends, by id
    {
      std::vector<EdgeOffset> cursor(cand_offsets.begin(), cand_offsets.end() - 1);
      grid.for_each_pair(reach, [&](std::uint32_t i, std::uint32_t j, double d2) {
        const bool i_low = order[i] < order[j];
        const VertexId lo = i_low ? order[i] : order[j];
        const VertexId hi = i_low ? order[j] : order[i];
        if (admit(lo, hi, d2)) cand[cursor[i_low ? i : j]++] = hi;
      });
    }
    constexpr std::uint32_t kNoRank = std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> rank(n, kNoRank);  // ids the grid lacks stay isolated
    for (std::uint32_t k = 0; k < order.size(); ++k) rank[order[k]] = k;

    // Decide every link in ascending lo. When the pass reaches v, every
    // lower vertex is decided, so v's lower count is final and its slice
    // can start: lower part first, then its kept candidates.
    Graph g;
    g.offsets_.resize(n + 1);
    g.targets_.resize(total * 2);
    g.weights_.resize(total * 2);
    std::vector<EdgeOffset> lower(n, 0);
    EdgeOffset end = 0;
    for (VertexId v = 0; v < n; ++v) {
      g.offsets_[v] = end;
      end += lower[v];
      if (rank[v] == kNoRank) continue;
      for (EdgeOffset i = cand_offsets[rank[v]]; i < cand_offsets[rank[v] + 1]; ++i) {
        const VertexId hi = cand[i];
        if (const std::optional<double> w = link(v, hi)) {
          g.targets_[end] = hi;
          g.weights_[end] = *w;
          ++end;
          ++lower[hi];
        }
      }
    }
    g.offsets_[n] = end;
    cand = {};
    rank = {};
    // Copy each link into its higher endpoint's lower part, in ascending
    // lo. `lower` turns cursor: once the vertices below v are copied,
    // lower[v] is where v's own higher-id part starts.
    for (VertexId v = 0; v < n; ++v) lower[v] = g.offsets_[v];
    for (VertexId v = 0; v < n; ++v) {
      for (EdgeOffset i = lower[v]; i < g.offsets_[v + 1]; ++i) {
        const EdgeOffset at = lower[g.targets_[i]]++;
        g.targets_[at] = v;
        g.weights_[at] = g.weights_[i];
      }
    }
    if (end < g.targets_.size()) {  // a link model dropped candidates
      g.targets_.resize(end);
      g.weights_.resize(end);
      g.targets_.shrink_to_fit();
      g.weights_.shrink_to_fit();
    }
    return g;
  }
};

}  // namespace citymesh::graphx
