// Proximity graphs straight into CSR: the one builder behind the AP graph
// (mesh::ApNetwork, an id-only Topology) and the building graph
// (core::BuildingGraph, a weighted Graph it prunes and then keeps the ids
// of). Which kind it builds follows from what the link model answers; both
// take the same passes.
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
// Bands. Both sweeps split into contiguous bands of occupied grid rows, one
// per CPU the caller may use (graphx/parallel.hpp), each band on a thread of
// its own. Band b counts into its own per-rank array; the counts then turn
// into write cursors laid out band-major within each rank: rank k's slice
// holds band 0's candidates of k, then band 1's, and so on. The bands cover
// the sweep's ascending ranks in turn, so that is exactly the order one
// sequential sweep finds them in, and the graph is byte-identical at every
// band count. The caller allocates every buffer before a band starts (band
// threads allocate nothing: a thread's first malloc would give it an arena
// of its own that keeps what it frees). The deciding pass and the copy stay
// sequential, on the calling thread, so a link model's random draws keep
// their order.
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
#include <utility>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "geo/spatial_grid.hpp"
#include "graphx/graph.hpp"
#include "graphx/parallel.hpp"

namespace citymesh::graphx {

class LinkBuilder {
 public:
  /// The fewest points per band when build() picks the band count: below
  /// this, starting a thread costs more than the band's share of a sweep.
  static constexpr std::size_t kMinBandItems = std::size_t{1} << 14;

  /// The graph over the grid's ids (vertex_count = grid.id_bound()).
  ///
  /// - `reach(id)`: no pair farther apart than the reach of both of its
  ///   points is linked (see SpatialGrid::for_each_pair).
  /// - `admit(lo, hi, d2)`: the cheap sweep-time test of a pair within reach,
  ///   lo < hi, d2 = their squared distance. Pure: it runs twice per pair.
  /// - `link(lo, hi)`: decides an admitted pair. Answering `bool` (link or
  ///   not) builds a Topology; answering `std::optional<double>` (the link's
  ///   weight, or nullopt for none) builds a Graph. Called once per admitted
  ///   pair, in ascending lo and then in grid order of hi, on the calling
  ///   thread, so it may draw random numbers.
  ///
  /// `reach` and `admit` run on band threads, concurrently: they must only
  /// read.
  ///
  /// `bands` splits both sweeps into that many row bands (see the header
  /// comment), run on as many threads as graphx::idle_cpus() allows when
  /// each sweep starts; the graph is the same at every count. 0, the
  /// library's choice, takes one band per CPU of graphx::compile_cpus(), but
  /// none smaller than kMinBandItems points.
  template <class Reach, class Admit, class Link,
            class Result = std::conditional_t<
                std::is_same_v<std::invoke_result_t<Link&, std::uint32_t, std::uint32_t>, bool>,
                Topology, Graph>>
  static Result build(const geo::SpatialGrid& grid, Reach&& reach, Admit&& admit, Link&& link,
                      std::size_t bands = 0) {
    // The one difference between the two kinds: a Graph also writes each
    // link's weight beside its id, in every pass below that moves ids.
    constexpr bool kWeighted = std::is_same_v<Result, Graph>;
    const std::size_t n = grid.id_bound();
    const std::span<const std::uint32_t> order = grid.grid_order();
    const std::size_t m = order.size();
    const std::size_t rows = grid.occupied_rows();
    if (bands == 0) bands = std::min(compile_cpus(), m / kMinBandItems);
    bands = std::clamp<std::size_t>(bands, 1, std::max<std::size_t>(rows, 1));
    // Band b sweeps the occupied rows [row_cut[b], row_cut[b + 1]), about
    // m / bands points. Every buffer a band touches is made here, before
    // any band starts, so band threads allocate nothing.
    std::vector<std::size_t> row_cut(bands + 1, rows);
    row_cut[0] = 0;
    for (std::size_t b = 1, row = 0; b < bands; ++b) {
      while (row < rows && grid.row_first_rank(row) < b * m / bands) ++row;
      row_cut[b] = row;
    }
    std::vector<geo::Point> positions = grid.grid_positions();
    std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> runs(bands);
    for (auto& r : runs) r.reserve(rows);
    // One pass: the bands spread over the CPUs idle when it starts (a
    // thread may run several, one after another).
    const auto each_band = [&](auto&& band) {
      const std::size_t threads = std::min(bands, idle_cpus());
      fork_join(threads, [&](std::size_t t) {
        for (std::size_t b = t; b < bands; b += threads) band(b);
      });
    };
    const auto sweep = [&](std::size_t b, auto&& on_candidate) {
      grid.for_each_pair(
          reach,
          [&](std::uint32_t i, std::uint32_t j, double d2) {
            const bool i_low = order[i] < order[j];
            const VertexId lo = i_low ? order[i] : order[j];
            const VertexId hi = i_low ? order[j] : order[i];
            if (admit(lo, hi, d2)) on_candidate(i_low ? i : j, hi);
          },
          positions, row_cut[b], row_cut[b + 1], runs[b]);
    };

    // Candidates are grouped by the rank of their lower-id end, not by its
    // id: the sweep only touches ranks near the one it scans, so both
    // passes count and write within cache. Band b counts into its own row
    // of `cursor` (band-major, m per band), then that row becomes its write
    // cursors.
    std::vector<EdgeOffset> cursor(bands * m, 0);
    std::vector<std::size_t> band_total(bands, 0);
    each_band([&](std::size_t b) {
      EdgeOffset* count = cursor.data() + b * m;
      std::size_t found = 0;
      sweep(b, [&](std::uint32_t low, VertexId) {
        ++count[low];
        ++found;
      });
      band_total[b] = found;
    });
    std::size_t total = 0;
    for (const std::size_t t : band_total) total += t;
    if (total * 2 > std::numeric_limits<EdgeOffset>::max()) {
      throw std::length_error{"LinkBuilder: directed edge count exceeds 32-bit CSR offsets"};
    }
    // Rank k's slice holds band 0's candidates of k, then band 1's, ...:
    // the order one sequential sweep finds them in, since the bands cover
    // ascending ranks i in turn.
    std::vector<EdgeOffset> cand_offsets(m + 1);
    EdgeOffset next = 0;
    for (std::size_t k = 0; k < m; ++k) {
      cand_offsets[k] = next;
      for (std::size_t b = 0; b < bands; ++b) {
        const EdgeOffset c = cursor[b * m + k];
        cursor[b * m + k] = next;
        next += c;
      }
    }
    cand_offsets[m] = next;
    std::vector<VertexId> cand(total);  // the higher-id ends, by id
    each_band([&](std::size_t b) {
      EdgeOffset* write = cursor.data() + b * m;
      sweep(b, [&](std::uint32_t low, VertexId hi) { cand[write[low]++] = hi; });
    });
    cursor = {};
    positions = {};
    runs = {};
    constexpr std::uint32_t kNoRank = std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> rank(n, kNoRank);  // ids the grid lacks stay isolated
    for (std::uint32_t k = 0; k < order.size(); ++k) rank[order[k]] = k;

    // Decide every link in ascending lo. When the pass reaches v, every
    // lower vertex is decided, so v's lower count is final and its slice
    // can start: lower part first, then its kept candidates.
    Result g;
    // Sizes the edge arrays to exactly `size` entries.
    const auto fit = [&g](std::size_t size) {
      g.targets_.resize(size);
      g.targets_.shrink_to_fit();
      if constexpr (kWeighted) {
        g.weights_.resize(size);
        g.weights_.shrink_to_fit();
      }
    };
    g.offsets_.resize(n + 1);
    fit(total * 2);
    std::vector<EdgeOffset> lower(n, 0);
    EdgeOffset end = 0;
    for (VertexId v = 0; v < n; ++v) {
      g.offsets_[v] = end;
      end += lower[v];
      if (rank[v] == kNoRank) continue;
      for (EdgeOffset i = cand_offsets[rank[v]]; i < cand_offsets[rank[v] + 1]; ++i) {
        const VertexId hi = cand[i];
        const auto linked = link(v, hi);
        if (!linked) continue;
        g.targets_[end] = hi;
        if constexpr (kWeighted) g.weights_[end] = *linked;
        ++end;
        ++lower[hi];
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
        if constexpr (kWeighted) g.weights_[at] = g.weights_[i];
      }
    }
    if (end < g.targets_.size()) fit(end);  // a link model dropped candidates
    return g;
  }
};

}  // namespace citymesh::graphx
