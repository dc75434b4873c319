// Tests for the graph substrate: CSR construction, Dijkstra (validated
// against the Bellman-Ford oracle on random graphs), ALT (validated against
// Dijkstra), BFS, connected components, and union-find.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "geo/rng.hpp"
#include "geo/spatial_grid.hpp"
#include "graphx/alt.hpp"
#include "graphx/graph.hpp"
#include "graphx/link_builder.hpp"
#include "graphx/parallel.hpp"
#include "graphx/shortest_path.hpp"
#include "link_reference.hpp"

namespace graphx = citymesh::graphx;
namespace geo = citymesh::geo;
using citymesh::geo::Rng;

namespace {

graphx::Graph line_graph(std::size_t n) {
  graphx::GraphBuilder b{n};
  for (graphx::VertexId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1, 1.0);
  return b.build();
}

graphx::Graph random_graph(std::uint64_t seed, std::size_t n, double edge_prob,
                           double max_weight = 10.0) {
  Rng rng{seed};
  graphx::GraphBuilder b{n};
  for (graphx::VertexId i = 0; i < n; ++i) {
    for (graphx::VertexId j = i + 1; j < n; ++j) {
      if (rng.chance(edge_prob)) b.add_edge(i, j, rng.uniform(0.1, max_weight));
    }
  }
  return b.build();
}

}  // namespace

// ---------------------------------------------------------------- Graph ---

TEST(Graph, EmptyGraph) {
  const graphx::Graph g = graphx::GraphBuilder{0}.build();
  EXPECT_EQ(g.vertex_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Graph, BuilderCounts) {
  graphx::GraphBuilder b{4};
  b.add_edge(0, 1);
  b.add_edge(1, 2, 5.0);
  b.add_edge(2, 3);
  EXPECT_EQ(b.vertex_count(), 4u);
  EXPECT_EQ(b.edge_count(), 3u);
  const graphx::Graph g = b.build();
  EXPECT_EQ(g.vertex_count(), 4u);
  EXPECT_EQ(g.edge_count(), 3u);
}

TEST(Graph, UndirectedAdjacency) {
  graphx::GraphBuilder b{3};
  b.add_edge(0, 2, 7.0);
  const graphx::Graph g = b.build();
  ASSERT_EQ(g.degree(0), 1u);
  ASSERT_EQ(g.degree(2), 1u);
  EXPECT_EQ(g.degree(1), 0u);
  EXPECT_EQ(g.neighbors(0)[0].to, 2u);
  EXPECT_DOUBLE_EQ(g.neighbors(0)[0].weight, 7.0);
  EXPECT_EQ(g.neighbors(2)[0].to, 0u);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_FALSE(g.has_edge(0, 1));
}

TEST(Graph, SelfLoopsIgnored) {
  graphx::GraphBuilder b{2};
  b.add_edge(1, 1);
  EXPECT_EQ(b.edge_count(), 0u);
}

TEST(Graph, OutOfRangeVertexThrows) {
  graphx::GraphBuilder b{2};
  EXPECT_THROW(b.add_edge(0, 2), std::out_of_range);
  EXPECT_THROW(b.add_edge(5, 0), std::out_of_range);
}

TEST(Graph, ParallelEdgesPreserved) {
  graphx::GraphBuilder b{2};
  b.add_edge(0, 1, 1.0);
  b.add_edge(0, 1, 2.0);
  const graphx::Graph g = b.build();
  EXPECT_EQ(g.degree(0), 2u);
}

// ------------------------------------------------------------- Dijkstra ---

TEST(Dijkstra, LineGraphDistances) {
  const auto g = line_graph(5);
  const auto sp = graphx::dijkstra(g, 0);
  for (graphx::VertexId v = 0; v < 5; ++v) {
    EXPECT_DOUBLE_EQ(sp.distance[v], static_cast<double>(v));
  }
  const auto path = sp.path_to(4);
  EXPECT_EQ(path, (std::vector<graphx::VertexId>{0, 1, 2, 3, 4}));
}

TEST(Dijkstra, UnreachableVertex) {
  graphx::GraphBuilder b{3};
  b.add_edge(0, 1, 1.0);
  const auto sp = graphx::dijkstra(b.build(), 0);
  EXPECT_FALSE(sp.reachable(2));
  EXPECT_TRUE(sp.path_to(2).empty());
}

TEST(Dijkstra, PrefersLighterLongerPath) {
  graphx::GraphBuilder b{4};
  b.add_edge(0, 3, 10.0);  // direct but heavy
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 2, 1.0);
  b.add_edge(2, 3, 1.0);
  const auto sp = graphx::dijkstra(b.build(), 0, 3);
  EXPECT_DOUBLE_EQ(sp.distance[3], 3.0);
  EXPECT_EQ(sp.path_to(3).size(), 4u);
}

TEST(Dijkstra, EarlyTargetStopStillCorrect) {
  const auto g = random_graph(3, 100, 0.1);
  const auto full = graphx::dijkstra(g, 0);
  const auto targeted = graphx::dijkstra(g, 0, 42);
  if (full.reachable(42)) {
    EXPECT_DOUBLE_EQ(full.distance[42], targeted.distance[42]);
  }
}

TEST(Dijkstra, NegativeWeightThrows) {
  graphx::GraphBuilder b{2};
  b.add_edge(0, 1, -1.0);
  EXPECT_THROW(graphx::dijkstra(b.build(), 0), std::invalid_argument);
}

TEST(Dijkstra, SourceIsItsOwnParent) {
  const auto g = line_graph(3);
  const auto sp = graphx::dijkstra(g, 1);
  EXPECT_EQ(sp.parent[1], 1u);
  EXPECT_DOUBLE_EQ(sp.distance[1], 0.0);
  EXPECT_EQ(sp.path_to(1), (std::vector<graphx::VertexId>{1}));
}

// Property: Dijkstra agrees with the Bellman-Ford oracle on random graphs.
class DijkstraOracle : public ::testing::TestWithParam<int> {};

TEST_P(DijkstraOracle, MatchesBellmanFord) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const auto g = random_graph(seed, 60, 0.08);
  const auto d = graphx::dijkstra(g, 0);
  const auto bf = graphx::bellman_ford(g, 0);
  for (graphx::VertexId v = 0; v < g.vertex_count(); ++v) {
    if (bf.reachable(v)) {
      EXPECT_NEAR(d.distance[v], bf.distance[v], 1e-9) << "vertex " << v;
    } else {
      EXPECT_FALSE(d.reachable(v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, DijkstraOracle, ::testing::Range(0, 15));

// Property: path_to reconstructs a path whose edge weights sum to distance.
class PathReconstruction : public ::testing::TestWithParam<int> {};

TEST_P(PathReconstruction, PathWeightEqualsDistance) {
  const auto seed = static_cast<std::uint64_t>(GetParam()) + 100;
  const auto g = random_graph(seed, 50, 0.1);
  const auto sp = graphx::dijkstra(g, 0);
  for (graphx::VertexId v = 0; v < g.vertex_count(); ++v) {
    if (!sp.reachable(v)) continue;
    const auto path = sp.path_to(v);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), 0u);
    EXPECT_EQ(path.back(), v);
    double total = 0.0;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      // Find the lightest edge between consecutive path vertices.
      double best = std::numeric_limits<double>::infinity();
      for (const auto& e : g.neighbors(path[i])) {
        if (e.to == path[i + 1]) best = std::min(best, e.weight);
      }
      ASSERT_TRUE(std::isfinite(best)) << "path uses a non-edge";
      total += best;
    }
    EXPECT_NEAR(total, sp.distance[v], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, PathReconstruction, ::testing::Range(0, 10));

// ------------------------------------------------------ essential_edges ---

namespace {

/// Random graph with small integer weights: many exact ties (a + b == c),
/// which the prune must keep, beside strictly dominated edges it may drop.
/// Weights are drawn from min_weight .. min_weight + weight_count - 1.
graphx::Graph integer_graph(std::uint64_t seed, std::size_t n, double edge_prob,
                            std::uint64_t weight_count = 6, double min_weight = 1.0) {
  Rng rng{seed};
  graphx::GraphBuilder b{n};
  for (graphx::VertexId i = 0; i < n; ++i) {
    for (graphx::VertexId j = i + 1; j < n; ++j) {
      if (rng.chance(edge_prob)) {
        b.add_edge(i, j, min_weight + static_cast<double>(rng.uniform_int(weight_count)));
      }
    }
  }
  return b.build();
}

/// Four landmarks spread over the vertex ids (the graphs are random, so
/// any spread is as good as another).
std::vector<graphx::VertexId> four_landmarks(std::size_t n) {
  const auto q = static_cast<graphx::VertexId>(n / 4);
  return {0, q, 2 * q, 3 * q};
}

/// Near-tie graph: a heavy edge 0-1 lifts distances from vertex 0 to ~1e12,
/// where one ulp is ~1e-4, and the other weights are integers plus multiples
/// of 0.05 — so two-hop detours beat direct edges by gaps on both sides of
/// the prune's margin (~0.14 here), with rounding in every accumulated sum.
graphx::Graph near_tie_graph(std::uint64_t seed, std::size_t n, double edge_prob) {
  Rng rng{seed};
  graphx::GraphBuilder b{n};
  b.add_edge(0, 1, 1e12);
  for (graphx::VertexId i = 1; i < n; ++i) {
    for (graphx::VertexId j = i + 1; j < n; ++j) {
      if (rng.chance(edge_prob)) {
        b.add_edge(i, j, static_cast<double>(1 + rng.uniform_int(4)) +
                             0.05 * static_cast<double>(rng.uniform_int(4)));
      }
    }
  }
  return b.build();
}

/// Every vertex's pruned slice must be a subsequence of its full slice
/// (same CSR order), and the pruned graph must stay undirected.
void expect_ordered_subgraph(const graphx::Graph& full, const graphx::Graph& pruned) {
  ASSERT_EQ(pruned.vertex_count(), full.vertex_count());
  EXPECT_EQ(pruned.directed_edge_count(), 2 * pruned.edge_count());
  for (graphx::VertexId v = 0; v < full.vertex_count(); ++v) {
    const auto all = full.neighbors(v);
    std::size_t at = 0;
    for (const graphx::Edge e : pruned.neighbors(v)) {
      while (at < all.size() && !(all[at].to == e.to && all[at].weight == e.weight)) ++at;
      ASSERT_LT(at, all.size()) << "vertex " << v << " gained or reordered edge to " << e.to;
      ++at;
      EXPECT_TRUE(pruned.has_edge(e.to, v)) << "asymmetric edge " << v << "-" << e.to;
    }
  }
}

/// Full trees, targeted runs and ALT queries over the pruned graph must
/// match the full graph exactly: settled distances, parents, paths.
void expect_same_dijkstra(const graphx::Graph& full, const graphx::Graph& pruned,
                          std::uint64_t seed) {
  const auto n = static_cast<graphx::VertexId>(full.vertex_count());
  for (graphx::VertexId s = 0; s < n; s += 7) {
    const auto a = graphx::dijkstra(full, s);
    const auto b = graphx::dijkstra(pruned, s);
    ASSERT_EQ(a.distance, b.distance) << "source " << s;
    ASSERT_EQ(a.parent, b.parent) << "source " << s;
  }
  const graphx::LandmarkTable table{pruned, four_landmarks(n)};
  graphx::AltSearch search;
  Rng rng{seed};
  for (int trial = 0; trial < 80; ++trial) {
    const auto s = static_cast<graphx::VertexId>(rng.uniform_int(n));
    const auto t = static_cast<graphx::VertexId>(rng.uniform_int(n));
    const auto a = graphx::dijkstra(full, s, t);
    const auto b = graphx::dijkstra(pruned, s, t);
    ASSERT_EQ(a.path_to(t), b.path_to(t)) << s << "->" << t;
    ASSERT_EQ(a.distance[t], b.distance[t]) << s << "->" << t;
    ASSERT_EQ(a.path_to(t), search.path(pruned, table, s, t)) << s << "->" << t << " (ALT)";
  }
}

}  // namespace

TEST(EssentialEdges, DropsOnlyStrictlyDominatedEdges) {
  graphx::GraphBuilder b{4};
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 2, 1.0);
  b.add_edge(0, 2, 2.0);  // exact tie with 0-1-2: kept
  b.add_edge(2, 3, 1.0);
  b.add_edge(1, 3, 3.0);  // 1-2-3 costs 2 < 3: dropped
  const auto full = b.build();
  const auto pruned = graphx::essential_edges(full);
  EXPECT_EQ(pruned.edge_count(), 4u);
  EXPECT_TRUE(pruned.has_edge(0, 2));
  EXPECT_FALSE(pruned.has_edge(1, 3));
  EXPECT_FALSE(pruned.has_edge(3, 1));
  expect_ordered_subgraph(full, pruned);
}

TEST(EssentialEdges, KeepsNearTiesInsideTheMargin) {
  // a + b beats c by one ulp of c: inside the rounding margin, kept.
  const double c = 2e6;
  graphx::GraphBuilder near{3};
  near.add_edge(0, 1, 1e6);
  near.add_edge(1, 2, 1e6);
  near.add_edge(0, 2, std::nextafter(c, 3e6));
  EXPECT_EQ(graphx::essential_edges(near.build()).edge_count(), 3u);
  // Beaten by far more than the margin: dropped.
  graphx::GraphBuilder far{3};
  far.add_edge(0, 1, 1e6);
  far.add_edge(1, 2, 1e6);
  far.add_edge(0, 2, c + 1e-3);
  EXPECT_EQ(graphx::essential_edges(far.build()).edge_count(), 2u);
}

TEST(EssentialEdges, NegativeWeightThrows) {
  graphx::GraphBuilder b{2};
  b.add_edge(0, 1, -1.0);
  EXPECT_THROW(graphx::essential_edges(b.build()), std::invalid_argument);
}

TEST(EssentialEdges, EmptyAndEdgelessGraphs) {
  EXPECT_EQ(graphx::essential_edges(graphx::Graph{}).vertex_count(), 0u);
  const auto pruned = graphx::essential_edges(graphx::GraphBuilder{5}.build());
  EXPECT_EQ(pruned.vertex_count(), 5u);
  EXPECT_EQ(pruned.edge_count(), 0u);
}

// Property: on tie-heavy integer graphs and near-tie graphs, Dijkstra over
// the pruned graph reproduces every distance, parent and path.
class EssentialEdgesProperty : public ::testing::TestWithParam<int> {};

TEST_P(EssentialEdgesProperty, IntegerWeightsPreserveEveryTree) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const auto full = integer_graph(seed, 90, 0.12);
  const auto pruned = graphx::essential_edges(full);
  EXPECT_LT(pruned.edge_count(), full.edge_count());
  expect_ordered_subgraph(full, pruned);
  expect_same_dijkstra(full, pruned, seed);
}

TEST_P(EssentialEdgesProperty, NearTiesPreserveEveryTree) {
  const auto seed = static_cast<std::uint64_t>(GetParam()) + 500;
  const auto full = near_tie_graph(seed, 80, 0.15);
  const auto pruned = graphx::essential_edges(full);
  EXPECT_LT(pruned.edge_count(), full.edge_count());
  expect_ordered_subgraph(full, pruned);
  expect_same_dijkstra(full, pruned, seed);
}

TEST_P(EssentialEdgesProperty, ParallelEdgesPreserveEveryTree) {
  const auto seed = static_cast<std::uint64_t>(GetParam()) + 900;
  auto b = graphx::GraphBuilder{40};
  Rng rng{seed};
  for (int i = 0; i < 300; ++i) {
    const auto u = static_cast<graphx::VertexId>(rng.uniform_int(40));
    const auto v = static_cast<graphx::VertexId>(rng.uniform_int(40));
    b.add_edge(u, v, static_cast<double>(1 + rng.uniform_int(5)));
  }
  const auto full = b.build();
  const auto pruned = graphx::essential_edges(full);
  expect_ordered_subgraph(full, pruned);
  expect_same_dijkstra(full, pruned, seed);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, EssentialEdgesProperty, ::testing::Range(0, 12));

// ------------------------------------------------------------------ ALT ---

namespace {

/// Ordered pairs on which ALT does not return dijkstra(g, s, t).path_to(t)
/// (a parent cycle, which AltSearch reports by throwing, counts as one).
std::size_t alt_mismatches(const graphx::Graph& g, const graphx::LandmarkTable& table) {
  const auto n = static_cast<graphx::VertexId>(g.vertex_count());
  graphx::AltSearch search;
  std::size_t mismatches = 0;
  for (graphx::VertexId s = 0; s < n; ++s) {
    for (graphx::VertexId t = 0; t < n; ++t) {
      const auto expected = graphx::dijkstra(g, s, t).path_to(t);
      bool same = false;
      try {
        same = search.path(g, table, s, t) == expected;
      } catch (const std::logic_error&) {
      }
      if (!same && mismatches++ == 0) ADD_FAILURE() << "first mismatch " << s << "->" << t;
    }
  }
  return mismatches;
}

}  // namespace

TEST(Alt, LandmarkTableHoldsDijkstraDistances) {
  const auto g = integer_graph(7, 60, 0.1, 4);
  const std::vector<graphx::VertexId> landmarks{3, 30, 3};  // a repeat is harmless
  const graphx::LandmarkTable table{g, landmarks};
  ASSERT_EQ(table.landmark_count(), 3u);
  for (std::size_t i = 0; i < landmarks.size(); ++i) {
    const auto sp = graphx::dijkstra(g, landmarks[i]);
    for (graphx::VertexId v = 0; v < 60; ++v)
      EXPECT_EQ(table.distance(i, v), sp.distance[v]) << i << ' ' << v;
  }
}

TEST(Alt, SourceEqualsTargetAndUnreachableTarget) {
  graphx::GraphBuilder b{5};
  b.add_edge(0, 1, 2.0);
  b.add_edge(1, 2, 3.0);
  b.add_edge(3, 4, 1.0);  // a second component
  const auto g = b.build();
  const std::vector<graphx::VertexId> landmarks{0, 4};
  const graphx::LandmarkTable table{g, landmarks};
  ASSERT_FALSE(table.empty());
  graphx::AltSearch search;
  EXPECT_EQ(search.path(g, table, 1, 1), (std::vector<graphx::VertexId>{1}));
  EXPECT_TRUE(search.path(g, table, 0, 4).empty());
  EXPECT_TRUE(search.path(g, table, 4, 0).empty());
  EXPECT_EQ(search.path(g, table, 2, 0), (std::vector<graphx::VertexId>{2, 1, 0}));
  EXPECT_EQ(search.path(g, table, 4, 3), (std::vector<graphx::VertexId>{4, 3}));
}

TEST(Alt, NegativeWeightThrows) {
  graphx::GraphBuilder b{3};
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 2, -1.0);
  const auto g = b.build();
  graphx::AltSearch search;
  EXPECT_THROW(search.path(g, graphx::LandmarkTable{}, 0, 2), std::invalid_argument);
}

// Property: on tie-heavy integer graphs (weights 1-4 and 1-64) ALT over
// four landmarks reproduces Dijkstra's path, equal-cost tie-breaks
// included, for every ordered pair.
class AltProperty : public ::testing::TestWithParam<int> {};

TEST_P(AltProperty, MatchesDijkstraOnEveryPair) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (const std::uint64_t weights : {4ull, 64ull}) {
    const auto g = integer_graph(seed * 31 + weights, 70, 0.08, weights);
    const graphx::LandmarkTable table{g, four_landmarks(g.vertex_count())};
    ASSERT_EQ(table.landmark_count(), 4u);
    EXPECT_EQ(alt_mismatches(g, table), 0u) << "weights 1-" << weights;
  }
}

// A zero-weight edge voids the tie argument (alt.hpp): the table must come
// out empty, and the search must then still be Dijkstra on every pair.
TEST_P(AltProperty, ZeroWeightEdgesEmptyTheTableAndStillMatch) {
  const auto seed = static_cast<std::uint64_t>(GetParam()) + 100;
  const auto g = integer_graph(seed, 70, 0.08, 5, 0.0);  // weights 0-4
  const graphx::LandmarkTable table{g, four_landmarks(g.vertex_count())};
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(alt_mismatches(g, table), 0u);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, AltProperty, ::testing::Range(0, 6));

// ------------------------------------------------------------------ BFS ---

TEST(Bfs, HopCounts) {
  const auto g = line_graph(6);
  const auto sp = graphx::bfs(g, 2);
  EXPECT_DOUBLE_EQ(sp.distance[0], 2.0);
  EXPECT_DOUBLE_EQ(sp.distance[5], 3.0);
}

TEST(Bfs, IgnoresWeights) {
  graphx::GraphBuilder b{3};
  b.add_edge(0, 1, 100.0);
  b.add_edge(1, 2, 100.0);
  b.add_edge(0, 2, 0.001);
  const auto sp = graphx::bfs(b.build(), 0);
  EXPECT_DOUBLE_EQ(sp.distance[2], 1.0);  // one hop regardless of weight
}

TEST(Bfs, DisconnectedComponentsUnreachable) {
  graphx::GraphBuilder b{4};
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const auto sp = graphx::bfs(b.build(), 0);
  EXPECT_TRUE(sp.reachable(1));
  EXPECT_FALSE(sp.reachable(2));
  EXPECT_FALSE(sp.reachable(3));
}

// ----------------------------------------------------------- Components ---

TEST(Components, CountsAndMembership) {
  graphx::GraphBuilder b{6};
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(3, 4);
  const auto comps = graphx::connected_components(b.build());
  EXPECT_EQ(comps.count, 3u);  // {0,1,2}, {3,4}, {5}
  EXPECT_EQ(comps.component_of[0], comps.component_of[2]);
  EXPECT_EQ(comps.component_of[3], comps.component_of[4]);
  EXPECT_NE(comps.component_of[0], comps.component_of[3]);
  EXPECT_NE(comps.component_of[0], comps.component_of[5]);

  auto sizes = comps.sizes();
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes, (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_EQ(comps.sizes()[comps.largest()], 3u);
}

TEST(Components, FullyConnected) {
  const auto comps = graphx::connected_components(line_graph(10));
  EXPECT_EQ(comps.count, 1u);
}

TEST(Components, EmptyGraph) {
  const auto comps = graphx::connected_components(graphx::GraphBuilder{0}.build());
  EXPECT_EQ(comps.count, 0u);
}

// Property: components agree with union-find over the same edges.
class ComponentsOracle : public ::testing::TestWithParam<int> {};

TEST_P(ComponentsOracle, MatchesUnionFind) {
  const auto seed = static_cast<std::uint64_t>(GetParam()) + 50;
  Rng rng{seed};
  const std::size_t n = 80;
  graphx::GraphBuilder b{n};
  graphx::UnionFind uf{n};
  for (int i = 0; i < 120; ++i) {
    const auto u = static_cast<graphx::VertexId>(rng.uniform_int(n));
    const auto v = static_cast<graphx::VertexId>(rng.uniform_int(n));
    if (u == v) continue;
    b.add_edge(u, v);
    uf.unite(u, v);
  }
  const auto comps = graphx::connected_components(b.build());
  EXPECT_EQ(comps.count, uf.set_count());
  for (graphx::VertexId u = 0; u < n; ++u) {
    for (graphx::VertexId v = 0; v < n; ++v) {
      EXPECT_EQ(comps.component_of[u] == comps.component_of[v], uf.connected(u, v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, ComponentsOracle, ::testing::Range(0, 8));

// ------------------------------------------------------------ UnionFind ---

TEST(UnionFind, BasicMerge) {
  graphx::UnionFind uf{5};
  EXPECT_EQ(uf.set_count(), 5u);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_FALSE(uf.unite(1, 0));  // already merged
  EXPECT_TRUE(uf.connected(0, 1));
  EXPECT_FALSE(uf.connected(0, 2));
  EXPECT_EQ(uf.set_count(), 4u);
  EXPECT_EQ(uf.size_of(0), 2u);
  EXPECT_EQ(uf.size_of(1), 2u);
  EXPECT_EQ(uf.size_of(4), 1u);
}

TEST(UnionFind, TransitiveMerges) {
  graphx::UnionFind uf{6};
  uf.unite(0, 1);
  uf.unite(2, 3);
  uf.unite(1, 2);
  EXPECT_TRUE(uf.connected(0, 3));
  EXPECT_EQ(uf.size_of(3), 4u);
  EXPECT_EQ(uf.set_count(), 3u);  // {0,1,2,3}, {4}, {5}
}

// --------------------------------------------------------- Bellman-Ford ---

TEST(BellmanFord, SimplePath) {
  const auto g = line_graph(4);
  const auto sp = graphx::bellman_ford(g, 0);
  EXPECT_DOUBLE_EQ(sp.distance[3], 3.0);
}

TEST(BellmanFord, NegativeCycleThrows) {
  graphx::GraphBuilder b{2};
  b.add_edge(0, 1, -1.0);  // undirected negative edge = negative cycle
  EXPECT_THROW(graphx::bellman_ford(b.build(), 0), std::invalid_argument);
}

// ---------------------------------------------------------- LinkBuilder ---

namespace {

/// Building-style links (d <= range + r_a + r_b) over hostile geometry, in
/// cells of 1/16 m (a power of two, so the lattice sits exactly on cell
/// boundaries and its neighbours exactly at the range): a lattice with
/// negative coordinates, coincident points, the first ulp below lattice
/// points, and two copies 10⁷ m away. With `footprint`, the lattice points
/// get radii under 0.02 m and one 20 km footprint joins them: its reach spans
/// 2·10⁵ rows and columns of cells.
struct Hostile {
  static constexpr double kCell = 0.0625;
  static constexpr double kRange = 0.0625;
  std::vector<geo::Point> points;
  std::vector<double> radii;

  explicit Hostile(bool footprint) {
    Rng rng{21};
    const auto radius = [&] { return footprint ? rng.uniform(0.0, 0.02) : 0.0; };
    for (const geo::Point shift : {geo::Point{0.0, 0.0}, {1e7, 1e7}, {-1e7, 3e7}}) {
      for (int i = -6; i <= 6; ++i) {
        for (int j = -6; j <= 6; ++j) add({shift.x + i * kCell, shift.y + j * kCell}, radius());
      }
      for (int i = 0; i < 8; ++i) {
        add(points[rng.uniform_int(points.size())], radius());  // coincident
        const geo::Point on = points[rng.uniform_int(points.size())];
        add({std::nextafter(on.x, -1e300), std::nextafter(on.y, -1e300)}, 0.0);
      }
    }
    if (footprint) add({3.0, -2.0}, 0.5 * std::hypot(20000.0, 20000.0));
  }
  void add(geo::Point p, double r) {
    points.push_back(p);
    radii.push_back(r);
  }

  std::optional<double> link(std::uint32_t a, std::uint32_t b) const {
    const double d = geo::distance(points[a], points[b]);
    if (d > kRange + radii[a] + radii[b]) return std::nullopt;
    return d;
  }
  /// The builder's graph; `seconds` gets its wall time.
  graphx::Graph build(double& seconds, std::size_t bands = 0) const {
    const double max_radius = *std::max_element(radii.begin(), radii.end());
    const geo::SpatialGrid grid{kCell, points};
    const auto start = std::chrono::steady_clock::now();
    graphx::Graph g = graphx::LinkBuilder::build(
        grid, [&](std::uint32_t a) { return (radii[a] + kRange + max_radius) * (1.0 + 1e-9); },
        [&](std::uint32_t a, std::uint32_t b, double d2) {
          return std::sqrt(d2) <= kRange + radii[a] + radii[b];
        },
        [&](std::uint32_t a, std::uint32_t b) { return link(a, b); }, bands);
    seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    return g;
  }
  graphx::Graph reference() const {
    const double max_radius = *std::max_element(radii.begin(), radii.end());
    return link_reference::reference_graph(
        link_reference::candidates(points, kCell, kRange + 2.0 * max_radius),
        [&](std::uint32_t a, std::uint32_t b) { return link(a, b); });
  }
};

}  // namespace

TEST(LinkBuilder, HostileLatticeMatchesBruteForce) {
  const Hostile h{false};
  double seconds = 0.0;
  const graphx::Graph g = h.build(seconds);
  EXPECT_TRUE(link_reference::same_graph(g, h.reference()));
  // Lattice neighbours, one cell apart in x or in y, link at exactly the range.
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 13));
  EXPECT_FALSE(g.has_edge(0, 14));
}

TEST(LinkBuilder, HostileFootprintMatchesBruteForceQuickly) {
  const Hostile h{true};
  double seconds = 0.0;
  const graphx::Graph g = h.build(seconds);
  // Walking the empty rows or columns inside the footprint's reach would
  // take minutes; the sweep walks the occupied ones only.
  EXPECT_LT(seconds, 1.0);
  EXPECT_TRUE(link_reference::same_graph(g, h.reference()));
  // The copies 10⁷ m away stay apart from the footprint, and coincident
  // points link at distance 0.
  const auto footprint = static_cast<graphx::VertexId>(h.points.size() - 1);
  std::size_t near_origin = 0;
  for (const geo::Point p : h.points) near_origin += geo::norm(p) < 100.0;
  EXPECT_EQ(g.degree(footprint), near_origin - 1);
  bool zero_link = false;
  for (graphx::VertexId v = 0; v < g.vertex_count(); ++v) {
    for (const double w : g.neighbors(v).weights()) zero_link |= w == 0.0;
  }
  EXPECT_TRUE(zero_link);
}

TEST(LinkBuilder, HostileGeometryIsTheSameAtEveryBandCount) {
  // More bands than occupied rows included: the extra bands are empty.
  for (const bool footprint : {false, true}) {
    const Hostile h{footprint};
    double seconds = 0.0;
    const std::uint64_t sequential = link_reference::fingerprint(h.build(seconds, 1));
    for (const std::size_t bands : {2, 3, 4, 64}) {
      SCOPED_TRACE(bands);
      EXPECT_EQ(link_reference::fingerprint(h.build(seconds, bands)), sequential);
    }
  }
}

TEST(LinkBuilder, EmptyGridAndIsolatedIds) {
  const geo::SpatialGrid empty{1.0, std::span<const geo::Point>{}};
  const auto none = [](auto...) { return true; };
  const auto unit = [](std::uint32_t, std::uint32_t) -> std::optional<double> { return 1.0; };
  EXPECT_EQ(graphx::LinkBuilder::build(empty, [](std::uint32_t) { return 1.0; }, none, unit)
                .vertex_count(),
            0u);
  // Ids 1 and 3 were never inserted: they are vertices without links.
  const std::vector<std::uint32_t> ids{0, 2, 4};
  const std::vector<geo::Point> pts{{0.0, 0.0}, {0.5, 0.0}, {5.0, 0.0}};
  const geo::SpatialGrid sparse{1.0, ids, pts};
  const graphx::Graph g =
      graphx::LinkBuilder::build(sparse, [](std::uint32_t) { return 1.0; }, none, unit);
  ASSERT_EQ(g.vertex_count(), 5u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_EQ(g.degree(1) + g.degree(3) + g.degree(4), 0u);
  for (const std::size_t bands : {2, 4}) {
    EXPECT_EQ(graphx::LinkBuilder::build(empty, [](std::uint32_t) { return 1.0; }, none, unit,
                                         bands)
                  .vertex_count(),
              0u);
    EXPECT_EQ(link_reference::fingerprint(graphx::LinkBuilder::build(
                  sparse, [](std::uint32_t) { return 1.0; }, none, unit, bands)),
              link_reference::fingerprint(g));
  }
}

// ------------------------------------------------------------- parallel ---

TEST(Parallel, CpuSharesCapTheCompileAndNest) {
  const std::size_t cpus = graphx::affinity_cpus();
  ASSERT_GE(cpus, 1u);
  EXPECT_EQ(graphx::compile_cpus(), cpus);
  {
    const graphx::CpuShare one{1};
    EXPECT_EQ(graphx::compile_cpus(), 1u);
    {
      const graphx::CpuShare many{cpus + 8};
      EXPECT_EQ(graphx::compile_cpus(), cpus);  // never above the mask
    }
    EXPECT_EQ(graphx::compile_cpus(), 1u);
    // CPUs lent to another thread are not idle, but one always is.
    std::atomic<std::size_t> lent{1};
    {
      const graphx::CpuShare all{cpus, &lent};
      EXPECT_EQ(graphx::compile_cpus(), cpus);
      EXPECT_EQ(graphx::idle_cpus(), std::max<std::size_t>(cpus - 1, 1));
      lent.store(0);
      EXPECT_EQ(graphx::idle_cpus(), cpus);
    }
    EXPECT_EQ(graphx::idle_cpus(), 1u);
    // A share is per thread: a new thread starts with its own mask.
    std::size_t other = 0;
    std::thread{[&] { other = graphx::compile_cpus(); }}.join();
    EXPECT_EQ(other, cpus);
  }
  EXPECT_EQ(graphx::compile_cpus(), cpus);
}

TEST(Parallel, ForkJoinRunsEveryIndexOnceAndRethrowsTheLowest) {
  for (const std::size_t count : {0, 1, 2, 5}) {
    std::vector<int> runs(count, 0);
    graphx::fork_join(count, [&](std::size_t k) { ++runs[k]; });
    EXPECT_EQ(std::count(runs.begin(), runs.end(), 1), static_cast<std::ptrdiff_t>(count));
  }
  try {
    graphx::fork_join(4, [](std::size_t k) {
      if (k >= 2) throw std::runtime_error{std::to_string(k)};
    });
    FAIL() << "fork_join swallowed the exceptions";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "2");
  }
}

TEST(LinkBuilder, DroppedCandidatesLeaveNoGaps) {
  // A link model that drops every other candidate: the CSR is compacted.
  std::vector<geo::Point> pts;
  for (int i = 0; i < 30; ++i) pts.push_back({i * 0.3, (i % 4) * 0.3});
  const geo::SpatialGrid grid{1.0, pts};
  int calls = 0;
  const graphx::Graph g = graphx::LinkBuilder::build(
      grid, [](std::uint32_t) { return 1.0; }, [](auto...) { return true; },
      [&](std::uint32_t a, std::uint32_t b) -> std::optional<double> {
        if (++calls % 2 == 0) return std::nullopt;
        return geo::distance(pts[a], pts[b]);
      });
  EXPECT_EQ(g.directed_edge_count(), 2 * g.edge_count());
  EXPECT_EQ(g.edge_offset(static_cast<graphx::VertexId>(pts.size())), g.directed_edge_count());
  EXPECT_EQ(static_cast<int>(g.edge_count()), (calls + 1) / 2);
  for (graphx::VertexId v = 0; v < g.vertex_count(); ++v) {
    for (const graphx::Edge e : g.neighbors(v)) EXPECT_TRUE(g.has_edge(e.to, v));
  }
}
