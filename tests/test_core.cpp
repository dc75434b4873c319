// Tests for the CityMesh core: building graph, route planning, conduit
// compression (the §3/Figure-4 algorithm), the rebroadcast policy, postboxes,
// the per-AP agent, and the end-to-end network facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <optional>

#include "core/building_graph.hpp"
#include "core/conduit.hpp"
#include "core/evaluation.hpp"
#include "core/network.hpp"
#include "core/postbox.hpp"
#include "core/route_planner.hpp"
#include "cryptox/sealed.hpp"
#include "geo/rng.hpp"
#include "graphx/shortest_path.hpp"
#include "osmx/citygen.hpp"
#include "trafficx/workload.hpp"
#include "link_reference.hpp"
#include "lone_agent.hpp"

namespace core = citymesh::core;
namespace osmx = citymesh::osmx;
namespace geo = citymesh::geo;
namespace wire = citymesh::wire;
namespace cryptox = citymesh::cryptox;
namespace graphx = citymesh::graphx;
namespace trafficx = citymesh::trafficx;

namespace {

/// A straight row of `n` 20x20 buildings with `gap` meters between them.
osmx::City row_city(std::size_t n, double gap = 20.0) {
  const double stride = 20.0 + gap;
  osmx::City city{"row", {{0, 0}, {stride * static_cast<double>(n), 40}}};
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = static_cast<double>(i) * stride;
    city.add_building(geo::Polygon::rectangle({{x0, 0}, {x0 + 20, 20}}));
  }
  return city;
}

/// An L-shaped city: a horizontal row then a vertical column.
osmx::City l_city(std::size_t arm = 8, double gap = 20.0) {
  const double stride = 20.0 + gap;
  const double extent = stride * static_cast<double>(arm + 1);
  osmx::City city{"l", {{0, 0}, {extent, extent}}};
  for (std::size_t i = 0; i < arm; ++i) {
    const double x0 = static_cast<double>(i) * stride;
    city.add_building(geo::Polygon::rectangle({{x0, 0}, {x0 + 20, 20}}));
  }
  for (std::size_t i = 1; i < arm; ++i) {
    const double y0 = static_cast<double>(i) * stride;
    const double x0 = static_cast<double>(arm - 1) * stride;
    city.add_building(geo::Polygon::rectangle({{x0, y0}, {x0 + 20, y0 + 20}}));
  }
  return city;
}

const osmx::City& boston() {
  static const osmx::City city = osmx::generate_city(osmx::profile_by_name("boston"));
  return city;
}

}  // namespace

// -------------------------------------------------------- BuildingGraph ---

TEST(BuildingGraph, EdgeWeightPolicies) {
  EXPECT_DOUBLE_EQ(core::edge_cost(3.0, core::EdgeWeight::kLinear), 3.0);
  EXPECT_DOUBLE_EQ(core::edge_cost(3.0, core::EdgeWeight::kSquared), 9.0);
  EXPECT_DOUBLE_EQ(core::edge_cost(3.0, core::EdgeWeight::kCubed), 27.0);
}

TEST(BuildingGraph, RowCityIsAChain) {
  const auto city = row_city(5, 20.0);
  const core::BuildingGraph g{city, {}};
  EXPECT_EQ(g.building_count(), 5u);
  // 40 m centroid spacing with 20 m gaps: every adjacent pair connects, and
  // with radii ~14 m + 50 m range, second neighbors (80 m) may connect too;
  // at minimum the chain must exist.
  for (core::BuildingId b = 0; b + 1 < 5; ++b) {
    EXPECT_TRUE(g.graph().has_edge(b, b + 1));
  }
}

TEST(BuildingGraph, FarBuildingsNotConnected) {
  const auto city = row_city(3, 200.0);
  const core::BuildingGraph g{city, {}};
  EXPECT_FALSE(g.graph().has_edge(0, 1));
  EXPECT_EQ(g.graph().edge_count(), 0u);
}

TEST(BuildingGraph, CubedWeightsStored) {
  const auto city = row_city(2, 20.0);
  core::BuildingGraphConfig cfg;
  cfg.weight = core::EdgeWeight::kCubed;
  const core::BuildingGraph g{city, cfg};
  ASSERT_TRUE(g.graph().has_edge(0, 1));
  const double d = geo::distance(g.centroid(0), g.centroid(1));
  const graphx::Graph full = link_reference::weighted_building_graph(g);
  EXPECT_NEAR(full.neighbors(0)[0].weight, d * d * d, 1e-6);
  EXPECT_EQ(g.edge_weight(0, 1), full.neighbors(0)[0].weight);
}

TEST(BuildingGraph, CentroidsMatchCity) {
  const auto& city = boston();
  const core::BuildingGraph g{city, {}};
  for (std::size_t i = 0; i < city.building_count(); i += 331) {
    EXPECT_EQ(g.centroid(static_cast<core::BuildingId>(i)), city.building(i).centroid);
  }
}

TEST(BuildingGraph, EffectiveRadiusIsHalfDiagonal) {
  const auto city = row_city(1);
  const core::BuildingGraph g{city, {}};
  EXPECT_NEAR(g.effective_radius(0), std::sqrt(20.0 * 20.0 * 2.0) / 2.0, 1e-9);
}

TEST(BuildingGraph, InvalidRangeThrows) {
  core::BuildingGraphConfig cfg;
  cfg.transmission_range_m = 0.0;
  EXPECT_THROW((core::BuildingGraph{row_city(2), cfg}), std::invalid_argument);
}

TEST(BuildingGraph, DenserPredictionWithLargerConnectFactor) {
  const auto& city = boston();
  core::BuildingGraphConfig narrow;
  narrow.connect_factor = 0.5;
  core::BuildingGraphConfig wide;
  wide.connect_factor = 1.5;
  const core::BuildingGraph gn{city, narrow};
  const core::BuildingGraph gw{city, wide};
  EXPECT_LT(gn.graph().edge_count(), gw.graph().edge_count());
}

namespace {

/// The building of landmark row `i`: the one vertex at distance 0 from it
/// (planning weights are positive).
core::BuildingId landmark_of(const graphx::LandmarkTable& table, std::size_t i,
                             std::size_t building_count) {
  std::optional<core::BuildingId> found;
  for (core::BuildingId b = 0; b < building_count; ++b) {
    if (table.distance(i, b) == 0.0) {
      EXPECT_FALSE(found.has_value()) << "row " << i << " has two zero entries";
      found = b;
    }
  }
  EXPECT_TRUE(found.has_value()) << "row " << i;
  return found.value_or(0);
}

}  // namespace

TEST(BuildingGraph, EightLandmarksAreTheDirectionalExtremesOnEveryProfile) {
  // Brute force: per direction (N, NE, E, SE, S, SW, W, NW) the largest
  // centroid projection within the largest planning component, lowest id
  // on a tie, a repeat dropped.
  constexpr std::array<geo::Point, 8> directions{
      {{0, 1}, {1, 1}, {1, 0}, {1, -1}, {0, -1}, {-1, -1}, {-1, 0}, {-1, 1}}};
  static_assert(core::BuildingGraph::kLandmarks == directions.size());
  for (const auto& profile : osmx::default_profiles()) {
    SCOPED_TRACE(profile.name);
    const core::BuildingGraph map{osmx::generate_city(profile), {}};
    const graphx::Components components = graphx::connected_components(map.planning_graph());
    const std::uint32_t largest = components.largest();
    std::vector<core::BuildingId> expected;
    for (const geo::Point dir : directions) {
      std::optional<core::BuildingId> best;
      double best_score = 0.0;
      for (core::BuildingId b = 0; b < map.building_count(); ++b) {
        if (components.component_of[b] != largest) continue;
        const double score = map.centroid(b).x * dir.x + map.centroid(b).y * dir.y;
        if (!best || score > best_score) {
          best = b;
          best_score = score;
        }
      }
      ASSERT_TRUE(best.has_value());
      if (std::find(expected.begin(), expected.end(), *best) == expected.end()) {
        expected.push_back(*best);
      }
    }
    const graphx::LandmarkTable& table = map.landmarks();
    ASSERT_FALSE(table.empty());
    ASSERT_EQ(table.landmark_count(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(landmark_of(table, i, map.building_count()), expected[i]) << "row " << i;
    }
  }
}

TEST(BuildingGraph, LandmarksExtremeInSeveralDirectionsCountOnce) {
  // Three buildings in a row along x: building 0 is the extreme to the
  // N (all tie; lowest id), S, SW, W and NW, and building 2 to the NE, E
  // and SE. Two landmarks, in first-direction order.
  osmx::City city{"row", {{0, 0}, {140, 40}}};
  city.add_building(geo::Polygon::rectangle({{0, 0}, {20, 20}}));
  city.add_building(geo::Polygon::rectangle({{45, 0}, {65, 20}}));
  city.add_building(geo::Polygon::rectangle({{90, 0}, {110, 20}}));
  const core::BuildingGraph map{city, {}};
  const graphx::LandmarkTable& table = map.landmarks();
  ASSERT_EQ(table.landmark_count(), 2u);
  EXPECT_EQ(landmark_of(table, 0, 3), 0u);
  EXPECT_EQ(landmark_of(table, 1, 3), 2u);
}

// -------------------------------------------------------------- Conduit ---

TEST(Conduit, StraightRouteCompressesToEndpoints) {
  const auto city = row_city(10, 20.0);
  const core::BuildingGraph map{city, {}};
  std::vector<core::BuildingId> route;
  for (core::BuildingId b = 0; b < 10; ++b) route.push_back(b);
  const auto waypoints = core::compress_route(route, map, {});
  // A perfectly straight route needs only source and destination.
  EXPECT_EQ(waypoints, (std::vector<core::BuildingId>{0, 9}));
}

TEST(Conduit, BentRouteKeepsACornerWaypoint) {
  const auto city = l_city(8);
  const core::BuildingGraph map{city, {}};
  std::vector<core::BuildingId> route;
  for (core::BuildingId b = 0; b < city.building_count(); ++b) route.push_back(b);
  const auto waypoints = core::compress_route(route, map, {});
  ASSERT_GE(waypoints.size(), 3u);
  EXPECT_EQ(waypoints.front(), route.front());
  EXPECT_EQ(waypoints.back(), route.back());
  // The corner building (id 7, end of the horizontal arm) or a neighbor of
  // it must be retained; a two-point compression would cut the corner.
  bool has_corner_region = false;
  for (const auto wp : waypoints) {
    if (wp >= 5 && wp <= 9) has_corner_region = true;
  }
  EXPECT_TRUE(has_corner_region);
}

TEST(Conduit, TrivialRoutes) {
  const auto city = row_city(3);
  const core::BuildingGraph map{city, {}};
  EXPECT_TRUE(core::compress_route({}, map, {}).empty());
  EXPECT_EQ(core::compress_route({1}, map, {}), (std::vector<core::BuildingId>{1}));
  EXPECT_EQ(core::compress_route({0, 1}, map, {}),
            (std::vector<core::BuildingId>{0, 1}));
}

TEST(Conduit, InvalidWidthThrows) {
  const auto city = row_city(3);
  const core::BuildingGraph map{city, {}};
  core::ConduitConfig cfg;
  cfg.width_m = 0.0;
  EXPECT_THROW(core::compress_route({0, 1, 2}, map, cfg), std::invalid_argument);
  EXPECT_THROW((core::ConduitPath{{0, 1}, map, 0.0}), std::invalid_argument);
}

TEST(Conduit, PathContainsCentroidsOfStraightRoute) {
  const auto city = row_city(10, 20.0);
  const core::BuildingGraph map{city, {}};
  const core::ConduitPath path{{0, 9}, map, 50.0};
  for (core::BuildingId b = 0; b < 10; ++b) {
    EXPECT_TRUE(path.contains(map.centroid(b))) << "building " << b;
  }
  EXPECT_FALSE(path.contains({-100, 0}));
  EXPECT_FALSE(path.contains({100, 300}));
}

TEST(Conduit, PathGeometryAccessors) {
  const auto city = row_city(4, 20.0);
  const core::BuildingGraph map{city, {}};
  const core::ConduitPath path{{0, 3}, map, 50.0};
  ASSERT_EQ(path.conduits().size(), 1u);
  EXPECT_DOUBLE_EQ(path.width(), 50.0);
  EXPECT_NEAR(path.total_length(), geo::distance(map.centroid(0), map.centroid(3)), 1e-9);
  ASSERT_TRUE(path.bounds().has_value());
  EXPECT_TRUE(path.bounds()->contains(map.centroid(2)));
}

TEST(Conduit, EmptyAndDegeneratePaths) {
  const auto city = row_city(3);
  const core::BuildingGraph map{city, {}};
  const core::ConduitPath empty{{}, map, 50.0};
  EXPECT_FALSE(empty.contains({0, 0}));
  EXPECT_FALSE(empty.bounds().has_value());
  const core::ConduitPath single{{1}, map, 50.0};
  EXPECT_TRUE(single.conduits().empty());
  // Duplicate waypoints (coincident centroids) are skipped, not crashed on.
  const core::ConduitPath dup{{1, 1}, map, 50.0};
  EXPECT_TRUE(dup.conduits().empty());
}

// The central invariant from Figure 4: every building on the original route
// lies inside the conduit region reconstructed from the compressed
// waypoints. Swept across cities, pairs, and widths.
struct ConduitCoverCase {
  std::uint64_t seed;
  double width;
};

class ConduitCoverProperty : public ::testing::TestWithParam<ConduitCoverCase> {};

TEST_P(ConduitCoverProperty, CompressedConduitsCoverAllRouteBuildings) {
  const auto& city = boston();
  const core::BuildingGraph map{city, {}};
  const graphx::Graph full = link_reference::weighted_building_graph(map);
  geo::Rng rng{GetParam().seed};
  core::ConduitConfig cfg;
  cfg.width_m = GetParam().width;

  for (int trial = 0; trial < 8; ++trial) {
    const auto a = static_cast<core::BuildingId>(rng.uniform_int(map.building_count()));
    const auto b = static_cast<core::BuildingId>(rng.uniform_int(map.building_count()));
    const auto sp = citymesh::graphx::dijkstra(full, a, b);
    const auto route = sp.path_to(b);
    if (route.size() < 2) continue;

    const auto waypoints = core::compress_route(route, map, cfg);
    EXPECT_EQ(waypoints.front(), route.front());
    EXPECT_EQ(waypoints.back(), route.back());
    EXPECT_LE(waypoints.size(), route.size());

    // Waypoints must be a subsequence of the route.
    std::size_t cursor = 0;
    for (const auto wp : waypoints) {
      while (cursor < route.size() && route[cursor] != wp) ++cursor;
      ASSERT_LT(cursor, route.size()) << "waypoint not on route";
    }

    const core::ConduitPath path{waypoints, map, cfg.width_m};
    for (const auto building : route) {
      EXPECT_TRUE(path.contains(map.centroid(building)))
          << "building " << building << " escaped the conduit (width "
          << cfg.width_m << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConduitCoverProperty,
    ::testing::Values(ConduitCoverCase{1, 30.0}, ConduitCoverCase{2, 50.0},
                      ConduitCoverCase{3, 80.0}, ConduitCoverCase{4, 50.0},
                      ConduitCoverCase{5, 120.0}, ConduitCoverCase{6, 50.0}));

TEST(Conduit, WiderConduitCompressesHarder) {
  // A cross-town pair: building ids are emitted row-major, so 0 and a
  // late id sit in opposite corners. The very last ids can be north of the
  // Charles (disconnected in the building graph), so walk back until a
  // spanning route exists.
  const auto& city = boston();
  const core::BuildingGraph map{city, {}};
  const auto sp = citymesh::graphx::dijkstra(link_reference::weighted_building_graph(map), 0);
  std::vector<core::BuildingId> route;
  for (auto target = static_cast<core::BuildingId>(map.building_count() - 1);
       target > 0 && route.size() < 10; --target) {
    route = sp.path_to(target);
  }
  ASSERT_GE(route.size(), 10u) << "no long route found from building 0";
  const auto narrow = core::compress_route(route, map, {.width_m = 20.0});
  const auto wide = core::compress_route(route, map, {.width_m = 100.0});
  EXPECT_LE(wide.size(), narrow.size());
}

// -------------------------------------------------------- RoutePlanner ----

TEST(RoutePlanner, PlansAcrossRowCity) {
  const auto city = row_city(10, 20.0);
  const core::BuildingGraph map{city, {}};
  const core::RoutePlanner planner{map, {}};
  const auto route = planner.plan(0, 9);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->buildings.front(), 0u);
  EXPECT_EQ(route->buildings.back(), 9u);
  EXPECT_EQ(route->waypoints.front(), 0u);
  EXPECT_EQ(route->waypoints.back(), 9u);
  EXPECT_GT(route->header_bits, 0u);
}

TEST(RoutePlanner, NoRouteAcrossGap) {
  const auto city = row_city(4, 300.0);
  const core::BuildingGraph map{city, {}};
  const core::RoutePlanner planner{map, {}};
  EXPECT_FALSE(planner.plan(0, 3).has_value());
}

TEST(RoutePlanner, SelfRoute) {
  const auto city = row_city(3);
  const core::BuildingGraph map{city, {}};
  const core::RoutePlanner planner{map, {}};
  const auto route = planner.plan(1, 1);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->buildings, (std::vector<core::BuildingId>{1}));
}

TEST(RoutePlanner, OutOfRangeBuilding) {
  const auto city = row_city(3);
  const core::BuildingGraph map{city, {}};
  const core::RoutePlanner planner{map, {}};
  EXPECT_FALSE(planner.plan(0, 99).has_value());
  EXPECT_FALSE(planner.plan(99, 0).has_value());
}

TEST(RoutePlanner, CompressionShrinksHeader) {
  const auto& city = boston();
  const core::BuildingGraph map{city, {}};
  const core::RoutePlanner planner{map, {}};
  geo::Rng rng{77};
  int compared = 0;
  for (int trial = 0; trial < 30 && compared < 5; ++trial) {
    const auto a = static_cast<core::BuildingId>(rng.uniform_int(map.building_count()));
    const auto b = static_cast<core::BuildingId>(rng.uniform_int(map.building_count()));
    const auto compressed = planner.plan(a, b);
    const auto raw = planner.plan_uncompressed(a, b);
    if (!compressed || !raw || raw->buildings.size() < 15) continue;
    EXPECT_LT(compressed->header_bits, raw->header_bits);
    EXPECT_LT(compressed->waypoints.size(), raw->waypoints.size());
    ++compared;
  }
  EXPECT_GE(compared, 3) << "not enough long routes sampled";
}

TEST(RoutePlanner, CubedWeightsPreferShortHops) {
  // Buildings at x = 0, 45, 100; an extra faraway shortcut building at x=100
  // is reachable directly (100 m edge would exceed range) - instead verify
  // on a triangle: direct edge 0-2 (90 m) vs two hops through 1 (45 m each).
  osmx::City city{"tri", {{0, 0}, {140, 60}}};
  city.add_building(geo::Polygon::rectangle({{0, 0}, {20, 20}}));     // 0
  city.add_building(geo::Polygon::rectangle({{45, 0}, {65, 20}}));    // 1
  city.add_building(geo::Polygon::rectangle({{90, 0}, {110, 20}}));   // 2
  core::BuildingGraphConfig cfg;
  cfg.connect_factor = 1.4;  // direct 0-2 edge exists (90 m < 70+radii)
  const core::BuildingGraph map{city, cfg};
  ASSERT_TRUE(map.graph().has_edge(0, 2));
  const core::RoutePlanner planner{map, {}};
  const auto route = planner.plan(0, 2);
  ASSERT_TRUE(route.has_value());
  // Cubed: 45^3 * 2 = 182k < 90^3 = 729k, so the two-hop route wins.
  EXPECT_EQ(route->buildings, (std::vector<core::BuildingId>{0, 1, 2}));
}

// The planning graph (essential edges) must plan exactly what the full
// building graph plans — buildings, waypoints and header bits — for every
// built-in profile and every edge-weight policy, over hotspot flows and
// uniform random pairs, with a per-plan and with a shared search workspace.
TEST(RoutePlanner, PlanningGraphMatchesFullGraphOnEveryProfile) {
  std::size_t compared = 0;
  graphx::AltSearch search;  // one workspace across every map and policy
  for (const auto& profile : osmx::default_profiles()) {
    const osmx::City city = osmx::generate_city(profile);
    trafficx::WorkloadSpec spec;
    spec.seed = 5;
    spec.duration_s = 1.0;
    spec.rate_per_s = 24.0;
    spec.spatial = trafficx::SpatialMode::kHotspot;
    spec.hotspot_bias = 16.0;
    std::vector<std::pair<core::BuildingId, core::BuildingId>> pairs;
    for (const auto& flow : trafficx::compile(spec, city).flows) pairs.emplace_back(flow.src, flow.dst);
    geo::Rng rng{profile.seed};
    const auto n = city.building_count();
    for (int i = 0; i < 8; ++i) {
      pairs.emplace_back(static_cast<core::BuildingId>(rng.uniform_int(n)),
                         static_cast<core::BuildingId>(rng.uniform_int(n)));
    }

    for (const auto policy :
         {core::EdgeWeight::kLinear, core::EdgeWeight::kSquared, core::EdgeWeight::kCubed}) {
      core::BuildingGraphConfig cfg;
      cfg.weight = policy;
      const core::BuildingGraph map{city, cfg};
      // Linear weights obey the triangle inequality, so nothing is strictly
      // dominated there; squared and cubed weights must actually prune.
      if (policy != core::EdgeWeight::kLinear) {
        EXPECT_LT(map.planning_graph().edge_count(), map.graph().edge_count()) << profile.name;
      }
      const graphx::Graph full_graph = link_reference::weighted_building_graph(map);
      const core::RoutePlanner local{map, {}};
      const core::RoutePlanner shared{map, {}, &search};
      for (const auto& [from, to] : pairs) {
        if (from == to) continue;
        const auto full = graphx::dijkstra(full_graph, from, to).path_to(to);
        for (const core::RoutePlanner* planner : {&local, &shared}) {
          const auto route = planner->plan(from, to);
          ASSERT_EQ(route.has_value(), !full.empty()) << profile.name << ' ' << from << "->" << to;
          if (!route) continue;
          ASSERT_EQ(route->buildings, full) << profile.name << ' ' << from << "->" << to;
          const auto waypoints = core::compress_route(full, map, {});
          ASSERT_EQ(route->waypoints, waypoints) << profile.name << ' ' << from << "->" << to;
          EXPECT_EQ(route->header_bits, core::route_header_bits(waypoints, route->conduit_width_m));
          ++compared;
        }
      }
    }
  }
  EXPECT_GE(compared, 1000u);
}

// ------------------------------------------------------------- Postbox ----

TEST(Postbox, StoreAndRetrieve) {
  const auto keys = cryptox::KeyPair::from_seed(1);
  core::Postbox box{keys.id()};
  EXPECT_TRUE(box.store({.message_id = 1, .urgent = false, .stored_at_s = 1.0,
                         .sealed_payload = {1, 2, 3}}));
  EXPECT_TRUE(box.store({.message_id = 2, .urgent = false, .stored_at_s = 2.0,
                         .sealed_payload = {4}}));
  EXPECT_EQ(box.pending(), 2u);
  const auto msgs = box.retrieve();
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(msgs[0].message_id, 1u);  // oldest first
  EXPECT_EQ(box.pending(), 0u);
  EXPECT_EQ(box.total_stored(), 2u);
}

TEST(Postbox, DropsDuplicates) {
  const auto keys = cryptox::KeyPair::from_seed(1);
  core::Postbox box{keys.id()};
  EXPECT_TRUE(box.store({.message_id = 7, .urgent = false, .stored_at_s = 0, .sealed_payload = {}}));
  EXPECT_FALSE(box.store({.message_id = 7, .urgent = false, .stored_at_s = 1, .sealed_payload = {}}));
  EXPECT_EQ(box.pending(), 1u);
  EXPECT_EQ(box.duplicates_dropped(), 1u);
  // Dedup persists across retrieval (the paper's postbox is long-lived).
  box.retrieve();
  EXPECT_FALSE(box.store({.message_id = 7, .urgent = false, .stored_at_s = 2, .sealed_payload = {}}));
}

TEST(Postbox, PushNotificationOnUrgent) {
  const auto keys = cryptox::KeyPair::from_seed(1);
  core::Postbox box{keys.id()};
  int pushes = 0;
  box.set_push_handler([&](const core::StoredMessage& m) {
    ++pushes;
    EXPECT_TRUE(m.urgent);
  });
  box.store({.message_id = 1, .urgent = false, .stored_at_s = 0, .sealed_payload = {}});
  box.store({.message_id = 2, .urgent = true, .stored_at_s = 0, .sealed_payload = {}});
  EXPECT_EQ(pushes, 1);
}

TEST(Postbox, OwnerLocationCache) {
  const auto keys = cryptox::KeyPair::from_seed(1);
  core::Postbox box{keys.id()};
  EXPECT_FALSE(box.owner_location().has_value());
  box.update_owner_location({10, 20}, 5.0);
  ASSERT_TRUE(box.owner_location().has_value());
  EXPECT_EQ(box.owner_location()->first, (geo::Point{10, 20}));
}

TEST(PostboxInfo, ForKeyBindsIdentity) {
  const auto keys = cryptox::KeyPair::from_seed(4);
  const auto info = core::PostboxInfo::for_key(keys, 42);
  EXPECT_EQ(info.id, keys.id());
  EXPECT_EQ(info.public_key, keys.public_key());
  EXPECT_EQ(info.building, 42u);
}

// -------------------------------------------------------------- ApAgent ---

namespace {

core::MeshPacket make_packet(const wire::PacketHeader& h,
                             std::vector<std::uint8_t> payload = {0xAB}) {
  return {wire::encode_header(h).bytes, std::move(payload), 0, nullptr};
}

}  // namespace

TEST(ApAgent, RebroadcastKeyedOnBuildingMembership) {
  // Route along the horizontal arm of an L city; buildings on the vertical
  // arm sit far outside the conduit.
  const auto city = l_city(8);
  const core::BuildingGraph map{city, {}};
  wire::PacketHeader h;
  h.message_id = 5;
  h.waypoints = {0, 7};
  h.conduit_width_m = 50.0;
  // An AP in building 4 (mid-arm): its building centroid is on the line.
  LoneAgent inside{0, map.centroid(4), 4, map};
  EXPECT_TRUE(inside.agent.on_receive(make_packet(h), 0.0).rebroadcast);
  // The decision follows the *building*, not the AP's own position (§3: all
  // APs of an in-conduit building rebroadcast): an AP of building 4 standing
  // 60 m off the line still rebroadcasts ...
  LoneAgent offset{1, map.centroid(4) + geo::Point{0, 60}, 4, map};
  EXPECT_TRUE(offset.agent.on_receive(make_packet(h), 0.0).rebroadcast);
  // ... while an AP of a vertical-arm building (far from the conduit) does
  // not, even though the packet reached it.
  const auto far_building = static_cast<core::BuildingId>(city.building_count() - 1);
  LoneAgent outside{2, map.centroid(far_building), far_building, map};
  EXPECT_FALSE(outside.agent.on_receive(make_packet(h), 0.0).rebroadcast);
  // Free-function form agrees.
  EXPECT_TRUE(core::should_rebroadcast(h, map, 4));
  EXPECT_FALSE(core::should_rebroadcast(h, map, far_building));
}

TEST(ApAgent, DuplicateSuppression) {
  const auto city = row_city(4);
  const core::BuildingGraph map{city, {}};
  wire::PacketHeader h;
  h.message_id = 9;
  h.waypoints = {0, 3};
  LoneAgent lone{0, map.centroid(1), 1, map};
  core::ApAgent& agent = lone.agent;
  const auto first = agent.on_receive(make_packet(h), 0.0);
  EXPECT_FALSE(first.duplicate);
  const auto second = agent.on_receive(make_packet(h), 1.0);
  EXPECT_TRUE(second.duplicate);
  EXPECT_FALSE(second.rebroadcast);
  EXPECT_EQ(agent.seen_count(), 1u);
}

TEST(ApAgent, MalformedPacketIgnored) {
  const auto city = row_city(4);
  const core::BuildingGraph map{city, {}};
  LoneAgent lone{0, map.centroid(1), 1, map};
  core::ApAgent& agent = lone.agent;
  const core::MeshPacket garbage{{0xFF, 0xFF}, {}, 0, nullptr};
  const auto action = agent.on_receive(garbage, 0.0);
  EXPECT_TRUE(action.malformed);
  EXPECT_FALSE(action.rebroadcast);
  EXPECT_EQ(agent.seen_count(), 0u);
}

TEST(ApAgent, StaleMapBuildingIdRejected) {
  const auto city = row_city(4);
  const core::BuildingGraph map{city, {}};
  wire::PacketHeader h;
  h.message_id = 1;
  h.waypoints = {0, 999999};  // id beyond this map
  LoneAgent lone{0, map.centroid(1), 1, map};
  core::ApAgent& agent = lone.agent;
  EXPECT_FALSE(agent.on_receive(make_packet(h), 0.0).rebroadcast);
}

TEST(ApAgent, DeliversToHostedPostbox) {
  const auto city = row_city(4);
  const core::BuildingGraph map{city, {}};
  const auto keys = cryptox::KeyPair::from_seed(9);
  auto box = std::make_shared<core::Postbox>(keys.id());

  LoneAgent lone{0, map.centroid(3), 3, map};
  core::ApAgent& agent = lone.agent;
  agent.host_postbox(box);
  EXPECT_EQ(agent.postbox_for_tag(keys.id().tag()), box);
  EXPECT_EQ(agent.postbox_for_tag(keys.id().tag() + 1), nullptr);

  wire::PacketHeader h;
  h.message_id = 11;
  h.postbox_tag = keys.id().tag();
  h.waypoints = {0, 3};
  const auto action = agent.on_receive(make_packet(h, {9, 9, 9}), 2.5);
  EXPECT_TRUE(action.delivered);
  ASSERT_EQ(box->pending(), 1u);
  const auto msgs = box->retrieve();
  EXPECT_EQ(msgs[0].sealed_payload, (std::vector<std::uint8_t>{9, 9, 9}));
  EXPECT_DOUBLE_EQ(msgs[0].stored_at_s, 2.5);
}

TEST(ApAgent, NoDeliveryOutsideDestinationBuilding) {
  const auto city = row_city(4);
  const core::BuildingGraph map{city, {}};
  const auto keys = cryptox::KeyPair::from_seed(9);
  auto box = std::make_shared<core::Postbox>(keys.id());
  LoneAgent lone{0, map.centroid(2), 2, map};  // wrong building
  core::ApAgent& agent = lone.agent;
  agent.host_postbox(box);
  wire::PacketHeader h;
  h.message_id = 11;
  h.postbox_tag = keys.id().tag();
  h.waypoints = {0, 3};
  EXPECT_FALSE(agent.on_receive(make_packet(h), 0.0).delivered);
  EXPECT_EQ(box->pending(), 0u);
}

TEST(ApAgent, CompromisedNodeSwallowsPackets) {
  const auto city = row_city(10, 20.0);
  const core::BuildingGraph map{city, {}};
  wire::PacketHeader h;
  h.message_id = 5;
  h.waypoints = {0, 9};
  LoneAgent lone{0, map.centroid(5), 5, map};
  core::ApAgent& agent = lone.agent;
  agent.set_behavior(core::AgentBehavior::kCompromisedDrop);
  const auto action = agent.on_receive(make_packet(h), 0.0);
  EXPECT_FALSE(action.rebroadcast);
  EXPECT_FALSE(action.delivered);
  EXPECT_EQ(agent.seen_count(), 1u);  // it did see (and swallowed) it
}

// -------------------------------------------------------- CityMeshNetwork -

namespace {

core::NetworkConfig fast_network_config() {
  core::NetworkConfig cfg;
  cfg.placement.density_per_m2 = 1.0 / 60.0;  // dense enough for a small city
  cfg.placement.seed = 5;
  cfg.medium.jitter_s = 1e-4;
  return cfg;
}

std::span<const std::uint8_t> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

}  // namespace

TEST(CityMeshNetwork, EndToEndDeliveryOnRowCity) {
  const auto city = row_city(12, 20.0);
  core::CityMeshNetwork net{city, fast_network_config()};

  const auto bob = cryptox::KeyPair::from_seed(100);
  const auto info = core::PostboxInfo::for_key(bob, 11);
  const auto box = net.register_postbox(info);
  ASSERT_NE(box, nullptr);

  const auto outcome = net.send(0, info, bytes_of("hello"));
  EXPECT_TRUE(outcome.route_found);
  EXPECT_TRUE(outcome.source_has_ap);
  EXPECT_TRUE(outcome.delivered);
  EXPECT_GT(outcome.transmissions, 0u);
  ASSERT_TRUE(outcome.min_hops.has_value());
  EXPECT_GT(*outcome.min_hops, 2u);
  ASSERT_TRUE(outcome.overhead().has_value());
  EXPECT_GE(*outcome.overhead(), 1.0);

  ASSERT_EQ(box->pending(), 1u);
  const auto msgs = box->retrieve();
  EXPECT_EQ(msgs[0].sealed_payload, std::vector<std::uint8_t>(
                                        bytes_of("hello").begin(), bytes_of("hello").end()));
}

TEST(CityMeshNetwork, SealedPayloadSurvivesTransit) {
  const auto city = row_city(8, 20.0);
  core::CityMeshNetwork net{city, fast_network_config()};

  const auto alice = cryptox::KeyPair::from_seed(200);
  const auto bob = cryptox::KeyPair::from_seed(201);
  const auto info = core::PostboxInfo::for_key(bob, 7);
  const auto box = net.register_postbox(info);
  ASSERT_NE(box, nullptr);

  const auto sealed = cryptox::seal(alice, info.public_key, "meet at the library", 42);
  const auto blob = sealed.serialize();
  const auto outcome = net.send(0, info, blob);
  ASSERT_TRUE(outcome.delivered);

  const auto msgs = box->retrieve();
  ASSERT_EQ(msgs.size(), 1u);
  const auto parsed = cryptox::SealedMessage::deserialize(msgs[0].sealed_payload);
  ASSERT_TRUE(parsed.has_value());
  const auto text = cryptox::unseal_text(bob, *parsed);
  ASSERT_TRUE(text.has_value());
  EXPECT_EQ(*text, "meet at the library");
  EXPECT_EQ(parsed->sender_id, alice.id());
}

TEST(CityMeshNetwork, NoRouteAcrossDisconnectedCity) {
  const auto city = row_city(4, 300.0);
  core::CityMeshNetwork net{city, fast_network_config()};
  const auto bob = cryptox::KeyPair::from_seed(5);
  const auto info = core::PostboxInfo::for_key(bob, 3);
  net.register_postbox(info);
  const auto outcome = net.send(0, info, bytes_of("x"));
  EXPECT_FALSE(outcome.route_found);
  EXPECT_FALSE(outcome.delivered);
}

TEST(CityMeshNetwork, UrgentTriggersPush) {
  const auto city = row_city(8, 20.0);
  core::CityMeshNetwork net{city, fast_network_config()};
  const auto bob = cryptox::KeyPair::from_seed(6);
  const auto info = core::PostboxInfo::for_key(bob, 7);
  const auto box = net.register_postbox(info);
  ASSERT_NE(box, nullptr);
  int pushes = 0;
  box->set_push_handler([&](const core::StoredMessage&) { ++pushes; });
  core::SendOptions opts;
  opts.urgent = true;
  const auto outcome = net.send(0, info, bytes_of("urgent!"), opts);
  ASSERT_TRUE(outcome.delivered);
  EXPECT_EQ(pushes, 1);
}

TEST(CityMeshNetwork, TraceSeparatesConduitFromBystanders) {
  const auto city = row_city(12, 20.0);
  core::CityMeshNetwork net{city, fast_network_config()};
  const auto bob = cryptox::KeyPair::from_seed(7);
  const auto info = core::PostboxInfo::for_key(bob, 11);
  net.register_postbox(info);
  core::SendOptions opts;
  opts.collect_trace = true;
  const auto outcome = net.send(0, info, bytes_of("trace me"), opts);
  ASSERT_TRUE(outcome.delivered);
  EXPECT_EQ(outcome.rebroadcast_aps.size(), outcome.transmissions);
  // In a straight row city the conduit covers everything, so bystanders are
  // rare but the two sets must never overlap.
  for (const auto r : outcome.rebroadcast_aps) {
    for (const auto o : outcome.received_only_aps) EXPECT_NE(r, o);
  }
}

TEST(CityMeshNetwork, CompromisedWallBlocksDelivery) {
  const auto city = row_city(12, 20.0);
  core::CityMeshNetwork net{city, fast_network_config()};
  const auto bob = cryptox::KeyPair::from_seed(8);
  const auto info = core::PostboxInfo::for_key(bob, 11);
  net.register_postbox(info);
  // Compromise the middle third of the row: every conduit path crosses it.
  for (core::BuildingId b = 4; b <= 7; ++b) {
    net.compromise_building(b, core::AgentBehavior::kCompromisedDrop);
  }
  const auto outcome = net.send(0, info, bytes_of("x"));
  EXPECT_TRUE(outcome.route_found);
  EXPECT_FALSE(outcome.delivered);
}

TEST(CityMeshNetwork, RegisterPostboxRequiresAps) {
  const auto city = row_city(4, 300.0);
  core::NetworkConfig cfg = fast_network_config();
  cfg.placement.density_per_m2 = 1e-9;  // virtually no APs anywhere
  core::CityMeshNetwork net{city, cfg};
  const auto bob = cryptox::KeyPair::from_seed(5);
  const auto info = core::PostboxInfo::for_key(bob, 3);
  EXPECT_EQ(net.register_postbox(info), nullptr);
}

TEST(CityMeshNetwork, PostboxLookupByIdentity) {
  const auto city = row_city(6, 20.0);
  core::CityMeshNetwork net{city, fast_network_config()};
  const auto bob = cryptox::KeyPair::from_seed(31);
  const auto info = core::PostboxInfo::for_key(bob, 5);
  const auto box = net.register_postbox(info);
  ASSERT_NE(box, nullptr);
  EXPECT_EQ(net.postbox_of(bob.id()), box);
  const auto stranger = cryptox::KeyPair::from_seed(32);
  EXPECT_EQ(net.postbox_of(stranger.id()), nullptr);
}

TEST(CityMeshNetwork, WideConduitTransmitsMoreThanNarrow) {
  const auto city = row_city(12, 20.0);
  core::NetworkConfig narrow_cfg = fast_network_config();
  narrow_cfg.conduit.width_m = 30.0;
  core::NetworkConfig wide_cfg = fast_network_config();
  wide_cfg.conduit.width_m = 100.0;

  std::size_t narrow_tx = 0;
  std::size_t wide_tx = 0;
  {
    core::CityMeshNetwork net{city, narrow_cfg};
    const auto bob = cryptox::KeyPair::from_seed(9);
    const auto info = core::PostboxInfo::for_key(bob, 11);
    net.register_postbox(info);
    narrow_tx = net.send(0, info, bytes_of("x")).transmissions;
  }
  {
    core::CityMeshNetwork net{city, wide_cfg};
    const auto bob = cryptox::KeyPair::from_seed(9);
    const auto info = core::PostboxInfo::for_key(bob, 11);
    net.register_postbox(info);
    wide_tx = net.send(0, info, bytes_of("x")).transmissions;
  }
  EXPECT_GE(wide_tx, narrow_tx);
}

// ----------------------------------------------------------- Evaluation ---

TEST(Evaluation, SmallCityProtocolRuns) {
  const auto city = row_city(12, 20.0);
  core::EvaluationConfig cfg;
  cfg.reachability_pairs = 60;
  cfg.deliverability_pairs = 8;
  cfg.network = fast_network_config();
  const auto eval = core::evaluate_city(city, cfg);
  EXPECT_EQ(eval.city, "row");
  EXPECT_EQ(eval.buildings, 12u);
  EXPECT_GT(eval.aps, 0u);
  EXPECT_EQ(eval.pairs_tested, 60u);
  EXPECT_GT(eval.reachability(), 0.9);  // the row is fully connected
  EXPECT_GT(eval.deliveries_attempted, 0u);
  EXPECT_GT(eval.deliverability(), 0.8);
  EXPECT_FALSE(eval.header_bits.empty());
  for (const double oh : eval.overheads) EXPECT_GE(oh, 1.0);
}

TEST(Evaluation, DeliveryImpliesReachability) {
  // The evaluation only attempts delivery on reachable pairs, so
  // deliverability cannot exceed 1 and attempted <= reachable.
  const auto city = row_city(10, 20.0);
  core::EvaluationConfig cfg;
  cfg.reachability_pairs = 40;
  cfg.deliverability_pairs = 10;
  cfg.network = fast_network_config();
  const auto eval = core::evaluate_city(city, cfg);
  EXPECT_LE(eval.deliveries_attempted, eval.pairs_reachable);
  EXPECT_LE(eval.deliverability(), 1.0);
}

TEST(Evaluation, MultiSeedReportsSpread) {
  const auto city = row_city(12, 20.0);
  core::EvaluationConfig cfg;
  cfg.reachability_pairs = 40;
  cfg.deliverability_pairs = 6;
  cfg.network = fast_network_config();
  const auto multi = core::evaluate_city_seeds(city, cfg, 3);
  EXPECT_EQ(multi.seeds, 3u);
  EXPECT_EQ(multi.reachability.count(), 3u);
  EXPECT_GT(multi.reachability.mean(), 0.9);
  EXPECT_GE(multi.reachability.stddev(), 0.0);
  EXPECT_GT(multi.deliverability.mean(), 0.7);
}

TEST(Postbox, CountEvictionDropsOldest) {
  const auto keys = cryptox::KeyPair::from_seed(60);
  core::PostboxLimits limits;
  limits.max_messages = 3;
  core::Postbox box{keys.id(), limits};
  for (std::uint32_t i = 1; i <= 5; ++i) {
    box.store({.message_id = i, .urgent = false,
               .stored_at_s = static_cast<double>(i), .sealed_payload = {}});
  }
  EXPECT_EQ(box.pending(), 3u);
  EXPECT_EQ(box.evicted(), 2u);
  const auto msgs = box.retrieve();
  EXPECT_EQ(msgs.front().message_id, 3u);  // 1 and 2 were evicted
  EXPECT_EQ(msgs.back().message_id, 5u);
  // Evicted ids still deduplicate (the AP saw them once).
  EXPECT_FALSE(box.store({.message_id = 1, .urgent = false, .stored_at_s = 9,
                          .sealed_payload = {}}));
}

TEST(Postbox, AgeExpiry) {
  const auto keys = cryptox::KeyPair::from_seed(61);
  core::PostboxLimits limits;
  limits.max_age_s = 100.0;
  core::Postbox box{keys.id(), limits};
  box.store({.message_id = 1, .urgent = false, .stored_at_s = 0.0, .sealed_payload = {}});
  box.store({.message_id = 2, .urgent = false, .stored_at_s = 50.0, .sealed_payload = {}});
  // A message arriving at t=130 expires the t=0 one (age 130 > 100).
  box.store({.message_id = 3, .urgent = false, .stored_at_s = 130.0, .sealed_payload = {}});
  EXPECT_EQ(box.pending(), 2u);
  EXPECT_EQ(box.expired(), 1u);
  // Explicit expiry sweep at t=200 removes the t=50 message too.
  EXPECT_EQ(box.expire(200.0), 1u);
  EXPECT_EQ(box.pending(), 1u);
}
