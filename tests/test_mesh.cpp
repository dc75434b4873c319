// Tests for AP placement, the AP connectivity graph, island analysis, gap
// bridging, and the link builder's AP and building graphs against a
// brute-force reference on every default profile.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <optional>
#include <stdexcept>
#include <span>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/building_graph.hpp"
#include "geo/rng.hpp"
#include "graphx/link_builder.hpp"
#include "graphx/shortest_path.hpp"
#include "link_reference.hpp"
#include "mesh/ap_network.hpp"
#include "mesh/islands.hpp"
#include "osmx/citygen.hpp"

namespace mesh = citymesh::mesh;
namespace osmx = citymesh::osmx;
namespace geo = citymesh::geo;
namespace graphx = citymesh::graphx;
namespace core = citymesh::core;

namespace {

/// Two 20x20 buildings `gap` meters apart (edge to edge), on one row.
osmx::City two_building_city(double gap) {
  osmx::City city{"two", {{0, 0}, {100 + gap, 40}}};
  city.add_building(geo::Polygon::rectangle({{0, 0}, {20, 20}}));
  city.add_building(geo::Polygon::rectangle({{20 + gap, 0}, {40 + gap, 20}}));
  return city;
}

}  // namespace

TEST(ApPlacement, DensityControlsCount) {
  const auto city = osmx::generate_city(osmx::profile_by_name("boston"));
  mesh::PlacementConfig sparse;
  sparse.density_per_m2 = 1.0 / 400.0;
  mesh::PlacementConfig dense;
  dense.density_per_m2 = 1.0 / 100.0;
  const auto sparse_net = mesh::place_aps(city, sparse);
  const auto dense_net = mesh::place_aps(city, dense);
  // 4x the density -> about 4x the APs.
  const double ratio = static_cast<double>(dense_net.ap_count()) /
                       static_cast<double>(sparse_net.ap_count());
  EXPECT_NEAR(ratio, 4.0, 0.4);
  // Expected absolute count ~ total area * density.
  const double expected = city.total_building_area() * dense.density_per_m2;
  EXPECT_NEAR(static_cast<double>(dense_net.ap_count()), expected, expected * 0.05);
}

TEST(ApPlacement, ApsInsideTheirFootprints) {
  const auto city = osmx::generate_city(osmx::profile_by_name("cambridge"));
  const auto net = mesh::place_aps(city, {});
  for (const auto& ap : net.aps()) {
    const auto& fp = city.building(ap.building).footprint;
    const auto bounds = fp.bounds();
    ASSERT_TRUE(bounds.has_value());
    EXPECT_TRUE(bounds->expanded(1e-9).contains(ap.position))
        << "ap " << ap.id << " outside building " << ap.building;
  }
}

TEST(ApPlacement, Deterministic) {
  const auto city = osmx::generate_city(osmx::profile_by_name("boston"));
  const auto a = mesh::place_aps(city, {});
  const auto b = mesh::place_aps(city, {});
  ASSERT_EQ(a.ap_count(), b.ap_count());
  for (std::size_t i = 0; i < a.ap_count(); i += 199) {
    EXPECT_EQ(a.ap(i).position, b.ap(i).position);
  }
}

TEST(ApPlacement, SeedChangesPlacement) {
  const auto city = osmx::generate_city(osmx::profile_by_name("boston"));
  mesh::PlacementConfig c1;
  mesh::PlacementConfig c2;
  c2.seed = 999;
  const auto a = mesh::place_aps(city, c1);
  const auto b = mesh::place_aps(city, c2);
  ASSERT_GT(a.ap_count(), 0u);
  bool any_diff = a.ap_count() != b.ap_count();
  for (std::size_t i = 0; !any_diff && i < std::min(a.ap_count(), b.ap_count()); ++i) {
    any_diff = !(a.ap(i).position == b.ap(i).position);
  }
  EXPECT_TRUE(any_diff);
}

TEST(ApPlacement, InvalidConfigThrows) {
  const auto city = two_building_city(10);
  mesh::PlacementConfig bad;
  bad.density_per_m2 = 0.0;
  EXPECT_THROW(mesh::place_aps(city, bad), std::invalid_argument);
}

TEST(ApNetwork, EdgesRespectRange) {
  const auto city = osmx::generate_city(osmx::profile_by_name("cambridge"));
  mesh::PlacementConfig cfg;
  cfg.transmission_range_m = 50.0;
  const auto net = mesh::place_aps(city, cfg);
  std::size_t checked = 0;
  for (mesh::ApId v = 0; v < net.ap_count() && checked < 5000; ++v) {
    for (const auto to : net.graph().neighbors(v)) {
      const double d = geo::distance(net.ap(v).position, net.ap(to).position);
      EXPECT_LE(d, 50.0 + 1e-9);
      // The link length is the distance, the same bits from either end.
      EXPECT_EQ(net.link_length(v, to), d);
      EXPECT_EQ(net.link_length(to, v), d);
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(ApNetwork, ConnectivityOfClosePair) {
  // 30 m gap: buildings are 20 m wide, so APs can be at most ~66 m apart but
  // typically within range; with enough APs the two buildings connect.
  const auto city = two_building_city(30.0);
  mesh::PlacementConfig cfg;
  cfg.density_per_m2 = 1.0 / 20.0;  // ~20 APs per building
  cfg.transmission_range_m = 50.0;
  const auto net = mesh::place_aps(city, cfg);
  const auto a = net.representative_ap(city, 0);
  const auto b = net.representative_ap(city, 1);
  ASSERT_TRUE(a && b);
  EXPECT_TRUE(net.connected(*a, *b));
}

TEST(ApNetwork, DisconnectionOfFarPair) {
  const auto city = two_building_city(200.0);  // far beyond the 50 m range
  mesh::PlacementConfig cfg;
  cfg.density_per_m2 = 1.0 / 20.0;
  const auto net = mesh::place_aps(city, cfg);
  const auto a = net.representative_ap(city, 0);
  const auto b = net.representative_ap(city, 1);
  ASSERT_TRUE(a && b);
  EXPECT_FALSE(net.connected(*a, *b));
  EXPECT_FALSE(net.min_hops(*a, net.aps_of_building(1)).has_value());
  EXPECT_GE(net.components().count, 2u);
}

TEST(ApNetwork, MinHopsOnKnownTopology) {
  // Hand-placed chain of APs 40 m apart: hops = index difference.
  std::vector<mesh::AccessPoint> aps;
  for (std::uint32_t i = 0; i < 5; ++i) {
    aps.push_back({i, i, {i * 40.0, 0.0}});
  }
  const mesh::ApNetwork net{std::move(aps), 50.0};
  const mesh::ApId last = 4;
  const auto hops = net.min_hops(0, {&last, 1});
  ASSERT_TRUE(hops.has_value());
  EXPECT_EQ(*hops, 4u);
}

namespace {

/// The whole-graph oracle: one full BFS from `from`, then the minimum of
/// its distances over the targets.
std::optional<std::size_t> bfs_min_hops(const mesh::ApNetwork& net, mesh::ApId from,
                                        std::span<const mesh::ApId> targets) {
  const auto sp = citymesh::graphx::bfs(net.graph(), from);
  double best = citymesh::graphx::kInfiniteDistance;
  for (const mesh::ApId t : targets) best = std::min(best, sp.distance[t]);
  if (best >= citymesh::graphx::kInfiniteDistance) return std::nullopt;
  return static_cast<std::size_t>(best);
}

/// min_hops against the oracle from every AP to every single AP and to
/// every building of a hand-made network.
void expect_min_hops_match_everywhere(const mesh::ApNetwork& net) {
  for (mesh::ApId from = 0; from < net.ap_count(); ++from) {
    for (mesh::ApId to = 0; to < net.ap_count(); ++to) {
      const std::span<const mesh::ApId> target{&to, 1};
      EXPECT_EQ(net.min_hops(from, target), bfs_min_hops(net, from, target))
          << "from " << from << " to AP " << to;
    }
    for (const auto& ap : net.aps()) {
      const auto& targets = net.aps_of_building(ap.building);
      EXPECT_EQ(net.min_hops(from, targets), bfs_min_hops(net, from, targets))
          << "from " << from << " to building " << ap.building;
    }
  }
}

}  // namespace

TEST(ApNetwork, MinHopsMatchesWholeGraphBfsOnEveryProfile) {
  // 200 seeded (source AP, destination building) pairs per profile and link
  // model, each checked against its own full BFS.
  for (const auto model : {mesh::LinkModel::kDisc, mesh::LinkModel::kShadowed}) {
    for (const auto& profile : osmx::default_profiles()) {
      SCOPED_TRACE(profile.name + (model == mesh::LinkModel::kDisc ? " disc" : " shadowed"));
      const auto city = osmx::generate_city(profile);
      mesh::PlacementConfig cfg;
      cfg.link_model = model;
      const auto net = mesh::place_aps(city, cfg);
      ASSERT_GT(net.ap_count(), 0u);
      geo::Rng rng{0xb1d1 ^ profile.seed};
      std::size_t reachable = 0, unreachable = 0;
      for (int pair = 0; pair < 200; ++pair) {
        const auto from = static_cast<mesh::ApId>(rng.uniform_int(net.ap_count()));
        const auto b = static_cast<osmx::BuildingId>(rng.uniform_int(city.building_count()));
        const auto& targets = net.aps_of_building(b);
        const auto expected = bfs_min_hops(net, from, targets);
        EXPECT_EQ(net.min_hops(from, targets), expected)
            << "from " << from << " to building " << b;
        ++(expected ? reachable : unreachable);
      }
      // Both answers occur: islands (the paper's Fig 4) and AP-less
      // buildings leave some pairs unreachable.
      EXPECT_GT(reachable, 0u);
      EXPECT_GT(unreachable, 0u);
    }
  }
}

TEST(ApNetwork, HopLandmarksHoldBfsDistances) {
  const auto city = osmx::generate_city(osmx::profile_by_name("cambridge"));
  const auto net = mesh::place_aps(city, mesh::PlacementConfig{});
  const auto& table = net.hop_bounds();
  ASSERT_GT(table.landmark_count, 0u);
  ASSERT_LE(table.landmark_count, mesh::ApNetwork::kHopLandmarks);
  EXPECT_EQ(table.component, net.components().largest());
  ASSERT_EQ(table.hops.size(), net.ap_count() * table.landmark_count);
  for (std::size_t l = 0; l < table.landmark_count; ++l) {
    // The landmark is the one AP at hop 0 of its column.
    mesh::ApId landmark = 0;
    while (landmark < net.ap_count() && table.hops[landmark * table.landmark_count + l] != 0)
      ++landmark;
    ASSERT_LT(landmark, net.ap_count());
    EXPECT_EQ(net.components().component_of[landmark], table.component);
    const auto sp = graphx::bfs(net.graph(), landmark);
    for (mesh::ApId v = 0; v < net.ap_count(); ++v) {
      const std::uint16_t expected = sp.distance[v] >= graphx::kInfiniteDistance
                                         ? 0xFFFF
                                         : static_cast<std::uint16_t>(sp.distance[v]);
      ASSERT_EQ(table.hops[v * table.landmark_count + l], expected) << "AP " << v;
    }
  }
}

TEST(ApNetwork, MinHopsOnCoincidentAps) {
  // Every link has length 0, so the geometric bound has no scale and is 0.
  std::vector<mesh::AccessPoint> aps;
  for (std::uint32_t i = 0; i < 6; ++i) aps.push_back({i, i % 3, {12.5, -3.0}});
  const mesh::ApNetwork net{std::move(aps), 50.0};
  EXPECT_EQ(net.hop_bounds().longest_link, 0.0);
  expect_min_hops_match_everywhere(net);
  const mesh::ApId other = 5;
  EXPECT_EQ(net.min_hops(0, {&other, 1}), std::optional<std::size_t>{1});
}

TEST(ApNetwork, MinHopsOnChainsWhereTheGeometricBoundIsTight) {
  // Straight chains, where the distance bound equals the hop count: 40 m
  // spacing (bound = ceil(40k / 40)) and spacing of exactly the range,
  // along an axis and along a 3-4-5 diagonal (links of exactly 50 m).
  // Rounding the bound up anywhere would overshoot by one hop.
  for (const geo::Point step : {geo::Point{40.0, 0.0}, geo::Point{50.0, 0.0},
                                geo::Point{30.0, 40.0}, geo::Point{0.0, -50.0}}) {
    SCOPED_TRACE(step.x);
    std::vector<mesh::AccessPoint> aps;
    for (std::uint32_t i = 0; i < 24; ++i) {
      aps.push_back({i, i / 2, {1000.0 + i * step.x, -700.0 + i * step.y}});
    }
    const mesh::ApNetwork net{std::move(aps), 50.0};
    EXPECT_EQ(net.hop_bounds().longest_link, geo::norm(step));
    EXPECT_EQ(net.components().count, 1u);
    expect_min_hops_match_everywhere(net);
    const mesh::ApId last = 23;
    EXPECT_EQ(net.min_hops(0, {&last, 1}), std::optional<std::size_t>{23});
  }
}

TEST(ApNetwork, MinHopsWithATargetBuildingSplitAcrossComponents) {
  // Building 9 has an AP at the far end of a long chain and one at the
  // near end of a short chain 200 m beside it, out of range. The short
  // chain's AP is the nearer one to the long chain's source as the crow
  // flies, but unreachable: only targets in the source's own component may
  // steer the search.
  std::vector<mesh::AccessPoint> aps;
  for (std::uint32_t i = 0; i < 12; ++i) aps.push_back({i, 1, {i * 45.0, 0.0}});
  for (std::uint32_t i = 0; i < 4; ++i) {
    aps.push_back({12 + i, 2, {i * 45.0, 200.0}});
  }
  aps[11].building = 9;  // far end of the long chain
  aps[12].building = 9;  // near end of the short chain, above AP 0
  const mesh::ApNetwork net{std::move(aps), 50.0};
  ASSERT_EQ(net.components().count, 2u);
  expect_min_hops_match_everywhere(net);
  EXPECT_EQ(net.min_hops(0, net.aps_of_building(9)), std::optional<std::size_t>{11});
  EXPECT_EQ(net.min_hops(15, net.aps_of_building(9)), std::optional<std::size_t>{3});
}

TEST(ApNetwork, MinHopsFromOutsideTheLandmarkComponent) {
  // A large grid (the landmarks' component) and a small ring beside it:
  // queries inside the ring run on the geometric bound alone.
  std::vector<mesh::AccessPoint> aps;
  for (std::uint32_t r = 0; r < 6; ++r) {
    for (std::uint32_t c = 0; c < 6; ++c) {
      const auto id = static_cast<mesh::ApId>(aps.size());
      aps.push_back({id, r, {c * 48.0, r * 48.0}});
    }
  }
  const double pi = 3.14159265358979323846;
  for (std::uint32_t i = 0; i < 10; ++i) {
    const auto id = static_cast<mesh::ApId>(aps.size());
    const double angle = 2.0 * pi * i / 10.0;
    aps.push_back({id, 10 + i % 4, {2000.0 + 70.0 * std::cos(angle), 70.0 * std::sin(angle)}});
  }
  const mesh::ApNetwork net{std::move(aps), 50.0};
  const auto& table = net.hop_bounds();
  EXPECT_EQ(table.component, net.components().component_of[0]);
  EXPECT_NE(table.component, net.components().component_of[36]);
  expect_min_hops_match_everywhere(net);
}

TEST(ApNetwork, MinHopsOnASingleAp) {
  std::vector<mesh::AccessPoint> aps;
  aps.push_back({0, 2, {3.0, 4.0}});
  const mesh::ApNetwork net{std::move(aps), 50.0};
  const mesh::ApId only = 0;
  EXPECT_EQ(net.min_hops(0, {&only, 1}), std::optional<std::size_t>{0});
  EXPECT_EQ(net.min_hops(0, net.aps_of_building(2)), std::optional<std::size_t>{0});
  EXPECT_FALSE(net.min_hops(0, {}).has_value());
  EXPECT_FALSE(net.min_hops(0, net.aps_of_building(0)).has_value());
  EXPECT_THROW((void)net.min_hops(1, {&only, 1}), std::out_of_range);
  EXPECT_EQ(net.hop_bounds().landmark_count, 1u);
}

TEST(ApNetwork, MinHopsEdgeCases) {
  const auto city = osmx::generate_city(osmx::profile_by_name("cambridge"));
  const auto net = mesh::place_aps(city, mesh::PlacementConfig{});
  const auto& comp = net.components().component_of;

  // `from` inside the target set: 0, whatever else the set holds.
  const mesh::ApId from = 0;
  const auto& own = net.aps_of_building(net.ap(from).building);
  EXPECT_EQ(net.min_hops(from, own), std::optional<std::size_t>{0});
  EXPECT_EQ(bfs_min_hops(net, from, own), std::optional<std::size_t>{0});

  // Empty targets and a building id past building_count(): nullopt.
  EXPECT_FALSE(net.min_hops(from, {}).has_value());
  EXPECT_FALSE(net.min_hops(from, net.aps_of_building(
                                      static_cast<osmx::BuildingId>(city.building_count() + 7)))
                   .has_value());

  // Cross-component pair: nullopt, agreeing with the oracle; adding a
  // reachable target to the same span makes it answer that target's hops.
  mesh::ApId other = 0;
  while (other < net.ap_count() && comp[other] == comp[from]) ++other;
  ASSERT_LT(other, net.ap_count());
  const std::vector<mesh::ApId> cross{other};
  EXPECT_FALSE(net.min_hops(from, cross).has_value());
  EXPECT_FALSE(bfs_min_hops(net, from, cross).has_value());
  mesh::ApId near = 1;
  while (near < net.ap_count() && (comp[near] != comp[from] || near == from)) ++near;
  ASSERT_LT(near, net.ap_count());
  const std::vector<mesh::ApId> mixed{other, near, other};
  EXPECT_EQ(net.min_hops(from, mixed), bfs_min_hops(net, from, mixed));
  EXPECT_TRUE(net.min_hops(from, mixed).has_value());

  // An AP out of everyone's range: reaches only itself.
  std::vector<mesh::AccessPoint> aps;
  aps.push_back({0, 0, {0.0, 0.0}});
  aps.push_back({1, 0, {30.0, 0.0}});
  aps.push_back({2, 1, {500.0, 0.0}});
  const mesh::ApNetwork islanded{std::move(aps), 50.0};
  EXPECT_FALSE(islanded.min_hops(2, islanded.aps_of_building(0)).has_value());
  EXPECT_FALSE(islanded.min_hops(0, islanded.aps_of_building(1)).has_value());
  EXPECT_EQ(islanded.min_hops(2, islanded.aps_of_building(1)), std::optional<std::size_t>{0});
  const mesh::ApId second = 1;
  EXPECT_EQ(islanded.min_hops(0, {&second, 1}), std::optional<std::size_t>{1});
}

TEST(ApNetwork, RepresentativeApNearCentroid) {
  const auto city = two_building_city(30.0);
  mesh::PlacementConfig cfg;
  cfg.density_per_m2 = 1.0 / 20.0;
  const auto net = mesh::place_aps(city, cfg);
  const auto rep = net.representative_ap(city, 0);
  ASSERT_TRUE(rep.has_value());
  const geo::Point centroid = city.building(0).centroid;
  for (const auto id : net.aps_of_building(0)) {
    EXPECT_LE(geo::distance(net.ap(*rep).position, centroid),
              geo::distance(net.ap(id).position, centroid) + 1e-9);
  }
}

TEST(ApNetwork, BuildingWithNoApsHasNoRepresentative) {
  std::vector<mesh::AccessPoint> aps;
  aps.push_back({0, 0, {5.0, 5.0}});
  const mesh::ApNetwork net{std::move(aps), 50.0};
  osmx::City city{"t", {{0, 0}, {100, 40}}};
  city.add_building(geo::Polygon::rectangle({{0, 0}, {20, 20}}));
  city.add_building(geo::Polygon::rectangle({{50, 0}, {70, 20}}));
  EXPECT_TRUE(net.representative_ap(city, 0).has_value());
  EXPECT_FALSE(net.representative_ap(city, 1).has_value());
  EXPECT_TRUE(net.aps_of_building(1).empty());
  EXPECT_TRUE(net.aps_of_building(99).empty());  // out of range id
}

TEST(ApNetwork, RejectsNonPositiveRange) {
  EXPECT_THROW(mesh::ApNetwork({}, 0.0), std::invalid_argument);
}

// -------------------------------------------------------------- Islands ---

TEST(Islands, DcFracturesAcrossTheRiver) {
  const auto city = osmx::generate_city(osmx::profile_by_name("washington_dc"));
  const auto net = mesh::place_aps(city, {});
  const auto report = mesh::analyze_islands(net);
  // The unbridged 320 m river must split the mesh into at least two large
  // islands; the largest holds well under ~95% of the APs.
  ASSERT_GE(report.island_count, 2u);
  EXPECT_GE(report.sizes[1], net.ap_count() / 10);
  EXPECT_LT(report.largest_fraction, 0.95);
}

TEST(Islands, ReportSizesSorted) {
  const auto city = osmx::generate_city(osmx::profile_by_name("washington_dc"));
  const auto net = mesh::place_aps(city, {});
  const auto report = mesh::analyze_islands(net);
  for (std::size_t i = 1; i < report.sizes.size(); ++i) {
    EXPECT_GE(report.sizes[i - 1], report.sizes[i]);
  }
  std::size_t total = 0;
  for (const auto s : report.sizes) total += s;
  EXPECT_EQ(total, net.ap_count());
}

TEST(Islands, BridgePlanConnectsDc) {
  const auto city = osmx::generate_city(osmx::profile_by_name("washington_dc"));
  const auto net = mesh::place_aps(city, {});
  const auto before = mesh::analyze_islands(net);
  ASSERT_GE(before.island_count, 2u);

  const auto plan = mesh::plan_bridges(net, /*target_islands=*/1, /*max_new_aps=*/64);
  EXPECT_FALSE(plan.new_aps.empty());
  EXPECT_LT(plan.new_aps.size(), 64u) << "river gap should need only a handful of APs";

  const auto bridged = mesh::apply_bridges(net, plan);
  EXPECT_EQ(bridged.ap_count(), net.ap_count() + plan.new_aps.size());

  // The two largest islands must now be one: the largest component grows to
  // hold (nearly) all APs that belong to big islands.
  const auto after = mesh::analyze_islands(bridged);
  EXPECT_GT(after.largest_fraction, 0.9);
}

TEST(Islands, BridgePlanNoopOnConnectedMesh) {
  // A single dense building is one island: nothing to bridge.
  osmx::City city{"one", {{0, 0}, {60, 60}}};
  city.add_building(geo::Polygon::rectangle({{0, 0}, {50, 50}}));
  mesh::PlacementConfig cfg;
  cfg.density_per_m2 = 1.0 / 50.0;
  const auto net = mesh::place_aps(city, cfg);
  const auto plan = mesh::plan_bridges(net);
  EXPECT_TRUE(plan.new_aps.empty());
}

TEST(Islands, BridgeSpacingWithinRange) {
  const auto city = two_building_city(180.0);
  mesh::PlacementConfig cfg;
  cfg.density_per_m2 = 1.0 / 15.0;
  const auto net = mesh::place_aps(city, cfg);
  const auto plan = mesh::plan_bridges(net, 1, 64, /*min_island_size=*/2);
  ASSERT_GE(plan.new_aps.size(), 2u);
  const auto bridged = mesh::apply_bridges(net, plan);
  const auto a = bridged.representative_ap(city, 0);
  const auto b = bridged.representative_ap(city, 1);
  ASSERT_TRUE(a && b);
  EXPECT_TRUE(bridged.connected(*a, *b));
}

TEST(Islands, MaxNewApsRespected) {
  const auto city = two_building_city(1000.0);  // needs ~25 bridge APs
  mesh::PlacementConfig cfg;
  cfg.density_per_m2 = 1.0 / 15.0;
  const auto net = mesh::place_aps(city, cfg);
  const auto plan = mesh::plan_bridges(net, 1, /*max_new_aps=*/5, /*min_island_size=*/2);
  EXPECT_LE(plan.new_aps.size(), 5u);
}

// ----------------------------------------------------------- Link models ---

TEST(LinkModel, ShadowedAdmitsLongerAndDropsSomeMidRange) {
  const auto city = osmx::generate_city(osmx::profile_by_name("cambridge"));
  mesh::PlacementConfig disc;
  mesh::PlacementConfig shadowed;
  shadowed.link_model = mesh::LinkModel::kShadowed;
  const auto net_disc = mesh::place_aps(city, disc);
  const auto net_shadow = mesh::place_aps(city, shadowed);
  ASSERT_EQ(net_disc.ap_count(), net_shadow.ap_count());  // placement identical

  bool has_long_link = false;   // beyond the disc cutoff
  bool certain_zone_ok = true;  // all <= 0.6*range links must exist
  double max_len = 0.0;
  for (mesh::ApId v = 0; v < net_shadow.ap_count(); ++v) {
    for (const auto to : net_shadow.graph().neighbors(v)) {
      const double length = net_shadow.link_length(v, to);
      max_len = std::max(max_len, length);
      if (length > 50.0) has_long_link = true;
    }
  }
  // Spot-check the certain zone on the disc graph's short links.
  std::size_t checked = 0;
  for (mesh::ApId v = 0; v < net_disc.ap_count() && checked < 3000; ++v) {
    for (const auto to : net_disc.graph().neighbors(v)) {
      if (net_disc.link_length(v, to) <= 0.6 * 50.0) {
        ++checked;
        if (!net_shadow.graph().has_edge(v, to)) certain_zone_ok = false;
      }
    }
  }
  EXPECT_TRUE(has_long_link);
  EXPECT_LE(max_len, 1.8 * 50.0 + 1e-9);
  EXPECT_TRUE(certain_zone_ok);
}

TEST(LinkModel, ShadowedIsDeterministicPerSeed) {
  const auto city = osmx::generate_city(osmx::profile_by_name("cambridge"));
  mesh::PlacementConfig cfg;
  cfg.link_model = mesh::LinkModel::kShadowed;
  const auto a = mesh::place_aps(city, cfg);
  const auto b = mesh::place_aps(city, cfg);
  EXPECT_EQ(a.graph().edge_count(), b.graph().edge_count());
}

TEST(LinkModel, InvalidShadowFractionsThrow) {
  mesh::PlacementConfig cfg;
  cfg.link_model = mesh::LinkModel::kShadowed;
  cfg.shadow_certain_frac = 0.0;
  EXPECT_THROW(mesh::ApNetwork({}, cfg), std::invalid_argument);
  cfg.shadow_certain_frac = 1.0;
  cfg.shadow_max_frac = 0.5;  // max below certain
  EXPECT_THROW(mesh::ApNetwork({}, cfg), std::invalid_argument);
}

// ------------------------------------------- Link builder vs brute force ---

namespace {

mesh::PlacementConfig shadowed_config() {
  mesh::PlacementConfig cfg;
  cfg.link_model = mesh::LinkModel::kShadowed;
  return cfg;
}

/// The AP graph by brute force: a pair within the query radius, then the
/// link model, the shadowed draws in reference order. `near` holds the
/// candidates within the longest query radius, 1.8 x range.
graphx::Graph reference_ap_graph(const mesh::ApNetwork& net, const mesh::PlacementConfig& cfg,
                                 const link_reference::Candidates& near) {
  const auto& aps = net.aps();
  const double range = cfg.transmission_range_m;
  const bool disc = cfg.link_model == mesh::LinkModel::kDisc;
  const double reach = disc ? range : range * cfg.shadow_max_frac;
  const double certain = range * cfg.shadow_certain_frac;
  geo::Rng link_rng{cfg.seed ^ 0x51AD0E5ULL};
  return link_reference::reference_graph(
      near, [&](std::uint32_t a, std::uint32_t b) -> std::optional<double> {
        const geo::Point pa = aps[a].position, pb = aps[b].position;
        if (geo::distance2(pb, pa) > reach * reach) return std::nullopt;
        const double d = geo::distance(pa, pb);
        if (disc) return d <= range ? std::optional{d} : std::nullopt;
        if (d <= certain) return d;
        if (d < reach && link_rng.chance((reach - d) / (reach - certain))) return d;
        return std::nullopt;
      });
}

/// The building graph by brute force: centroid distance within the range
/// plus both effective radii.
graphx::Graph reference_building_graph(const core::BuildingGraph& map) {
  const auto c = map.centroids();
  const core::BuildingGraphConfig& cfg = map.config();
  const double range = cfg.transmission_range_m * cfg.connect_factor;
  double max_radius = 0.0;
  for (std::uint32_t b = 0; b < c.size(); ++b) {
    max_radius = std::max(max_radius, map.effective_radius(b));
  }
  const double query = range + 2.0 * max_radius;
  return link_reference::reference_graph(
      link_reference::candidates(c, cfg.transmission_range_m * 2.0, query),
      [&](std::uint32_t a, std::uint32_t b) -> std::optional<double> {
        if (geo::distance2(c[b], c[a]) > query * query) return std::nullopt;
        const double d = geo::distance(c[a], c[b]);
        if (d > range + map.effective_radius(a) + map.effective_radius(b)) return std::nullopt;
        return core::edge_cost(d, cfg.weight);
      });
}

/// fig10's metro-xxl rung: its city and placement.
osmx::CityProfile metro_xxl_profile() {
  osmx::CityProfile xxl;
  xxl.name = "metro-xxl";
  xxl.width_m = 4200;
  xxl.height_m = 3100;
  xxl.seed = 101;
  return xxl;
}
mesh::PlacementConfig metro_xxl_placement() {
  mesh::PlacementConfig placement;
  placement.seed = 7;
  placement.density_per_m2 = 1.0 / 60.0;
  return placement;
}

/// mesh::ApNetwork's link models replayed through LinkBuilder at an
/// explicit band count.
graphx::Topology banded_ap_graph(const mesh::ApNetwork& net, const mesh::PlacementConfig& cfg,
                                 std::size_t bands) {
  const double range = cfg.transmission_range_m;
  const bool disc = cfg.link_model == mesh::LinkModel::kDisc;
  const double reach = disc ? range : range * cfg.shadow_max_frac;
  const double certain = disc ? range : range * cfg.shadow_certain_frac;
  geo::Rng link_rng{cfg.seed ^ 0x51AD0E5ULL};
  return graphx::LinkBuilder::build(
      net.grid(), [reach](std::uint32_t) { return reach; },
      [](std::uint32_t, std::uint32_t, double) { return true; },
      [&](std::uint32_t a, std::uint32_t b) {
        const double d = net.link_length(a, b);
        return d <= certain || (d < reach && link_rng.chance((reach - d) / (reach - certain)));
      },
      bands);
}

}  // namespace

TEST(LinkBuilder, ApGraphsMatchBruteForceOnEveryProfile) {
  for (const auto& profile : osmx::default_profiles()) {
    SCOPED_TRACE(profile.name);
    const auto city = osmx::generate_city(profile);
    const auto disc = mesh::place_aps(city, {});
    const auto shadowed = mesh::place_aps(city, shadowed_config());
    std::vector<geo::Point> positions;
    for (const auto& ap : disc.aps()) positions.push_back(ap.position);
    const auto near = link_reference::candidates(positions, 50.0, 1.8 * 50.0);
    ASSERT_GT(disc.graph().edge_count(), 0u);
    // The reference stores each link's distance as its weight; the network
    // stores ids and recomputes the length from either end.
    EXPECT_TRUE(link_reference::same_graph(disc.graph(),
                                           link_reference::position_lengths(disc.positions()),
                                           reference_ap_graph(disc, {}, near)));
    EXPECT_TRUE(link_reference::same_graph(shadowed.graph(),
                                           link_reference::position_lengths(shadowed.positions()),
                                           reference_ap_graph(shadowed, shadowed_config(), near)));
  }
}

TEST(LinkBuilder, BuildingGraphMatchesBruteForceOnEveryProfile) {
  for (const auto& profile : osmx::default_profiles()) {
    SCOPED_TRACE(profile.name);
    const core::BuildingGraph map{osmx::generate_city(profile), core::BuildingGraphConfig{}};
    ASSERT_GT(map.graph().edge_count(), 0u);
    // The reference stores each edge's cubed centroid distance as its
    // weight; the map stores ids and recomputes the weight from either end.
    EXPECT_TRUE(link_reference::same_graph(map.graph(), link_reference::building_weights(map),
                                           reference_building_graph(map)));
  }
}

TEST(LinkBuilder, BostonShadowedTopologyIsPinned) {
  // Recorded from the per-vertex radius-query builder, when the graph still
  // stored each link's length as a weight: any slip in the shadowed
  // model's draw order or the neighbour order moves it, and so does a
  // position-derived length that differs in one bit from the stored one.
  const auto city = osmx::generate_city(osmx::profile_by_name("boston"));
  const auto net = mesh::place_aps(city, shadowed_config());
  EXPECT_EQ(net.graph().edge_count(), 154239u);
  EXPECT_EQ(link_reference::fingerprint(net.graph(), net.positions()), 0xdbe96510cbea27ebULL);
}

TEST(LinkBuilder, BandedBuildsMatchTheSequentialBuildOnEveryProfileAndMetroXxl) {
  // The disc, shadowed and building graphs of the ten profiles and of
  // fig10's metro-xxl rung (its city and placement): built in 1, 2, 3 and 4
  // row bands, each CSR's FNV equals the sequential build's, and so does
  // the library's own build (bands chosen from the caller's CPUs).
  struct Case {
    osmx::CityProfile profile;
    mesh::PlacementConfig placement;
  };
  std::vector<Case> cases;
  for (const auto& profile : osmx::default_profiles()) cases.push_back({profile, {}});
  cases.push_back({metro_xxl_profile(), metro_xxl_placement()});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.profile.name);
    const auto city = osmx::generate_city(c.profile);
    mesh::PlacementConfig shadowed = shadowed_config();
    shadowed.seed = c.placement.seed;
    shadowed.density_per_m2 = c.placement.density_per_m2;
    for (const mesh::PlacementConfig& cfg : {c.placement, shadowed}) {
      const auto net = mesh::place_aps(city, cfg);
      const std::uint64_t sequential =
          link_reference::fingerprint(banded_ap_graph(net, cfg, 1), net.positions());
      EXPECT_EQ(link_reference::fingerprint(net.graph(), net.positions()), sequential);
      for (const std::size_t bands : {2, 3, 4}) {
        EXPECT_EQ(link_reference::fingerprint(banded_ap_graph(net, cfg, bands), net.positions()),
                  sequential)
            << (cfg.link_model == mesh::LinkModel::kDisc ? "disc" : "shadowed") << " at "
            << bands << " bands";
      }
    }
    const core::BuildingGraph map{city, core::BuildingGraphConfig{}};
    const std::uint64_t sequential =
        link_reference::fingerprint(link_reference::weighted_building_graph(map, 1));
    EXPECT_EQ(link_reference::fingerprint_by(map.graph(), link_reference::building_weights(map)),
              sequential);
    for (const std::size_t bands : {2, 3, 4}) {
      EXPECT_EQ(link_reference::fingerprint(link_reference::weighted_building_graph(map, bands)),
                sequential)
          << "building graph at " << bands << " bands";
    }
  }
}

TEST(ApNetwork, BuildingIndexEqualsAScanOnEveryProfileAndMetroXxl) {
  // aps_of_building's CSR index against one scan of aps(), on the ten
  // profiles and fig10's metro-xxl rung (its city and placement): every
  // building, those without an AP included, and ids past the last AP's
  // building and past the city.
  std::vector<std::pair<osmx::CityProfile, mesh::PlacementConfig>> cases;
  for (const auto& profile : osmx::default_profiles()) cases.emplace_back(profile, mesh::PlacementConfig{});
  osmx::CityProfile xxl;
  xxl.name = "metro-xxl";
  xxl.width_m = 4200;
  xxl.height_m = 3100;
  xxl.seed = 101;
  mesh::PlacementConfig xxl_placement;
  xxl_placement.seed = 7;
  xxl_placement.density_per_m2 = 1.0 / 60.0;
  cases.emplace_back(xxl, xxl_placement);
  std::size_t buildings_without_an_ap = 0;
  for (const auto& [profile, placement] : cases) {
    SCOPED_TRACE(profile.name);
    const auto city = osmx::generate_city(profile);
    const auto net = mesh::place_aps(city, placement);
    std::vector<std::vector<mesh::ApId>> scan(city.building_count() + 3);
    for (const auto& ap : net.aps()) scan[ap.building].push_back(ap.id);
    std::size_t without = 0;
    for (osmx::BuildingId b = 0; b < scan.size(); ++b) {
      const auto span = net.aps_of_building(b);
      ASSERT_EQ(std::vector<mesh::ApId>(span.begin(), span.end()), scan[b]) << "building " << b;
      without += scan[b].empty() ? 1 : 0;
    }
    EXPECT_GE(without, 3u);  // the three ids past the city
    buildings_without_an_ap += without - 3;
    EXPECT_TRUE(net.aps_of_building(std::numeric_limits<osmx::BuildingId>::max()).empty());
  }
  EXPECT_GT(buildings_without_an_ap, 0u);
}

TEST(ApNetwork, RejectsIdsThatAreNotIndices) {
  std::vector<mesh::AccessPoint> aps{{1, 0, {0.0, 0.0}}, {0, 0, {10.0, 0.0}}};
  EXPECT_THROW(mesh::ApNetwork(aps, 50.0), std::invalid_argument);
}

TEST(LinkBuilder, PositionLengthsEqualTheStoredWeightsOnEveryProfileAndMetroXxl) {
  // The AP graph used to store each link's distance as an 8-byte weight;
  // it now stores ids and recomputes the length from the two positions.
  // Pinned here, recorded from the weighted CSR: the FNV over (neighbour,
  // weight bits) of the disc and shadowed graphs of every profile and of
  // metro-xxl, and hop_bounds()'s longest link. The position-derived
  // lengths, taken from each end in turn, must reproduce both bit for bit.
  struct Pin {
    const char* name;
    std::uint64_t disc;
    std::uint64_t shadowed;
    double disc_longest;
    double shadowed_longest;
  };
  constexpr Pin kPins[] = {
      {"boston", 0x5b8568fce174ffeaULL, 0xdbe96510cbea27ebULL, 0x1.8fffd7d281b1cp+5,
       0x1.6769a4d2f05dp+6},
      {"cambridge", 0x93bea43090164a85ULL, 0x9a9de9e6c6250265ULL, 0x1.8ffff2632615p+5,
       0x1.67cd5201b9f9ap+6},
      {"washington_dc", 0xbb789a521130af85ULL, 0xcff5fba1aace47fcULL, 0x1.8fffddf5ef14p+5,
       0x1.677f66c4ba6bcp+6},
      {"new_york", 0xa0ed151abf59b374ULL, 0xd34174ba5f78f20aULL, 0x1.8fff4c0a19dcdp+5,
       0x1.67b8f44a24d22p+6},
      {"san_francisco", 0x98dc87ab3a77a5d3ULL, 0x4e3ecca57d5cae7aULL, 0x1.8ffed3f9b5633p+5,
       0x1.67b60cc1b8145p+6},
      {"chicago", 0xba5f3d100babb267ULL, 0x3e7be1d0ee2d65daULL, 0x1.8fffc7d34667fp+5,
       0x1.67a5dc9e70df6p+6},
      {"seattle", 0xc1f83b20c849a16eULL, 0xfa525b6a883b28ecULL, 0x1.8fff9c0aa00cap+5,
       0x1.6792839972b13p+6},
      {"austin", 0xc5706665fb84411eULL, 0xcc469dedf5155762ULL, 0x1.8fffff0fae97ap+5,
       0x1.672dde032bc07p+6},
      {"miami", 0x6023e9615be45631ULL, 0xa6e23ae9c9e00e4cULL, 0x1.8fff8f77b19cap+5,
       0x1.67e38f1b9175fp+6},
      {"minneapolis", 0xcba9a71ae9a768f2ULL, 0x06ce66519f45ae6eULL, 0x1.8fff86cfbba7fp+5,
       0x1.6759ea7719d26p+6},
      {"metro-xxl", 0xe3df3ec12e628aceULL, 0xc81addb08cbd4b88ULL, 0x1.8ffffe5e72ec9p+5,
       0x1.67e5d92bed3ccp+6},
  };
  ASSERT_EQ(std::size(kPins), osmx::default_profiles().size() + 1);
  for (const Pin& pin : kPins) {
    SCOPED_TRACE(pin.name);
    const bool xxl = std::string_view{pin.name} == "metro-xxl";
    const auto city =
        osmx::generate_city(xxl ? metro_xxl_profile() : osmx::profile_by_name(pin.name));
    const mesh::PlacementConfig disc = xxl ? metro_xxl_placement() : mesh::PlacementConfig{};
    mesh::PlacementConfig shadowed = shadowed_config();
    shadowed.seed = disc.seed;
    shadowed.density_per_m2 = disc.density_per_m2;
    for (const auto& [cfg, fnv, longest] :
         {std::tuple{disc, pin.disc, pin.disc_longest},
          std::tuple{shadowed, pin.shadowed, pin.shadowed_longest}}) {
      const auto net = mesh::place_aps(city, cfg);
      EXPECT_EQ(link_reference::fingerprint(net.graph(), net.positions()), fnv);
      // The same lengths taken from the other end of each link.
      const auto from_far_end = [&](std::uint32_t v, std::size_t, std::uint32_t to) {
        return net.link_length(to, v);
      };
      EXPECT_EQ(link_reference::fingerprint_by(net.graph(), from_far_end), fnv);
      EXPECT_EQ(net.hop_bounds().longest_link, longest);
    }
  }
}

TEST(BuildingGraph, DerivedWeightsEqualTheStoredWeightsOnEveryProfileAndMetroXxl) {
  // The full building graph used to store each edge's cubed centroid
  // distance as an 8-byte weight; it now stores ids and recomputes the
  // weight with edge_weight(). Pinned here, recorded from the weighted CSR:
  // the FNV over (neighbour, weight bits) of every profile's and metro-xxl's
  // graph under the default config, and its edge count. The derived
  // weights, taken from each end in turn, must reproduce it bit for bit,
  // and so must the weighted graph the tests rebuild (weighted_building_graph).
  struct Pin {
    const char* name;
    std::uint64_t fnv;
    std::size_t edges;
  };
  constexpr Pin kPins[] = {
      {"boston", 0xf2deb82400036200ULL, 122558},
      {"cambridge", 0x6ee0ab0d45c19368ULL, 91906},
      {"washington_dc", 0xc4b11707b3d7a72fULL, 131538},
      {"new_york", 0x49f6dee8cba63c6fULL, 227078},
      {"san_francisco", 0x0523d114d3190214ULL, 52493},
      {"chicago", 0x96ef741d4197d199ULL, 146404},
      {"seattle", 0x84b8e08a966868d3ULL, 108982},
      {"austin", 0x570c7ed328713d26ULL, 96785},
      {"miami", 0x072979beb690fdc2ULL, 116610},
      {"minneapolis", 0x9ca99ba5d1897043ULL, 117202},
      {"metro-xxl", 0x0cde90ff6c37ec3aULL, 207564},
  };
  ASSERT_EQ(std::size(kPins), osmx::default_profiles().size() + 1);
  for (const Pin& pin : kPins) {
    SCOPED_TRACE(pin.name);
    const bool xxl = std::string_view{pin.name} == "metro-xxl";
    const core::BuildingGraph map{
        osmx::generate_city(xxl ? metro_xxl_profile() : osmx::profile_by_name(pin.name)),
        core::BuildingGraphConfig{}};
    EXPECT_EQ(map.graph().edge_count(), pin.edges);
    EXPECT_EQ(link_reference::fingerprint_by(map.graph(), link_reference::building_weights(map)),
              pin.fnv);
    // The same weights taken from the other end of each edge.
    const auto from_far_end = [&](std::uint32_t v, std::size_t, std::uint32_t to) {
      return map.edge_weight(to, v);
    };
    EXPECT_EQ(link_reference::fingerprint_by(map.graph(), from_far_end), pin.fnv);
    EXPECT_EQ(link_reference::fingerprint(link_reference::weighted_building_graph(map)), pin.fnv);
  }
}
