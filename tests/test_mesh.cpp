// Tests for AP placement, the AP connectivity graph, island analysis, and
// gap bridging.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include "graphx/shortest_path.hpp"
#include "mesh/ap_network.hpp"
#include "mesh/islands.hpp"
#include "osmx/citygen.hpp"

namespace mesh = citymesh::mesh;
namespace osmx = citymesh::osmx;
namespace geo = citymesh::geo;

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
    for (const auto& e : net.graph().neighbors(v)) {
      const double d = geo::distance(net.ap(v).position, net.ap(e.to).position);
      EXPECT_LE(d, 50.0 + 1e-9);
      EXPECT_NEAR(e.weight, d, 1e-9);  // edge weight is the link length
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
    aps.push_back({i, {i * 40.0, 0.0}, i});
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

}  // namespace

TEST(ApNetwork, MinHopsMatchesWholeGraphBfsOnEveryProfile) {
  // 200 seeded (source AP, destination building) pairs per profile, each
  // checked against its own full BFS.
  for (const auto& profile : osmx::default_profiles()) {
    SCOPED_TRACE(profile.name);
    const auto city = osmx::generate_city(profile);
    const auto net = mesh::place_aps(city, mesh::PlacementConfig{});
    ASSERT_GT(net.ap_count(), 0u);
    geo::Rng rng{0xb1d1 ^ profile.seed};
    std::size_t reachable = 0, unreachable = 0;
    for (int pair = 0; pair < 200; ++pair) {
      const auto from = static_cast<mesh::ApId>(rng.uniform_int(net.ap_count()));
      const auto b = static_cast<osmx::BuildingId>(rng.uniform_int(city.building_count()));
      const auto& targets = net.aps_of_building(b);
      const auto expected = bfs_min_hops(net, from, targets);
      EXPECT_EQ(net.min_hops(from, targets), expected) << "from " << from << " to building " << b;
      ++(expected ? reachable : unreachable);
    }
    // Both answers occur: islands (the paper's Fig 4) and AP-less buildings
    // leave some pairs unreachable.
    EXPECT_GT(reachable, 0u);
    EXPECT_GT(unreachable, 0u);
  }
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
  aps.push_back({0, {0.0, 0.0}, 0});
  aps.push_back({1, {30.0, 0.0}, 0});
  aps.push_back({2, {500.0, 0.0}, 1});
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
  aps.push_back({0, {5.0, 5.0}, 0});
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
    for (const auto& e : net_shadow.graph().neighbors(v)) {
      max_len = std::max(max_len, e.weight);
      if (e.weight > 50.0) has_long_link = true;
    }
  }
  // Spot-check the certain zone on the disc graph's short links.
  std::size_t checked = 0;
  for (mesh::ApId v = 0; v < net_disc.ap_count() && checked < 3000; ++v) {
    for (const auto& e : net_disc.graph().neighbors(v)) {
      if (e.weight <= 0.6 * 50.0) {
        ++checked;
        if (!net_shadow.graph().has_edge(v, e.to)) certain_zone_ok = false;
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
