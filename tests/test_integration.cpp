// Cross-module integration tests: the full Alice -> Bob workflow of §3 over
// a generated city, fractured-city detection and repair, loss tolerance, and
// stale-map behaviour.
#include <gtest/gtest.h>

#include "core/evaluation.hpp"
#include "core/network.hpp"
#include "geo/stats.hpp"
#include "cryptox/sealed.hpp"
#include "mesh/islands.hpp"
#include "osmx/citygen.hpp"
#include "routing/baselines.hpp"
#include "lone_agent.hpp"

namespace core = citymesh::core;
namespace osmx = citymesh::osmx;
namespace mesh = citymesh::mesh;
namespace geo = citymesh::geo;
namespace cryptox = citymesh::cryptox;

namespace {

std::span<const std::uint8_t> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// A compact dense city (fast to simulate, fully connected).
osmx::City small_dense_city() {
  osmx::CityProfile p;
  p.name = "dense-town";
  p.width_m = 900;
  p.height_m = 700;
  p.building_coverage = 0.5;
  p.downtown_coverage = 0.6;
  p.park_fraction = 0.0;
  p.seed = 3;
  return osmx::generate_city(p);
}

core::NetworkConfig default_net_config() {
  core::NetworkConfig cfg;
  cfg.placement.density_per_m2 = 1.0 / 150.0;
  return cfg;
}

}  // namespace

TEST(Integration, AliceToBobFullWorkflow) {
  const auto city = small_dense_city();
  core::CityMeshNetwork net{city, default_net_config()};

  // Step 1: Bob provisions a postbox and hands Alice its info out-of-band.
  const auto alice = cryptox::KeyPair::from_seed(1);
  const auto bob = cryptox::KeyPair::from_seed(2);
  const auto bob_building =
      static_cast<core::BuildingId>(city.building_count() - 3);
  const auto info = core::PostboxInfo::for_key(bob, bob_building);
  const auto box = net.register_postbox(info);
  ASSERT_NE(box, nullptr);

  // Step 2: Alice seals a message and sends it from her building.
  const auto sealed =
      cryptox::seal(alice, info.public_key, "are you safe? meet at the shelter", 99);
  const auto outcome = net.send(2, info, sealed.serialize());

  // Step 3: the conduit flood delivers it.
  ASSERT_TRUE(outcome.route_found);
  ASSERT_TRUE(outcome.delivered) << "conduit flood failed to reach Bob";
  EXPECT_GT(outcome.delivery_time_s, 0.0);

  // Step 4: Bob retrieves, verifies and decrypts.
  const auto msgs = box->retrieve();
  ASSERT_EQ(msgs.size(), 1u);
  const auto parsed = cryptox::SealedMessage::deserialize(msgs[0].sealed_payload);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->sender_id, alice.id());
  const auto text = cryptox::unseal_text(bob, *parsed);
  ASSERT_TRUE(text.has_value());
  EXPECT_EQ(*text, "are you safe? meet at the shelter");

  // Nobody else can read it, even with the blob in hand.
  const auto eve = cryptox::KeyPair::from_seed(3);
  EXPECT_FALSE(cryptox::unseal(eve, *parsed).has_value());
}

TEST(Integration, MultipleMessagesAccumulateInPostbox) {
  const auto city = small_dense_city();
  core::CityMeshNetwork net{city, default_net_config()};
  const auto bob = cryptox::KeyPair::from_seed(2);
  const auto info = core::PostboxInfo::for_key(
      bob, static_cast<core::BuildingId>(city.building_count() / 2));
  const auto box = net.register_postbox(info);
  ASSERT_NE(box, nullptr);

  int delivered = 0;
  for (int i = 0; i < 3; ++i) {
    const auto outcome =
        net.send(static_cast<core::BuildingId>(i * 5), info, bytes_of("ping"));
    if (outcome.delivered) ++delivered;
  }
  EXPECT_EQ(box->pending(), static_cast<std::size_t>(delivered));
  EXPECT_GE(delivered, 2);
}

TEST(Integration, OverheadIsInPaperBallpark) {
  // The paper reports ~13x median transmission overhead vs the ideal
  // unicast path. Exact values depend on density; assert the right order of
  // magnitude (conduit flood is much worse than unicast but far better than
  // a full flood).
  const auto city = small_dense_city();
  core::CityMeshNetwork net{city, default_net_config()};
  geo::Rng rng{5};
  std::vector<double> overheads;
  for (int i = 0; i < 10 && overheads.size() < 6; ++i) {
    const auto from =
        static_cast<core::BuildingId>(rng.uniform_int(city.building_count()));
    const auto to =
        static_cast<core::BuildingId>(rng.uniform_int(city.building_count()));
    if (from == to) continue;
    const auto keys = cryptox::KeyPair::from_seed(1000 + i);
    const auto info = core::PostboxInfo::for_key(keys, to);
    if (!net.register_postbox(info)) continue;
    const auto outcome = net.send(from, info, bytes_of("x"));
    if (outcome.delivered && outcome.overhead() && *outcome.min_hops >= 3) {
      overheads.push_back(*outcome.overhead());
    }
  }
  ASSERT_GE(overheads.size(), 3u);
  const double median = geo::median(overheads);
  EXPECT_GT(median, 1.5);
  EXPECT_LT(median, 120.0);
}

TEST(Integration, ConduitFloodCheaperThanFullFlood) {
  const auto city = small_dense_city();
  core::CityMeshNetwork net{city, default_net_config()};
  const auto bob = cryptox::KeyPair::from_seed(7);
  const auto dst = static_cast<core::BuildingId>(city.building_count() - 2);
  const auto info = core::PostboxInfo::for_key(bob, dst);
  ASSERT_NE(net.register_postbox(info), nullptr);
  const auto outcome = net.send(1, info, bytes_of("x"));
  ASSERT_TRUE(outcome.delivered);

  // Full flood on the same AP graph from the same source AP.
  const auto src_ap = net.aps().representative_ap(city, 1);
  const auto dst_ap = net.aps().representative_ap(city, dst);
  ASSERT_TRUE(src_ap && dst_ap);
  const auto flood = citymesh::routing::flood_route(net.aps().graph(), *src_ap,
                                                    *dst_ap, 10'000);
  ASSERT_TRUE(flood.delivered);
  EXPECT_LT(outcome.transmissions, flood.data_transmissions)
      << "the conduit must restrict the rebroadcast set";
}

TEST(Integration, FracturedCityDetectedAndRepaired) {
  // DC-style city split by an unbridged river.
  osmx::CityProfile p;
  p.name = "split-town";
  p.width_m = 1100;
  p.height_m = 700;
  p.park_fraction = 0.0;
  p.rivers.push_back({.position_frac = 0.5, .width_m = 250.0, .vertical = true,
                      .bridges = {}});
  p.seed = 8;
  const auto city = osmx::generate_city(p);

  mesh::PlacementConfig placement;
  placement.density_per_m2 = 1.0 / 150.0;
  const auto aps = mesh::place_aps(city, placement);
  const auto report = mesh::analyze_islands(aps);
  ASSERT_GE(report.island_count, 2u);
  ASSERT_LT(report.largest_fraction, 0.9);

  // The paper's proposal: a handful of well-placed APs bridge the islands.
  const auto plan = mesh::plan_bridges(aps);
  ASSERT_FALSE(plan.new_aps.empty());
  EXPECT_LE(plan.new_aps.size(), 10u) << "a 250 m gap needs ~6 bridge APs";
  const auto bridged = mesh::apply_bridges(aps, plan);
  EXPECT_GT(mesh::analyze_islands(bridged).largest_fraction, 0.9);
}

TEST(Integration, DeliveryToleratesModerateLoss) {
  const auto city = small_dense_city();
  auto cfg = default_net_config();
  cfg.medium.loss_probability = 0.15;
  core::CityMeshNetwork net{city, cfg};
  const auto bob = cryptox::KeyPair::from_seed(17);
  const auto info = core::PostboxInfo::for_key(
      bob, static_cast<core::BuildingId>(city.building_count() - 4));
  ASSERT_NE(net.register_postbox(info), nullptr);
  // The conduit's redundancy (every in-conduit AP rebroadcasts) should ride
  // through 15% per-link loss.
  const auto outcome = net.send(0, info, bytes_of("still there?"));
  EXPECT_TRUE(outcome.delivered);
}

TEST(Integration, EvaluationSeparatesConnectedFromFractured) {
  // Run the §4 protocol on a connected and a fractured mini-city; the
  // fractured one must report visibly lower reachability.
  core::EvaluationConfig cfg;
  cfg.reachability_pairs = 120;
  cfg.deliverability_pairs = 6;
  cfg.network.placement.density_per_m2 = 1.0 / 150.0;

  const auto connected = core::evaluate_city(small_dense_city(), cfg);

  osmx::CityProfile p;
  p.name = "split-town";
  p.width_m = 1100;
  p.height_m = 700;
  p.park_fraction = 0.0;
  p.rivers.push_back({.position_frac = 0.5, .width_m = 250.0, .vertical = true,
                      .bridges = {}});
  p.seed = 8;
  const auto fractured = core::evaluate_city(osmx::generate_city(p), cfg);

  EXPECT_GT(connected.reachability(), 0.85);
  EXPECT_LT(fractured.reachability(), connected.reachability() - 0.2);
  EXPECT_GT(fractured.ap_islands, connected.ap_islands);
}

TEST(Integration, HeaderBitsInPaperRange) {
  // Median compressed-route header across random pairs of a real-scale city
  // should land in the paper's ~100-300 bit range (they report 175/225).
  static const auto city = osmx::generate_city(osmx::profile_by_name("boston"));
  const core::BuildingGraph map{city, {}};
  const core::RoutePlanner planner{map, {}};
  geo::Rng rng{31};
  std::vector<double> bits;
  while (bits.size() < 40) {
    const auto a = static_cast<core::BuildingId>(rng.uniform_int(map.building_count()));
    const auto b = static_cast<core::BuildingId>(rng.uniform_int(map.building_count()));
    const auto route = planner.plan(a, b);
    if (route && route->buildings.size() >= 5) {
      bits.push_back(static_cast<double>(route->header_bits));
    }
  }
  const double median = geo::median(bits);
  EXPECT_GT(median, 90.0);
  EXPECT_LT(median, 320.0);
}

TEST(Integration, StaleMapDegradesGracefully) {
  // An AP holding a *smaller* (older) building map must not crash on packets
  // referencing newer building ids - it just declines to rebroadcast.
  const auto city = small_dense_city();
  const core::BuildingGraph fresh{city, {}};

  // Stale map: a truncated city (as if the cache predates new construction).
  osmx::City stale_city{"stale", city.extent()};
  for (std::size_t i = 0; i < city.building_count() / 2; ++i) {
    stale_city.add_building(city.building(i).footprint);
  }
  const core::BuildingGraph stale{stale_city, {}};

  citymesh::wire::PacketHeader h;
  h.message_id = 77;
  h.waypoints = {static_cast<core::BuildingId>(city.building_count() - 1),
                 static_cast<core::BuildingId>(city.building_count() - 2)};
  LoneAgent lone{0, city.building(0).centroid, 0, stale};
  const auto enc = citymesh::wire::encode_header(h);
  const auto action = lone.agent.on_receive({enc.bytes, {}, 0, nullptr}, 0.0);
  EXPECT_FALSE(action.rebroadcast);
  EXPECT_FALSE(action.malformed);
}

TEST(Integration, EndToEndRunsAreDeterministic) {
  // Two independently constructed networks over the same city and config
  // must produce bit-identical outcomes: every stochastic input (placement,
  // message ids, jitter, backoff) is seeded.
  const auto city = small_dense_city();
  auto run_once = [&] {
    core::CityMeshNetwork net{city, default_net_config()};
    const auto bob = cryptox::KeyPair::from_seed(123);
    const auto info = core::PostboxInfo::for_key(
        bob, static_cast<core::BuildingId>(city.building_count() - 7));
    net.register_postbox(info);
    core::SendOptions opts;
    opts.collect_trace = true;
    return net.send(1, info, bytes_of("determinism"), opts);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.message_id, b.message_id);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.delivery_time_s, b.delivery_time_s);
  EXPECT_EQ(a.route.waypoints, b.route.waypoints);
  EXPECT_EQ(a.rebroadcast_aps, b.rebroadcast_aps);
  EXPECT_EQ(a.received_only_aps, b.received_only_aps);
}
