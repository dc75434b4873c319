// core::CompiledMessage / MessageCompiler: the compile-once packet hot path.
//
// The refactor's contract is behavioral identity: the precomputed member
// sets must equal the old per-reception predicates bit for bit (the free
// functions should_rebroadcast / in_broadcast_region are kept as the
// brute-force reference), the event stream of a flood must be unchanged,
// and malformed headers — including the corrupt-width case that used to
// throw out of the event loop — must become counted drops.
#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <functional>
#include <latch>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/ap_agent.hpp"
#include "core/compiled_message.hpp"
#include "core/network.hpp"
#include "core/route_planner.hpp"
#include "cryptox/sealed.hpp"
#include "geo/rng.hpp"
#include "osmx/citygen.hpp"
#include "trafficx/runner.hpp"
#include "trafficx/workload.hpp"
#include "wire/packet.hpp"
#include "graphx/link_builder.hpp"
#include "link_reference.hpp"
#include "lone_agent.hpp"

namespace core = citymesh::core;
namespace geo = citymesh::geo;
namespace obsx = citymesh::obsx;
namespace osmx = citymesh::osmx;
namespace wire = citymesh::wire;
namespace cryptox = citymesh::cryptox;
namespace mesh = citymesh::mesh;
namespace graphx = citymesh::graphx;
namespace relayx = citymesh::relayx;
namespace trafficx = citymesh::trafficx;
namespace qfgeo = citymesh::qfgeo;

namespace {

/// Small generated towns: fast to compile, non-trivial geometry. Distinct
/// name+seed -> distinct street grids and building layouts.
osmx::City test_city(const char* name, std::uint64_t seed) {
  osmx::CityProfile p;
  p.name = name;
  p.width_m = 700;
  p.height_m = 700;
  p.seed = seed;
  return osmx::generate_city(p);
}

std::span<const std::uint8_t> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

}  // namespace

// ----------------------------------------------------- membership property ---

// The tentpole's correctness core: over several cities and seeds, the
// grid-accelerated member sets must equal brute force over ALL buildings via
// the exact old predicates.
TEST(CompiledMembership, EqualsBruteForceAcrossCitiesAndSeeds) {
  const osmx::City cities[] = {
      test_city("compiled-a", 101),
      test_city("compiled-b", 202),
      test_city("compiled-c", 303),
  };
  std::size_t messages_checked = 0;
  for (const auto& city : cities) {
    const core::BuildingGraph map{city, {}};
    const core::RoutePlanner planner{map, {}};
    const auto n = map.building_count();
    ASSERT_GE(n, 10u);
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      geo::Rng rng{seed};
      for (int pair = 0; pair < 3; ++pair) {
        const auto a = static_cast<core::BuildingId>(rng.uniform_int(n));
        const auto b = static_cast<core::BuildingId>(rng.uniform_int(n));
        const auto route = planner.plan(a, b);
        if (!route) continue;

        wire::PacketHeader h;
        h.message_id = static_cast<std::uint32_t>(seed * 1000 + pair);
        h.conduit_width_m = route->conduit_width_m;
        h.waypoints = route->waypoints;

        const core::CompiledMessage msg = core::compile_message(h, map);
        EXPECT_FALSE(msg.malformed);
        EXPECT_TRUE(msg.waypoints_valid);
        for (core::BuildingId bld = 0; bld < n; ++bld) {
          EXPECT_EQ(msg.conduit_member(bld), core::should_rebroadcast(h, map, bld))
              << city.name() << " seed " << seed << " building " << bld;
        }
        ++messages_checked;

        // Same property for geo-broadcast disc membership.
        wire::PacketHeader bc = h;
        bc.set_flag(wire::PacketFlag::kBroadcast);
        bc.broadcast_radius_m = 120;
        const core::CompiledMessage bmsg = core::compile_message(bc, map);
        for (core::BuildingId bld = 0; bld < n; ++bld) {
          EXPECT_EQ(bmsg.broadcast_member(bld), core::in_broadcast_region(bc, map, bld))
              << city.name() << " seed " << seed << " building " << bld;
        }
      }
    }
  }
  // The property must actually have been exercised, not skipped by unlucky
  // unroutable pairs.
  EXPECT_GE(messages_checked, 20u);
}

TEST(CompiledMembership, StaleMapWaypointCompilesToEmptyMembership) {
  const auto city = test_city("compiled-a", 101);
  const core::BuildingGraph map{city, {}};
  wire::PacketHeader h;
  h.message_id = 7;
  h.waypoints = {0, static_cast<core::BuildingId>(map.building_count() + 5)};
  const core::CompiledMessage msg = core::compile_message(h, map);
  EXPECT_FALSE(msg.malformed);
  EXPECT_FALSE(msg.waypoints_valid);
  EXPECT_TRUE(msg.members.empty());
  for (core::BuildingId b = 0; b < map.building_count(); ++b) {
    EXPECT_FALSE(msg.conduit_member(b));
    EXPECT_EQ(core::should_rebroadcast(h, map, b), false);
  }
}

// The member bitmaps at their edges: members at id 0 and at
// building_count() - 1, a member range that starts past the first 64 ids,
// and the empty sets of malformed and stale-waypoint messages, in conduit
// and QF-Geo compiles. No id past the map, 2^32 - 1 included, is a member.
TEST(CompiledMembership, BitmapEdgesMatchBruteForce) {
  const auto city = test_city("compiled-c", 303);
  const core::BuildingGraph map{city, {}};
  const core::RoutePlanner planner{map, {}};
  const auto n = static_cast<core::BuildingId>(map.building_count());
  ASSERT_GT(n, 128u);
  const auto expect_no_member_past_the_map = [&](const core::CompiledMessage& msg) {
    for (const core::BuildingId b : {n, n + 1, n + 64, core::BuildingId{0xFFFFFFFF}}) {
      EXPECT_FALSE(msg.conduit_member(b)) << b;
      EXPECT_FALSE(msg.broadcast_member(b)) << b;
    }
  };

  // A flood out of the last building, broadcast over a disc wider than the
  // map: every building is a broadcast member, the first and last included.
  std::optional<core::PlannedRoute> route;
  for (core::BuildingId to = 0; !route && to < n / 2; ++to) route = planner.plan(n - 1, to);
  ASSERT_TRUE(route.has_value());
  wire::PacketHeader h;
  h.message_id = 31;
  h.conduit_width_m = route->conduit_width_m;
  h.waypoints = route->waypoints;
  h.set_flag(wire::PacketFlag::kBroadcast);
  h.broadcast_radius_m = 100'000;
  const qfgeo::RegionConfig region_cfg;
  const qfgeo::Region region = qfgeo::make_region(
      map.centroid(h.waypoints.front()), map.centroid(h.waypoints.back()), region_cfg);
  const core::CompiledMessage conduit = core::compile_message(h, map);
  const core::CompiledMessage qf = core::compile_message_qfgeo(h, map, region_cfg);
  for (core::BuildingId b = 0; b < n; ++b) {
    EXPECT_EQ(conduit.conduit_member(b), core::should_rebroadcast(h, map, b)) << b;
    EXPECT_EQ(qf.conduit_member(b), region.contains(map.centroid(b))) << b;
    EXPECT_TRUE(conduit.broadcast_member(b)) << b;
    EXPECT_TRUE(qf.broadcast_member(b)) << b;
  }
  EXPECT_TRUE(conduit.conduit_member(n - 1));
  EXPECT_TRUE(qf.conduit_member(n - 1));
  EXPECT_EQ(conduit.broadcast_members.size(), n);
  EXPECT_TRUE(conduit.broadcast_member(0));
  EXPECT_TRUE(conduit.broadcast_member(n - 1));
  expect_no_member_past_the_map(conduit);
  expect_no_member_past_the_map(qf);

  // A radius-0 disc holds its center (and any building sharing its
  // centroid): a bitmap whose range starts past the first word.
  wire::PacketHeader point = h;
  point.waypoints = {100, 100};
  point.broadcast_radius_m = 0;
  const core::CompiledMessage disc = core::compile_message(point, map);
  for (core::BuildingId b = 0; b < n; ++b) {
    EXPECT_EQ(disc.broadcast_member(b), core::in_broadcast_region(point, map, b)) << b;
  }
  EXPECT_TRUE(disc.broadcast_member(100));
  EXPECT_FALSE(disc.broadcast_member(0));
  expect_no_member_past_the_map(disc);

  // Malformed and stale-waypoint messages compile to empty sets.
  wire::PacketHeader malformed = h;
  malformed.conduit_width_m = -1.0;
  wire::PacketHeader stale = h;
  stale.waypoints = {0, n + 5};
  for (const wire::PacketHeader& empty : {malformed, stale}) {
    for (const core::CompiledMessage& msg :
         {core::compile_message(empty, map), core::compile_message_qfgeo(empty, map, region_cfg)}) {
      EXPECT_TRUE(msg.members.empty());
      EXPECT_TRUE(msg.broadcast_members.empty());
      EXPECT_EQ(msg.members.heap_bytes(), 0u);
      for (const core::BuildingId b : {core::BuildingId{0}, n - 1}) {
        EXPECT_FALSE(msg.conduit_member(b));
        EXPECT_FALSE(msg.broadcast_member(b));
      }
      expect_no_member_past_the_map(msg);
    }
  }
}

// The largest broadcast radius the wire format accepts (100 km) spans
// ~2000 x 2000 grid cells; the grid visits only the occupied ones, and the
// member set must still be exact: with the whole city inside the disc,
// every building is a member.
TEST(CompiledMembership, HundredKilometreBroadcastOnBostonMatchesBruteForce) {
  const osmx::City city = osmx::generate_city(osmx::profile_by_name("boston"));
  const core::BuildingGraph map{city, {}};
  const core::RoutePlanner planner{map, {}};
  const auto n = static_cast<core::BuildingId>(map.building_count());
  std::optional<core::PlannedRoute> route;
  for (core::BuildingId to = n / 2; !route && to < n; ++to) route = planner.plan(n / 3, to);
  ASSERT_TRUE(route.has_value());

  wire::PacketHeader h;
  h.message_id = 4242;
  h.conduit_width_m = route->conduit_width_m;
  h.waypoints = route->waypoints;
  h.set_flag(wire::PacketFlag::kBroadcast);
  h.broadcast_radius_m = 100'000;
  core::MessageCompiler compiler{map};
  const auto msg = compiler.compile_bytes(wire::encode_header(h).bytes);
  ASSERT_FALSE(msg->malformed);
  ASSERT_EQ(msg->header.broadcast_radius_m, 100'000u);
  std::size_t members = 0;
  for (core::BuildingId b = 0; b < n; ++b) {
    const bool expected = core::in_broadcast_region(h, map, b);
    EXPECT_EQ(msg->broadcast_member(b), expected) << "building " << b;
    EXPECT_EQ(msg->conduit_member(b), core::should_rebroadcast(h, map, b)) << "building " << b;
    members += expected ? 1 : 0;
  }
  EXPECT_EQ(members, map.building_count());
}

// ------------------------------------------------------- malformed width ---

// The satellite bugfix: a corrupt conduit width used to escape as
// std::invalid_argument from the ConduitPath ctor inside should_rebroadcast;
// now every layer treats it as a counted malformed drop.
TEST(CompiledMalformed, CorruptWidthIsDroppedNotThrown) {
  const auto city = test_city("compiled-b", 202);
  const core::BuildingGraph map{city, {}};
  wire::PacketHeader bad;
  bad.message_id = 99;
  bad.conduit_width_m = -5.0;
  bad.waypoints = {0, 1};

  EXPECT_NO_THROW({
    for (core::BuildingId b = 0; b < 4; ++b) {
      EXPECT_FALSE(core::should_rebroadcast(bad, map, b));
    }
  });

  const core::CompiledMessage msg = core::compile_message(bad, map);
  EXPECT_TRUE(msg.malformed);
  EXPECT_TRUE(msg.members.empty());

  // Through the agent: a counted malformed drop, exactly like bad bytes.
  LoneAgent lone{0, map.centroid(0), 0, map};
  core::ApAgent& agent = lone.agent;
  const core::MessageCompiler& compiler = lone.compiler;
  core::MeshPacket packet;
  packet.trace_id = bad.message_id;
  packet.compiled = std::make_shared<const core::CompiledMessage>(msg);
  const auto action = agent.on_receive(packet, 0.0);
  EXPECT_TRUE(action.malformed);
  EXPECT_FALSE(action.rebroadcast);
  EXPECT_EQ(compiler.malformed_drops(), 1u);
}

TEST(CompiledMalformed, UndecodableBytesCountedAndThrownToAgentOnly) {
  const auto city = test_city("compiled-b", 202);
  const core::BuildingGraph map{city, {}};
  LoneAgent lone{0, map.centroid(0), 0, map};
  core::ApAgent& agent = lone.agent;
  const core::MessageCompiler& compiler = lone.compiler;
  core::MeshPacket packet;
  packet.header_bytes = {0x01, 0x02};  // truncated garbage
  const auto action = agent.on_receive(packet, 0.0);
  EXPECT_TRUE(action.malformed);
  EXPECT_EQ(compiler.malformed_drops(), 1u);
  EXPECT_EQ(compiler.header_decodes(), 1u);
  EXPECT_EQ(compiler.msg_compiles(), 0u);
}

// ----------------------------------------------------------- memoization ---

TEST(MessageCompiler, MemoizesByMessageIdWithHeaderVerification) {
  const auto city = test_city("compiled-c", 303);
  const core::BuildingGraph map{city, {}};
  core::MessageCompiler compiler{map};

  wire::PacketHeader h;
  h.message_id = 0xdeadbeef;
  h.waypoints = {0, 1, 2};
  const auto enc = wire::encode_header(h);

  const auto first = compiler.compile_bytes(enc.bytes);
  const auto second = compiler.compile_bytes(enc.bytes);
  EXPECT_EQ(first.get(), second.get());  // memo hit shares the object
  EXPECT_EQ(compiler.header_decodes(), 2u);
  EXPECT_EQ(compiler.msg_compiles(), 1u);

  // Same message id, different waypoints (id collision / tamper): the memo
  // must NOT hand back the other message's geometry.
  wire::PacketHeader collide = h;
  collide.waypoints = {3, 4};
  const auto third = compiler.compile(collide);
  EXPECT_NE(first.get(), third.get());
  EXPECT_EQ(third->header.waypoints, collide.waypoints);
  EXPECT_EQ(compiler.msg_compiles(), 2u);
}

// ---------------------------------------------- decode scaling on a flood ---

// The acceptance criterion: header decodes scale with distinct messages, not
// receptions. One send floods a whole town (many transmissions/receptions)
// yet decodes its header exactly once, at send time.
TEST(CompiledFlood, HeaderDecodesEqualDistinctMessagesNotReceptions) {
  const auto city = test_city("compiled-a", 101);
  core::NetworkConfig cfg;
  cfg.medium.jitter_s = 0.0;
  core::CityMeshNetwork net{city, cfg};

  // Walk destination candidates until one is routable from building 0 with a
  // live source AP; a failed attempt returns before the header is ever built,
  // so it cannot perturb the decode counts below.
  const auto keys = cryptox::KeyPair::from_seed(21);
  core::SendOutcome outcome;
  std::optional<core::PostboxInfo> info;
  for (auto dest = static_cast<core::BuildingId>(net.map().building_count() - 1);
       dest > 0 && !(outcome.route_found && outcome.source_has_ap); --dest) {
    info = core::PostboxInfo::for_key(keys, dest);
    if (net.register_postbox(*info) == nullptr) continue;
    outcome = net.send(0, *info, bytes_of("flood"));
  }
  ASSERT_TRUE(outcome.route_found && outcome.source_has_ap);
  EXPECT_EQ(net.compiler().header_decodes(), 1u);
  EXPECT_EQ(net.compiler().msg_compiles(), 1u);
  // The flood really did fan out: many receptions served by that one decode,
  // and more than one of them was a fresh reception that ran the membership
  // test (a rebroadcast or a conduit reject).
  const auto counters = net.merged_metrics().counters;
  EXPECT_GT(counters.at("medium.deliveries"), net.compiler().header_decodes());
  EXPECT_GT(counters.at("net.rebroadcasts") + counters.at("net.conduit_rejects"),
            net.compiler().header_decodes());

  // A second distinct message costs exactly one more decode.
  net.send(0, *info, bytes_of("flood-2"));
  EXPECT_EQ(net.compiler().header_decodes(), 2u);
  EXPECT_EQ(net.compiler().msg_compiles(), 2u);
}

// ------------------------------------------ compile counters across shards ---

// A network compiles only on its coordinator: originate compiles every
// message and its ack before any tile sees them, so the compile counters
// count distinct messages whatever the tile count, and the tile count
// changes nothing in the run's metrics.
TEST(CompiledShards, CompileCountersMatchAcrossShardCounts) {
  core::NetworkConfig base;
  base.medium.jitter_s = 0.0;
  base.medium.loss_probability = 0.0;
  const auto compiled =
      core::compile_city(osmx::generate_city(osmx::profile_by_name("boston")), base);
  const auto alice = core::PostboxInfo::for_key(cryptox::KeyPair::from_seed(1), 10);
  const auto bob = core::PostboxInfo::for_key(cryptox::KeyPair::from_seed(2), 400);
  core::SendOptions opts;
  opts.request_ack = true;
  opts.ack_to = alice;

  std::string one_tile;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    core::NetworkConfig cfg = base;
    cfg.shards = shards;
    core::CityMeshNetwork net{compiled, cfg};
    ASSERT_NE(net.register_postbox(alice), nullptr);
    ASSERT_NE(net.register_postbox(bob), nullptr);
    EXPECT_TRUE(net.send(10, bob, bytes_of("sent"), opts).ack_received) << shards;
    const core::InjectResult injected = net.inject(10, bob, bytes_of("injected"), opts);
    ASSERT_TRUE(injected.accepted());
    net.run_until(net.sim_now() + cfg.max_sim_time_s);
    const core::FlowState* flow = net.flow_state(injected.message_id);
    ASSERT_NE(flow, nullptr);
    EXPECT_TRUE(flow->ack_received) << shards;

    // Two messages and two acks: four distinct messages.
    EXPECT_EQ(net.compiler().header_decodes(), 4u) << shards;
    EXPECT_EQ(net.compiler().msg_compiles(), 4u) << shards;
    const std::string metrics = net.merged_metrics().to_json();
    if (shards == 1) {
      one_tile = metrics;
    } else {
      EXPECT_EQ(metrics, one_tile) << shards;
    }
  }
}

// ------------------------------------------- shared landmark table ---

// The ALT landmark table is built lazily, once per map, by the first plan.
// Networks on one shared CompiledCity, built on four threads, make their
// first plans at the same moment: one build, no race (TSan runs this
// suite), and every thread plans the routes a lone planner plans.
TEST(CompiledSharing, ConcurrentFirstPlansShareTheLandmarkTable) {
  const core::NetworkConfig config;
  const auto compiled = core::compile_city(test_city("alt-share", 404), config);
  const auto n = compiled->map.building_count();
  geo::Rng rng{9};
  std::vector<std::pair<core::BuildingId, core::BuildingId>> pairs;
  for (int i = 0; i < 24; ++i) {
    pairs.emplace_back(static_cast<core::BuildingId>(rng.uniform_int(n)),
                       static_cast<core::BuildingId>(rng.uniform_int(n)));
  }

  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<std::optional<core::PlannedRoute>>> routes(kThreads);
  std::latch start{kThreads};
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < kThreads; ++k) {
    threads.emplace_back([&, k] {
      const core::CityMeshNetwork net{compiled, config};
      start.arrive_and_wait();
      for (const auto& [from, to] : pairs) routes[k].push_back(net.planner().plan(from, to));
    });
  }
  for (std::thread& t : threads) t.join();

  const core::RoutePlanner lone{compiled->map, config.conduit};
  std::size_t found = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto expected = lone.plan(pairs[i].first, pairs[i].second);
    found += expected.has_value() ? 1 : 0;
    for (std::size_t k = 0; k < kThreads; ++k) {
      ASSERT_EQ(routes[k][i].has_value(), expected.has_value()) << k << ' ' << i;
      if (!expected) continue;
      EXPECT_EQ(routes[k][i]->buildings, expected->buildings) << k << ' ' << i;
      EXPECT_EQ(routes[k][i]->waypoints, expected->waypoints) << k << ' ' << i;
    }
  }
  EXPECT_GT(found, pairs.size() / 2);
  EXPECT_FALSE(compiled->map.landmarks().empty());
}

// ------------------------------------------------- pinned event sequence ---

namespace {

/// Three 10x10 buildings at x = 0/40/80 (same construction as
/// tests/test_obsx.cpp): density 1/100 gives exactly one AP per building and
/// 55 m range chains them into a guaranteed line 0-1-2.
osmx::City three_building_city() {
  osmx::City city{"three", {{0, 0}, {90, 10}}};
  city.add_building(geo::Polygon::rectangle({{0, 0}, {10, 10}}));
  city.add_building(geo::Polygon::rectangle({{40, 0}, {50, 10}}));
  city.add_building(geo::Polygon::rectangle({{80, 0}, {90, 10}}));
  return city;
}

core::NetworkConfig deterministic_config() {
  core::NetworkConfig cfg;
  cfg.placement.density_per_m2 = 1.0 / 100.0;
  cfg.placement.transmission_range_m = 55.0;
  cfg.placement.seed = 3;
  cfg.medium.jitter_s = 0.0;
  cfg.medium.prop_delay_s_per_m = 0.0;
  cfg.medium.tx_delay_s = 1e-3;
  return cfg;
}

}  // namespace

// Pins the exact trace kinds/order of a 3-AP line delivery. This sequence
// was recorded on the pre-compile per-reception pipeline and must never
// change: the refactor moves *when* decode/geometry work happens, not what
// the protocol does or in which order events fire.
// A city compiled on the caller's CPUs (core::CompiledCity, graphx/
// parallel.hpp): on a thread pinned to one CPU, the building graph and the
// AP network are built one after the other there, with no thread started;
// on a thread allowed several, the building graph goes to a worker and the
// AP sweeps run in bands. Each thread sets its own affinity. The graphs,
// CSR order and weights included, and their components are identical, for
// fig10's metro-xxl rung (large enough for banded sweeps) under the disc
// and the shadowed link models.
TEST(CompiledCityThreads, OneCpuAndSeveralCompileIdenticalGraphs) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ASSERT_EQ(sched_getaffinity(0, sizeof allowed, &allowed), 0);
  const int several = CPU_COUNT(&allowed);
  int first_cpu = 0;
  while (!CPU_ISSET(first_cpu, &allowed)) ++first_cpu;
  osmx::CityProfile profile;
  profile.name = "metro-xxl";
  profile.width_m = 4200;
  profile.height_m = 3100;
  profile.seed = 101;
  const osmx::City city = osmx::generate_city(profile);
  const auto compile_on = [&](bool pinned, mesh::LinkModel model) {
    std::shared_ptr<const core::CompiledCity> out;
    std::thread{[&] {
      cpu_set_t set = allowed;
      if (pinned) {
        CPU_ZERO(&set);
        CPU_SET(first_cpu, &set);
      }
      ASSERT_EQ(sched_setaffinity(0, sizeof set, &set), 0);
      core::NetworkConfig cfg;
      cfg.placement.seed = 7;
      cfg.placement.density_per_m2 = 1.0 / 60.0;
      cfg.placement.link_model = model;
      out = core::compile_city(city, cfg);
    }}.join();
    return out;
  };
  for (const auto model : {mesh::LinkModel::kDisc, mesh::LinkModel::kShadowed}) {
    const auto one = compile_on(true, model);
    const auto many = compile_on(false, model);
    ASSERT_TRUE(one && many);
    EXPECT_EQ(one->compile_cpus, 1u);
    EXPECT_EQ(many->compile_cpus, static_cast<std::size_t>(several));
    EXPECT_GT(one->aps.ap_count(), 2 * graphx::LinkBuilder::kMinBandItems);
    EXPECT_EQ(link_reference::fingerprint(many->aps.graph(), many->aps.positions()),
              link_reference::fingerprint(one->aps.graph(), one->aps.positions()));
    EXPECT_EQ(many->aps.components().component_of, one->aps.components().component_of);
    EXPECT_EQ(link_reference::fingerprint_by(many->map.graph(),
                                             link_reference::building_weights(many->map)),
              link_reference::fingerprint_by(one->map.graph(),
                                             link_reference::building_weights(one->map)));
    EXPECT_EQ(link_reference::fingerprint(many->map.planning_graph()),
              link_reference::fingerprint(one->map.planning_graph()));
    for (core::BuildingId b = 1; b < one->map.building_count(); ++b) {
      ASSERT_EQ(many->map.connected(0, b), one->map.connected(0, b)) << b;
    }
  }
}

TEST(CompiledPinned, ThreeApEventSequenceIdenticalToLegacyPipeline) {
  const auto city = three_building_city();
  core::CityMeshNetwork net{city, deterministic_config()};
  ASSERT_EQ(net.aps().ap_count(), 3u);

  const auto keys = cryptox::KeyPair::from_seed(11);
  const auto info = core::PostboxInfo::for_key(keys, 2);
  ASSERT_NE(net.register_postbox(info), nullptr);

  net.set_tracing(true);
  const auto outcome = net.send(0, info, bytes_of("ping"));
  ASSERT_TRUE(outcome.delivered);

  using K = obsx::TraceKind;
  const std::vector<std::pair<K, std::uint32_t>> expected{
      {K::kOriginate, 0}, {K::kTx, 0},
      {K::kRx, 1},        {K::kRebroadcast, 1}, {K::kTx, 1},
      {K::kRx, 0},        {K::kDupSuppressed, 0},
      {K::kRx, 2},        {K::kPostboxStore, 2}, {K::kRebroadcast, 2}, {K::kTx, 2},
      {K::kRx, 1},        {K::kDupSuppressed, 1},
  };
  const auto events = net.merged_trace_events();
  ASSERT_EQ(events.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(events[i].kind, expected[i].first) << "event " << i;
    EXPECT_EQ(events[i].node, expected[i].second) << "event " << i;
  }
  // One distinct message end to end: one decode, one compile, receptions > 1.
  EXPECT_EQ(net.compiler().header_decodes(), 1u);
  EXPECT_EQ(net.compiler().msg_compiles(), 1u);
  // Four receptions; the two fresh ones away from the source ran the
  // membership test (the source's own copy at originate is not a reception).
  const auto counters = net.merged_metrics().counters;
  EXPECT_EQ(counters.at("medium.deliveries"), 4u);
  EXPECT_EQ(counters.at("net.rebroadcasts") + counters.at("net.conduit_rejects"), 2u);
}

// ------------------------------------------ compress_route optimization ---

namespace {

/// Reference implementation: the pre-optimization compress_route verbatim
/// (per-k centroid fetch, no bbox early reject). The optimized version must
/// return identical waypoints on every input.
std::vector<core::BuildingId> compress_route_reference(
    const std::vector<core::BuildingId>& route, const core::BuildingGraph& map,
    const core::ConduitConfig& config) {
  if (route.size() <= 1) return route;
  std::vector<core::BuildingId> waypoints;
  waypoints.push_back(route.front());
  std::size_t i = 0;
  while (i + 1 < route.size()) {
    const geo::Point start = map.centroid(route[i]);
    std::size_t best = i + 1;
    for (std::size_t j = i + 2; j < route.size(); ++j) {
      const geo::OrientedRect conduit{start, map.centroid(route[j]), config.width_m};
      bool covers = true;
      for (std::size_t k = i + 1; k < j; ++k) {
        if (!conduit.contains(map.centroid(route[k]))) {
          covers = false;
          break;
        }
      }
      if (covers) best = j;
    }
    waypoints.push_back(route[best]);
    i = best;
  }
  return waypoints;
}

}  // namespace

TEST(CompressRoute, OptimizedMatchesReferenceOnRandomRoutes) {
  const auto city = test_city("compiled-c", 303);
  const core::BuildingGraph map{city, {}};
  const core::RoutePlanner planner{map, {}};
  const auto n = map.building_count();
  geo::Rng rng{77};
  std::size_t routes_checked = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const auto a = static_cast<core::BuildingId>(rng.uniform_int(n));
    const auto b = static_cast<core::BuildingId>(rng.uniform_int(n));
    const auto planned = planner.plan_uncompressed(a, b);
    if (!planned) continue;
    for (const double width : {30.0, 50.0, 100.0}) {
      const core::ConduitConfig cfg{width};
      EXPECT_EQ(core::compress_route(planned->buildings, map, cfg),
                compress_route_reference(planned->buildings, map, cfg))
          << "route " << a << "->" << b << " width " << width;
    }
    ++routes_checked;
  }
  EXPECT_GE(routes_checked, 10u);
}

// ----------------------------------------------------------- trace kind ---

TEST(CompiledTrace, MalformedKindRoundTripsThroughJsonl) {
  obsx::TraceEvent e;
  e.time_s = 1.5;
  e.node = 4;
  e.packet = 9;
  e.kind = obsx::TraceKind::kMalformed;
  const std::string line = obsx::trace_line(e);
  EXPECT_NE(line.find("malformed"), std::string::npos);
  std::string error;
  const auto back = obsx::parse_trace_line(line, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(*back, e);
}

// ---------------------------------------------------- settled duplicates ---

// An untraced run settles provable duplicate receptions at fan-out instead
// of queueing them (CityMeshNetwork::Shard::settle). Tracing is the off
// switch: a traced run queues and records every reception, so each test
// below runs the same inputs traced and untraced and requires the same
// merged metrics, flow records and event counts.
namespace {

/// Everything a run reports that settling must not change.
struct RunRecord {
  std::string metrics;
  std::vector<core::FlowState> flows;
  std::size_t events = 0;   ///< run_until's returns, summed
  std::size_t settled = 0;  ///< receptions settled at fan-out
  std::size_t blocked = 0;  ///< receptions dropped at a down receiver
};

/// A network with every flow of `schedule` injected by a control event at
/// its start, declared `what`; every other flow asks for an ack to a
/// postbox in its source building. The message ids land in `ids`, which
/// must outlive the run.
std::unique_ptr<core::CityMeshNetwork> load_network(
    const std::shared_ptr<const core::CompiledCity>& compiled, const core::NetworkConfig& cfg,
    const trafficx::FlowSchedule& schedule, bool traced, std::vector<std::uint32_t>& ids,
    core::ControlClass what = core::ControlClass::kAny) {
  auto net = std::make_unique<core::CityMeshNetwork>(compiled, cfg);
  net->set_tracing(traced);
  ids.assign(schedule.flows.size(), 0);
  for (std::size_t i = 0; i < schedule.flows.size(); ++i) {
    const trafficx::Flow& flow = schedule.flows[i];
    const auto to =
        core::PostboxInfo::for_key(cryptox::KeyPair::from_seed(500 + flow.dst), flow.dst);
    const auto back =
        core::PostboxInfo::for_key(cryptox::KeyPair::from_seed(900 + flow.src), flow.src);
    net->register_postbox(to);
    net->register_postbox(back);
    core::SendOptions opts;
    if (i % 2 == 1) {
      opts.request_ack = true;
      opts.ack_to = back;
    }
    core::CityMeshNetwork* n = net.get();
    net->schedule_control(
        flow.start_s,
        [n, &ids, &flow, to, opts, i] {
          const std::vector<std::uint8_t> payload(flow.payload_bytes, 0x42);
          ids[i] = n->inject(flow.src, to, payload, opts).message_id;
        },
        what);
  }
  return net;
}

RunRecord record(const core::CityMeshNetwork& net, const std::vector<std::uint32_t>& ids,
                 std::size_t events) {
  RunRecord r;
  const obsx::MetricsSnapshot metrics = net.merged_metrics();
  r.metrics = metrics.to_json();
  for (const std::uint32_t id : ids) {
    if (id == 0) continue;
    const core::FlowState* state = net.flow_state(id);
    if (state != nullptr) r.flows.push_back(*state);
    if (state != nullptr && state->ack_message_id != 0) {
      if (const core::FlowState* ack = net.flow_state(state->ack_message_id)) {
        r.flows.push_back(*ack);
      }
    }
  }
  r.events = events;
  r.settled = net.medium_totals().settled;
  r.blocked = metrics.counters.at("medium.blocked_receptions");
  return r;
}

void expect_same_run(const RunRecord& traced, const RunRecord& untraced,
                     const std::string& label) {
  EXPECT_EQ(untraced.metrics, traced.metrics) << label;
  EXPECT_EQ(untraced.events, traced.events) << label;
  ASSERT_EQ(untraced.flows.size(), traced.flows.size()) << label;
  for (std::size_t i = 0; i < traced.flows.size(); ++i) {
    const core::FlowState& a = traced.flows[i];
    const core::FlowState& b = untraced.flows[i];
    const std::string at = label + " flow " + std::to_string(i);
    EXPECT_EQ(b.injected_at_s, a.injected_at_s) << at;
    EXPECT_EQ(b.source_ap, a.source_ap) << at;
    EXPECT_EQ(b.delivered, a.delivered) << at;
    EXPECT_EQ(b.delivery_time_s, a.delivery_time_s) << at;
    EXPECT_EQ(b.postboxes_reached, a.postboxes_reached) << at;
    EXPECT_EQ(b.transmissions, a.transmissions) << at;
    EXPECT_EQ(b.ack_message_id, a.ack_message_id) << at;
    EXPECT_EQ(b.ack_received, a.ack_received) << at;
  }
}

/// Run `schedule` traced and untraced, driving each network through
/// `drive` (which returns the summed run_until event counts).
using Drive = std::function<std::size_t(core::CityMeshNetwork&)>;
std::pair<RunRecord, RunRecord> traced_and_untraced(
    const std::shared_ptr<const core::CompiledCity>& compiled, const core::NetworkConfig& cfg,
    const trafficx::FlowSchedule& schedule, const Drive& drive) {
  std::vector<std::uint32_t> ids;
  auto traced = load_network(compiled, cfg, schedule, /*traced=*/true, ids);
  const std::size_t traced_events = drive(*traced);
  const RunRecord a = record(*traced, ids, traced_events);
  auto untraced = load_network(compiled, cfg, schedule, /*traced=*/false, ids);
  const std::size_t untraced_events = drive(*untraced);
  return {a, record(*untraced, ids, untraced_events)};
}

osmx::City settle_town(std::uint64_t seed, double w, double h) {
  osmx::CityProfile p;
  p.name = "settle-town-" + std::to_string(seed);
  p.width_m = w;
  p.height_m = h;
  p.park_fraction = 0.0;
  p.seed = seed;
  return osmx::generate_city(p);
}

core::NetworkConfig settle_config(std::size_t shards) {
  core::NetworkConfig cfg;
  cfg.placement.density_per_m2 = 1.0 / 60.0;
  cfg.placement.seed = 5;
  cfg.medium.jitter_s = 0.0;
  cfg.medium.loss_probability = 0.0;
  cfg.medium.bitrate_bps = 250'000.0;
  cfg.trace_capacity = std::size_t{1} << 18;
  cfg.shards = shards;
  return cfg;
}

trafficx::FlowSchedule settle_schedule(const osmx::City& city, std::uint64_t seed,
                                       double duration_s, double rate_per_s) {
  trafficx::WorkloadSpec spec;
  spec.seed = seed;
  spec.duration_s = duration_s;
  spec.rate_per_s = rate_per_s;
  spec.payload_min_bytes = 64;
  spec.payload_max_bytes = 128;
  return trafficx::compile(spec, city);
}

}  // namespace

// A pinned town where jitter reorders arrivals: some AP hears a later
// transmission before an earlier one, so a later fan-out supersedes the
// first-arrival entry the earlier one wrote. The entry must always name the
// true first arrival, which is never settled: a town-wide geo-broadcast
// stores into a postbox in every building at that building's first
// arrival, and those times, like every counter, match the traced run.
TEST(SettledDuplicates, LaterFanOutSupersedesTheFirstArrival) {
  core::NetworkConfig cfg = settle_config(1);
  cfg.medium.jitter_s = 5e-3;
  cfg.medium.bitrate_bps = 0.0;
  const auto compiled = core::compile_city(settle_town(71, 500, 400), cfg);
  const auto buildings = static_cast<core::BuildingId>(compiled->city.building_count());
  struct Flood {
    RunRecord run;
    std::vector<double> stored_at;  ///< per building; -1 when nothing stored
    std::vector<obsx::TraceEvent> events;
  };
  const auto flood = [&](bool traced) {
    core::CityMeshNetwork net{compiled, cfg};
    net.set_tracing(traced);
    std::vector<std::shared_ptr<core::Postbox>> boxes;
    for (core::BuildingId b = 0; b < buildings; ++b) {
      boxes.push_back(net.register_postbox(
          core::PostboxInfo::for_key(cryptox::KeyPair::from_seed(100 + b), b)));
    }
    const core::BroadcastOutcome out =
        net.broadcast(0, buildings / 2, 1000.0, bytes_of("supersede"));
    EXPECT_GT(out.postboxes_reached, 10u);
    Flood f;
    f.run = record(net, {}, net.medium_totals().deliveries);
    for (const auto& box : boxes) {
      double at = -1.0;
      if (box != nullptr) {
        for (const core::StoredMessage& m : box->retrieve()) at = m.stored_at_s;
      }
      f.stored_at.push_back(at);
    }
    if (traced) f.events = net.merged_trace_events();
    return f;
  };
  const Flood traced = flood(true);
  const Flood untraced = flood(false);
  expect_same_run(traced.run, untraced.run, "supersede");
  EXPECT_EQ(untraced.stored_at, traced.stored_at);
  EXPECT_EQ(traced.run.settled, 0u);
  EXPECT_GT(untraced.run.settled, 0u);
  const std::vector<obsx::TraceEvent>& events = traced.events;

  // Replay the first-arrival table from the traced timeline. Per receiver,
  // walk its receptions in fan-out (kTx) order up to its first arrival;
  // a fan-out whose arrival beats every earlier one's supersedes the entry.
  // The first kTx is the source's own transmission, made before the run
  // starts, so it writes no entry.
  std::map<std::uint32_t, double> tx_time;
  std::map<std::uint32_t, std::vector<std::pair<double, double>>> arrivals;  // rx -> (tx, rx)
  std::map<std::uint32_t, double> first_rx;
  bool source = true;
  for (const obsx::TraceEvent& e : events) {
    if (e.kind == obsx::TraceKind::kTx) {
      if (!source) tx_time.emplace(e.node, e.time_s);
      source = false;
    } else if (e.kind == obsx::TraceKind::kRx) {
      first_rx.emplace(e.node, e.time_s);
      if (const auto it = tx_time.find(e.payload.peer); it != tx_time.end()) {
        arrivals[e.node].emplace_back(it->second, e.time_s);
      }
    }
  }
  std::size_t supersedes = 0;
  for (auto& [node, list] : arrivals) {
    std::sort(list.begin(), list.end());
    double entry = std::numeric_limits<double>::infinity();
    for (const auto& [tx, rx] : list) {
      if (tx >= first_rx.at(node)) break;
      if (entry < std::numeric_limits<double>::infinity() && rx < entry) ++supersedes;
      entry = std::min(entry, rx);
    }
  }
  EXPECT_GT(supersedes, 0u);
}

// The property: over random small towns, every relay policy and protocol,
// K = 1, 2, 4, with loss and jitter off and on, the untraced run's merged
// metrics, flow records (acks included) and event counts equal the traced
// run's. Only conduit flood settles anything.
TEST(SettledDuplicates, UntracedRunsMatchTracedOnesAcrossTheGrid) {
  std::size_t settling_runs = 0;
  for (const std::uint64_t town : {std::uint64_t{41}, std::uint64_t{42}}) {
    const auto compiled = core::compile_city(settle_town(town, 450, 350), settle_config(1));
    const trafficx::FlowSchedule schedule =
        settle_schedule(compiled->city, town * 7, 1.5, 4.0);
    ASSERT_GE(schedule.flows.size(), 3u);
    for (const auto protocol : {core::Protocol::kConduit, core::Protocol::kQfgeo}) {
      for (const auto policy : {relayx::PolicyKind::kFlood, relayx::PolicyKind::kBuildingBackoff,
                                relayx::PolicyKind::kEtxPriority}) {
        for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
          for (const bool draws : {false, true}) {
            core::NetworkConfig cfg = settle_config(shards);
            cfg.protocol = protocol;
            cfg.relay.kind = policy;
            if (draws) {
              cfg.medium.jitter_s = 2e-3;
              cfg.medium.loss_probability = 0.1;
            }
            const std::string label =
                "town " + std::to_string(town) + " " + std::string{core::to_string(protocol)} +
                " " + std::string{relayx::to_string(policy)} + " K=" + std::to_string(shards) +
                (draws ? " draws" : " draw-free");
            const auto [traced, untraced] = traced_and_untraced(
                compiled, cfg, schedule,
                [](core::CityMeshNetwork& net) { return net.run_until(10.0); });
            expect_same_run(traced, untraced, label);
            EXPECT_EQ(traced.settled, 0u) << label;
            const bool settles =
                protocol == core::Protocol::kConduit && policy == relayx::PolicyKind::kFlood;
            if (settles) {
              EXPECT_GT(untraced.settled, 0u) << label;
              ++settling_runs;
            } else {
              EXPECT_EQ(untraced.settled, 0u) << label;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(settling_runs, 12u);
}

// ------------------------------------------------------------ horizons ---

// A blackout that lands mid-flood as a control event, and its restoration:
// receptions due after either are never settled on the pre-event state.
TEST(SettledDuplicates, LiveBlackoutMidFloodMatchesTracedRun) {
  const auto compiled = core::compile_city(settle_town(43, 600, 450), settle_config(1));
  const trafficx::FlowSchedule schedule = settle_schedule(compiled->city, 5, 0.5, 6.0);
  ASSERT_GE(schedule.flows.size(), 1u);
  const double first = schedule.flows.front().start_s;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    const auto drive = [&](core::CityMeshNetwork& net) {
      const auto blackout = [&net](core::ApStatus status) {
        for (const mesh::AccessPoint& ap : net.aps().aps()) {
          if (ap.position.x < 300.0) net.set_ap_status(ap.id, status);
        }
      };
      net.schedule_control(first + 0.008, [=] { blackout(core::ApStatus::kDown); });
      net.schedule_control(first + 0.020, [=] { blackout(core::ApStatus::kUp); });
      return net.run_until(10.0);
    };
    const auto [traced, untraced] =
        traced_and_untraced(compiled, settle_config(shards), schedule, drive);
    const std::string label = "K=" + std::to_string(shards);
    expect_same_run(traced, untraced, label);
    EXPECT_GT(traced.blocked, 0u) << label;  // the blackout cut into a flood
    EXPECT_GT(untraced.settled, 0u) << label;
  }
}

// AP status flipped by the caller between two run_until calls: the first
// call's horizon is its `until`, so nothing due after it was settled.
TEST(SettledDuplicates, StatusFlipBetweenRunsMatchesTracedRun) {
  const auto compiled = core::compile_city(settle_town(44, 600, 450), settle_config(1));
  const trafficx::FlowSchedule schedule = settle_schedule(compiled->city, 6, 0.5, 6.0);
  ASSERT_GE(schedule.flows.size(), 1u);
  const double first = schedule.flows.front().start_s;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    const auto drive = [&](core::CityMeshNetwork& net) {
      const auto flip = [&net](core::ApStatus status) {
        for (const mesh::AccessPoint& ap : net.aps().aps()) {
          if (ap.position.x < 300.0) net.set_ap_status(ap.id, status);
        }
      };
      std::size_t events = net.run_until(first + 0.008);
      flip(core::ApStatus::kDown);
      events += net.run_until(first + 0.020);
      flip(core::ApStatus::kUp);
      return events + net.run_until(10.0);
    };
    const auto [traced, untraced] =
        traced_and_untraced(compiled, settle_config(shards), schedule, drive);
    const std::string label = "K=" + std::to_string(shards);
    expect_same_run(traced, untraced, label);
    EXPECT_GT(traced.blocked, 0u) << label;
    EXPECT_GT(untraced.settled, 0u) << label;
  }
}

// A run cut by max_events: settled receptions are charged to the budget
// when they are settled, at fan-out, so the cut lands after at most one
// fan-out's worth of settled receptions past the budget, and it may count
// receptions due after the cut. Resumed with nothing changed in between,
// the run finishes exactly where the uncut traced run does.
TEST(SettledDuplicates, MaxEventsCutChargesSettledReceptionsAtFanOut) {
  const auto compiled = core::compile_city(settle_town(45, 450, 350), settle_config(1));
  const trafficx::FlowSchedule schedule = settle_schedule(compiled->city, 8, 1.0, 4.0);
  std::size_t max_degree = 0;
  for (mesh::ApId ap = 0; ap < compiled->aps.ap_count(); ++ap) {
    max_degree = std::max(max_degree, compiled->aps.graph().neighbors(ap).size());
  }
  const std::size_t budget = 2000;
  // Injections declared kInjection leave the settle horizon open across
  // them, so the cut lands in a window whose horizon spans later
  // injections.
  for (const auto what : {core::ControlClass::kAny, core::ControlClass::kInjection}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
      const std::string label = "K=" + std::to_string(shards) +
                                (what == core::ControlClass::kAny ? " any" : " injection");
      std::vector<std::uint32_t> ids;
      auto uncut = load_network(compiled, settle_config(shards), schedule, true, ids, what);
      const RunRecord whole = record(*uncut, ids, uncut->run_until(10.0));
      ASSERT_GT(whole.events, 2 * budget) << label;

      auto cut = load_network(compiled, settle_config(shards), schedule, false, ids, what);
      const std::size_t first = cut->run_until(10.0, budget);
      EXPECT_GE(first, budget) << label;
      // One window per tile may overshoot by one fan-out of settled receptions.
      EXPECT_LT(first, budget + shards * max_degree) << label;
      EXPECT_GT(cut->medium_totals().settled, 0u) << label;
      const std::size_t rest = cut->run_until(10.0);
      expect_same_run(whole, record(*cut, ids, first + rest), label);
    }
  }
}

// A run cut by max_events, then an AP status flip before it resumes: the
// down APs miss receptions queued before the cut, some of them named by
// first-arrival entries. The cut counts settled receptions ahead of their
// arrival, and the flip
// may make some of them blocked ones, so the counters of receptions differ
// by design; what the protocol did must not: flow records, transmissions,
// rebroadcasts, conduit rejects and postbox stores. Both networks first
// finish every event due by the first one the cut left (or by `until`), so
// they flip in the same state: a traced twin cut after the untraced run's
// queued events would stop short of receptions the untraced one settled.
TEST(SettledDuplicates, StatusFlipAfterMaxEventsCutMatchesTracedOutcomes) {
  const core::NetworkConfig cfg = settle_config(1);
  const auto compiled = core::compile_city(settle_town(49, 600, 450), cfg);
  const trafficx::FlowSchedule schedule = settle_schedule(compiled->city, 12, 0.4, 10.0);
  ASSERT_GE(schedule.flows.size(), 2u);
  const double until = schedule.flows.front().start_s + 0.02;
  const auto flip = [](core::CityMeshNetwork& net, core::ApStatus status) {
    for (const mesh::AccessPoint& ap : net.aps().aps()) {
      if (ap.position.x > 300.0) net.set_ap_status(ap.id, status);
    }
  };
  const auto finish = [&](core::CityMeshNetwork& net) {
    flip(net, core::ApStatus::kDown);
    net.run_until(until + 0.01);
    flip(net, core::ApStatus::kUp);
    net.run_until(10.0);
  };
  std::size_t cut_runs = 0;
  for (const std::size_t budget : {50, 100, 200, 400, 800, 1600}) {
    const std::string label = "budget " + std::to_string(budget);
    std::vector<std::uint32_t> untraced_ids;
    std::vector<std::uint32_t> traced_ids;
    auto untraced = load_network(compiled, cfg, schedule, false, untraced_ids);
    untraced->run_until(until, budget);
    const double resume = std::min(untraced->next_event_time(), until);
    auto traced = load_network(compiled, cfg, schedule, true, traced_ids);
    for (core::CityMeshNetwork* net : {untraced.get(), traced.get()}) {
      net->run_until(resume);
      finish(*net);
    }

    const RunRecord a = record(*traced, traced_ids, 0);
    const RunRecord b = record(*untraced, untraced_ids, 0);
    ASSERT_EQ(b.flows.size(), a.flows.size()) << label;
    for (std::size_t i = 0; i < a.flows.size(); ++i) {
      EXPECT_EQ(b.flows[i].delivered, a.flows[i].delivered) << label << " flow " << i;
      EXPECT_EQ(b.flows[i].delivery_time_s, a.flows[i].delivery_time_s) << label << " flow " << i;
      EXPECT_EQ(b.flows[i].postboxes_reached, a.flows[i].postboxes_reached) << label;
      EXPECT_EQ(b.flows[i].transmissions, a.flows[i].transmissions) << label << " flow " << i;
    }
    const obsx::MetricsSnapshot ma = traced->merged_metrics();
    const obsx::MetricsSnapshot mb = untraced->merged_metrics();
    for (const char* key : {"medium.transmissions", "net.rebroadcasts", "net.conduit_rejects",
                            "net.postbox_stores", "net.delivered"}) {
      EXPECT_EQ(mb.counters.at(key), ma.counters.at(key)) << label << " " << key;
    }
    if (a.blocked > 0 && b.settled > 0) ++cut_runs;
  }
  EXPECT_GT(cut_runs, 0u);
}

// The case where a first-arrival entry goes stale and a later fan-out reads
// it. A run is cut by max_events after fan-outs queued receptions due after
// the cut and wrote their entries (its horizon is far off, so they do). The
// cut run and a traced twin then both finish every event due by the first
// one left, and every other AP goes down for longer than any airtime: the
// receptions queued before the cut meet down receivers, are blocked, and
// mark nothing seen, while the flood goes on through the APs still up. Back
// up, such an AP still holds its entry, due before now; the flood's later
// fan-outs reach it, and it must queue them, not settle them on that entry,
// so that it accepts the message and floods it on as the traced twin does.
TEST(SettledDuplicates, StaleEntryAfterMaxEventsCutAndFlipIsNotTrusted) {
  core::NetworkConfig cfg = settle_config(1);
  cfg.conduit.width_m = 150.0;
  const auto compiled = core::compile_city(settle_town(50, 600, 450), cfg);
  const trafficx::FlowSchedule schedule = settle_schedule(compiled->city, 13, 0.2, 5.0);
  ASSERT_GE(schedule.flows.size(), 1u);
  const auto flip = [](core::CityMeshNetwork& net, core::ApStatus status) {
    for (const mesh::AccessPoint& ap : net.aps().aps()) {
      if (ap.id % 2 == 0) net.set_ap_status(ap.id, status);
    }
  };
  std::size_t stale_runs = 0;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    cfg.shards = shards;
    for (const std::size_t budget : {400, 800, 1600, 3200}) {
      const std::string label = "K=" + std::to_string(shards) + " budget " + std::to_string(budget);
      std::vector<std::uint32_t> untraced_ids;
      std::vector<std::uint32_t> traced_ids;
      auto untraced = load_network(compiled, cfg, schedule, false, untraced_ids);
      untraced->run_until(10.0, budget);
      const double resume = untraced->next_event_time();
      ASSERT_LT(resume, 10.0) << label;
      auto traced = load_network(compiled, cfg, schedule, true, traced_ids);
      for (core::CityMeshNetwork* net : {untraced.get(), traced.get()}) {
        net->run_until(resume);
        flip(*net, core::ApStatus::kDown);
        net->run_until(resume + 0.01);
        flip(*net, core::ApStatus::kUp);
        net->run_until(10.0);
      }
      const RunRecord a = record(*traced, traced_ids, 0);
      const RunRecord b = record(*untraced, untraced_ids, 0);
      ASSERT_EQ(b.flows.size(), a.flows.size()) << label;
      for (std::size_t i = 0; i < a.flows.size(); ++i) {
        EXPECT_EQ(b.flows[i].delivered, a.flows[i].delivered) << label << " flow " << i;
        EXPECT_EQ(b.flows[i].delivery_time_s, a.flows[i].delivery_time_s) << label;
        EXPECT_EQ(b.flows[i].transmissions, a.flows[i].transmissions) << label << " flow " << i;
      }
      const obsx::MetricsSnapshot ma = traced->merged_metrics();
      const obsx::MetricsSnapshot mb = untraced->merged_metrics();
      for (const char* key : {"medium.transmissions", "net.rebroadcasts", "net.conduit_rejects",
                              "net.postbox_stores", "net.delivered"}) {
        EXPECT_EQ(mb.counters.at(key), ma.counters.at(key)) << label << " " << key;
      }
      // The flip blocked receptions, and the flood went on past it.
      if (a.blocked > 0 && b.settled > 0 && ma.counters.at("net.rebroadcasts") > 0) ++stale_runs;
    }
  }
  EXPECT_GT(stale_runs, 0u);
}

// Two floods cross the same town at once, from opposite corners, so nearly
// every AP hears both messages interleaved and its one first-arrival entry
// keeps being overwritten by the other message's. A lost entry may only
// queue a reception: the run still matches the traced one, and settles.
TEST(SettledDuplicates, AlternatingMessagesOverwriteTheFirstArrivalEntries) {
  core::NetworkConfig base = settle_config(1);
  base.medium.bitrate_bps = 0.0;
  base.medium.jitter_s = 3e-3;
  base.conduit.width_m = 150.0;
  const auto compiled = core::compile_city(settle_town(46, 420, 160), base);
  const auto buildings = static_cast<core::BuildingId>(compiled->city.building_count());
  ASSERT_GE(buildings, 4u);
  // West-most and east-most buildings by centroid.
  core::BuildingId west = 0;
  core::BuildingId east = 0;
  for (core::BuildingId b = 0; b < buildings; ++b) {
    if (compiled->city.building(b).centroid.x < compiled->city.building(west).centroid.x) west = b;
    if (compiled->city.building(b).centroid.x > compiled->city.building(east).centroid.x) east = b;
  }
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    core::NetworkConfig cfg = base;
    cfg.shards = shards;
    const std::string label = "K=" + std::to_string(shards);
    const auto run = [&](bool traced) {
      core::CityMeshNetwork net{compiled, cfg};
      net.set_tracing(traced);
      const auto to_east = core::PostboxInfo::for_key(cryptox::KeyPair::from_seed(61), east);
      const auto to_west = core::PostboxInfo::for_key(cryptox::KeyPair::from_seed(62), west);
      net.register_postbox(to_east);
      net.register_postbox(to_west);
      std::vector<std::uint32_t> ids(4, 0);
      // Two rounds of the crossing pair, the second while the first floods.
      for (std::size_t round = 0; round < 2; ++round) {
        const double at = 0.01 + 0.004 * static_cast<double>(round);
        net.schedule_control(
            at,
            [&net, &ids, round, west, to_east] {
              ids[2 * round] = net.inject(west, to_east, bytes_of("eastbound")).message_id;
            },
            core::ControlClass::kInjection);
        net.schedule_control(
            at,
            [&net, &ids, round, east, to_west] {
              ids[2 * round + 1] = net.inject(east, to_west, bytes_of("westbound")).message_id;
            },
            core::ControlClass::kInjection);
      }
      const std::size_t events = net.run_until(10.0);
      std::vector<obsx::TraceEvent> trace;
      if (traced) trace = net.merged_trace_events();
      return std::make_pair(record(net, ids, events), trace);
    };
    const auto [traced, trace] = run(true);
    const auto [untraced, no_trace] = run(false);
    expect_same_run(traced, untraced, label);
    EXPECT_GT(untraced.settled, 0u) << label;
    for (const core::FlowState& flow : traced.flows) EXPECT_TRUE(flow.delivered) << label;

    // Per AP, count the switches between messages in its reception
    // sequence: every switch is a reception of the other message, whose
    // fan-out found this AP's entry naming a different one.
    std::map<std::uint32_t, std::uint32_t> last;
    std::map<std::uint32_t, std::size_t> switches;
    for (const obsx::TraceEvent& e : trace) {
      if (e.kind != obsx::TraceKind::kRx) continue;
      const auto [it, fresh] = last.emplace(e.node, e.packet);
      if (!fresh && it->second != e.packet) {
        ++switches[e.node];
        it->second = e.packet;
      }
    }
    std::size_t alternating = 0;
    for (const auto& [node, n] : switches) alternating += n >= 3 ? 1 : 0;
    EXPECT_GT(alternating, last.size() / 2) << label;
  }
}

// A contended trafficx schedule through trafficx::run_workload, whose
// injections are declared kInjection: traced and untraced runs give
// byte-identical merged metrics and flow records at K = 1 and 2, and
// leaving the horizon open across injections settles more receptions.
TEST(SettledDuplicates, ContendedWorkloadMatchesTracedRunAcrossInjections) {
  core::NetworkConfig cfg = settle_config(1);
  cfg.medium.bitrate_bps = 12'500.0;
  cfg.medium.tx_queue_capacity = 2;
  const auto compiled = core::compile_city(settle_town(47, 500, 400), cfg);
  trafficx::FlowSchedule schedule = settle_schedule(compiled->city, 9, 2.0, 8.0);
  ASSERT_GE(schedule.flows.size(), 8u);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    cfg.shards = shards;
    const std::string label = "K=" + std::to_string(shards);
    const auto run = [&](bool traced) {
      core::CityMeshNetwork net{compiled, cfg};
      net.set_tracing(traced);
      trafficx::WorkloadResult result = trafficx::run_workload(net, schedule);
      return std::make_pair(std::move(result), net.medium_totals());
    };
    const auto [traced, traced_totals] = run(true);
    const auto [untraced, untraced_totals] = run(false);
    EXPECT_EQ(untraced.metrics.to_json(), traced.metrics.to_json()) << label;
    ASSERT_EQ(untraced.flows.size(), traced.flows.size()) << label;
    for (std::size_t i = 0; i < traced.flows.size(); ++i) {
      const core::FlowRecord& a = traced.flows[i];
      const core::FlowRecord& b = untraced.flows[i];
      const std::string at = label + " flow " + std::to_string(i);
      EXPECT_EQ(b.start_s, a.start_s) << at;
      EXPECT_EQ(b.payload_bytes, a.payload_bytes) << at;
      EXPECT_EQ(b.injected, a.injected) << at;
      EXPECT_EQ(b.delivered, a.delivered) << at;
      EXPECT_EQ(b.latency_s, a.latency_s) << at;
      EXPECT_EQ(b.transmissions, a.transmissions) << at;
      EXPECT_EQ(b.min_hops, a.min_hops) << at;
    }
    EXPECT_GT(untraced.summary.deferrals, 0u) << label;  // the medium is contended
    EXPECT_EQ(traced_totals.settled, 0u) << label;

    // The same load with every injection ending the horizon settles less.
    std::vector<std::uint32_t> ids;
    auto closed = load_network(compiled, cfg, schedule, false, ids, core::ControlClass::kAny);
    auto open = load_network(compiled, cfg, schedule, false, ids, core::ControlClass::kInjection);
    closed->run_until(10.0);
    open->run_until(10.0);
    EXPECT_GT(open->medium_totals().settled, closed->medium_totals().settled) << label;
    EXPECT_GT(untraced_totals.settled, 0u) << label;
  }
}

// An event declared kInjection promises to leave AP status, tracing and
// degraded regions alone; the network holds it to that.
TEST(SettledDuplicates, InjectionControlEventCannotChangeFaultState) {
  const auto compiled = core::compile_city(settle_town(48, 300, 200), settle_config(1));
  core::CityMeshNetwork net{compiled, settle_config(1)};
  const auto region = net.add_degraded_region(
      geo::Polygon::rectangle({{0.0, 0.0}, {100.0, 100.0}}), 0.5);
  const std::vector<std::function<void()>> forbidden = {
      [&] { net.set_ap_status(0, core::ApStatus::kDown); },
      [&] { net.set_tracing(true); },
      [&] { net.set_degraded_region_active(region, false); },
      [&] { net.add_degraded_region(geo::Polygon::rectangle({{0.0, 0.0}, {50.0, 50.0}}), 0.1); },
  };
  double at = 0.1;
  for (const auto& call : forbidden) {
    net.schedule_control(at, call, core::ControlClass::kInjection);
    EXPECT_THROW(net.run_until(at + 0.05), std::logic_error);
    at += 0.1;
  }
  EXPECT_TRUE(net.ap_up(0));
  EXPECT_FALSE(net.tracing_enabled());
  EXPECT_EQ(net.degraded_regions().size(), 1u);
  EXPECT_TRUE(net.degraded_regions()[0].active);
  // Declared kAny (the default), the same calls go through.
  net.schedule_control(at, [&] { net.set_ap_status(0, core::ApStatus::kDown); });
  net.run_until(at + 0.05);
  EXPECT_FALSE(net.ap_up(0));
  // So do they in a kAny event that a run nested inside an injection runs.
  at += 0.1;
  net.schedule_control(at + 0.02, [&] { net.set_ap_status(1, core::ApStatus::kDown); });
  net.schedule_control(at, [&] { net.run_until(at + 0.05); }, core::ControlClass::kInjection);
  EXPECT_NO_THROW(net.run_until(at + 0.1));
  EXPECT_FALSE(net.ap_up(1));
}
