// core::CompiledMessage / MessageCompiler: the compile-once packet hot path.
//
// The refactor's contract is behavioral identity: the precomputed member
// sets must equal the old per-reception predicates bit for bit (the free
// functions should_rebroadcast / in_broadcast_region are kept as the
// brute-force reference), the event stream of a flood must be unchanged,
// and malformed headers — including the corrupt-width case that used to
// throw out of the event loop — must become counted drops.
#include <gtest/gtest.h>

#include <latch>
#include <optional>
#include <sstream>
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
#include "wire/packet.hpp"
#include "lone_agent.hpp"

namespace core = citymesh::core;
namespace geo = citymesh::geo;
namespace obsx = citymesh::obsx;
namespace osmx = citymesh::osmx;
namespace wire = citymesh::wire;
namespace cryptox = citymesh::cryptox;

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
