// Tests for the QF-Geo protocol family (PR 8): bounded-region geometry
// (ellipse membership vs brute force), the deterministic greedy election
// arithmetic, live qfgeo delivery cross-checked against a graph-walk
// reference on draw-free topologies, local-minimum fallback flooding, the
// conduit path's byte-identity guarantees (no qfgeo.* metrics keys, sweep
// manifests unchanged by an explicit `protocol conduit` line), and sweep
// digest invariance across worker and shard counts with the protocol axis
// active.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "core/compiled_message.hpp"
#include "core/network.hpp"
#include "cryptox/identity.hpp"
#include "geo/rng.hpp"
#include "osmx/citygen.hpp"
#include "qfgeo/qfgeo.hpp"
#include "runx/city_cache.hpp"
#include "runx/sweep.hpp"

namespace core = citymesh::core;
namespace geo = citymesh::geo;
namespace mesh = citymesh::mesh;
namespace obsx = citymesh::obsx;
namespace osmx = citymesh::osmx;
namespace qfgeo = citymesh::qfgeo;
namespace runx = citymesh::runx;
namespace cryptox = citymesh::cryptox;

namespace {

std::span<const std::uint8_t> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

osmx::City qf_town(std::uint64_t seed = 21, double width_m = 900,
                   double height_m = 700) {
  osmx::CityProfile p;
  p.name = "qfgeo-town";
  p.width_m = width_m;
  p.height_m = height_m;
  p.park_fraction = 0.0;
  p.seed = seed;
  return osmx::generate_city(p);
}

/// Draw-free qfgeo network config: zero jitter + zero loss + flood relay, so
/// every forwarding election is a pure function of geometry and queue depth.
core::NetworkConfig qf_config() {
  core::NetworkConfig cfg;
  cfg.placement.density_per_m2 = 1.0 / 60.0;
  cfg.placement.seed = 5;
  cfg.medium.jitter_s = 0.0;
  cfg.medium.loss_probability = 0.0;
  cfg.protocol = core::Protocol::kQfgeo;
  return cfg;
}

}  // namespace

// ---------------------------------------------------------------- region ---

TEST(QfgeoRegion, ThresholdStretchesLongPairsAndFloorsShortOnes) {
  const qfgeo::RegionConfig cfg;  // stretch 1.25, slack 60
  // Long pair: the stretch term dominates.
  const auto wide = qfgeo::make_region({0, 0}, {1000, 0}, cfg);
  EXPECT_DOUBLE_EQ(wide.threshold_m, 1250.0);
  // Short pair: the slack floor keeps the region usable.
  const auto narrow = qfgeo::make_region({0, 0}, {40, 0}, cfg);
  EXPECT_DOUBLE_EQ(narrow.threshold_m, 160.0);
  // Foci are always inside; a point far off the chord is not.
  EXPECT_TRUE(wide.contains({0, 0}));
  EXPECT_TRUE(wide.contains({500, 100}));
  EXPECT_FALSE(wide.contains({500, 5000}));
  // The loose bounds are a superset of the ellipse.
  EXPECT_TRUE(wide.bounds().contains({500, 100}));
}

TEST(QfgeoRegion, MembershipMatchesBruteForceAcrossCitiesAndSeeds) {
  const qfgeo::RegionConfig region_cfg;
  for (const std::uint64_t city_seed : {21u, 22u, 23u}) {
    const osmx::City city = qf_town(city_seed);
    const core::BuildingGraph map{city, {}};
    geo::Rng rng{1000 + city_seed};
    for (int pair = 0; pair < 5; ++pair) {
      const auto a = static_cast<core::BuildingId>(
          rng.uniform_int(map.building_count()));
      const auto b = static_cast<core::BuildingId>(
          rng.uniform_int(map.building_count()));
      citymesh::wire::PacketHeader h;
      h.message_id = 77;
      h.waypoints = {a, b};
      const core::CompiledMessage msg =
          core::compile_message_qfgeo(h, map, region_cfg);
      ASSERT_FALSE(msg.malformed);
      ASSERT_TRUE(msg.waypoints_valid);

      const qfgeo::Region region =
          qfgeo::make_region(map.centroid(a), map.centroid(b), region_cfg);
      std::size_t brute_members = 0;
      for (core::BuildingId bld = 0; bld < map.building_count(); ++bld) {
        const bool inside = region.contains(map.centroid(bld));
        if (inside) ++brute_members;
        EXPECT_EQ(msg.conduit_member(bld), inside)
            << "city seed " << city_seed << " pair " << pair << " building "
            << bld;
      }
      EXPECT_EQ(msg.members.size(), brute_members);
      // Both endpoints are always in their own region.
      EXPECT_TRUE(msg.conduit_member(a));
      EXPECT_TRUE(msg.conduit_member(b));
    }
  }
}

TEST(QfgeoRegion, ForwardDelayOrdersByProgressAndQueue) {
  const qfgeo::ForwarderConfig cfg;
  // More progress (smaller my_dist) -> strictly earlier election.
  const double best = qfgeo::forward_delay(cfg, 455.0, 500.0, 0);
  const double good = qfgeo::forward_delay(cfg, 470.0, 500.0, 0);
  const double poor = qfgeo::forward_delay(cfg, 499.0, 500.0, 0);
  EXPECT_LT(best, good);
  EXPECT_LT(good, poor);
  EXPECT_GE(best, cfg.base_delay_s);
  EXPECT_LE(poor, cfg.max_delay_s);
  // A full hop of progress earns exactly the floor.
  EXPECT_DOUBLE_EQ(qfgeo::forward_delay(cfg, 450.0, 500.0, 0), cfg.base_delay_s);
  // Each queued packet pushes the election back by the capacity penalty —
  // enough to flip the order against a congested better-positioned AP.
  EXPECT_DOUBLE_EQ(qfgeo::forward_delay(cfg, 455.0, 500.0, 3),
                   best + 3 * cfg.capacity_penalty_s);
  EXPECT_GT(qfgeo::forward_delay(cfg, 455.0, 500.0, 6),
            qfgeo::forward_delay(cfg, 460.0, 500.0, 0));
}

// ------------------------------------------------------------- live qfgeo ---

namespace {

/// Deterministic single-walker greedy reference over the AP graph: from
/// `start`, repeatedly hop to the up, in-region neighbor strictly closer to
/// `dst`, picking the closest such neighbor. Mirrors the protocol's election
/// winner chain under draw-free settings; returns true when the walk reaches
/// an AP of `dst_building`.
bool greedy_walk_delivers(const core::CityMeshNetwork& net,
                          const qfgeo::Region& region, mesh::ApId start,
                          osmx::BuildingId dst_building, geo::Point dst) {
  const mesh::ApNetwork& aps = net.aps();
  mesh::ApId cur = start;
  for (std::size_t step = 0; step < aps.ap_count(); ++step) {
    if (aps.ap(cur).building == dst_building) return true;
    const double cur_d = geo::distance(aps.ap(cur).position, dst);
    std::optional<mesh::ApId> next;
    double next_d = cur_d;
    for (const auto& edge : aps.graph().neighbors(cur)) {
      const auto n = static_cast<mesh::ApId>(edge.to);
      if (!net.ap_up(n)) continue;
      if (!region.contains(net.map().centroid(aps.ap(n).building))) continue;
      const double d = geo::distance(aps.ap(n).position, dst);
      if (d < next_d) {
        next_d = d;
        next = n;
      }
    }
    if (!next) return false;  // local minimum
    cur = *next;
  }
  return false;
}

}  // namespace

TEST(QfgeoLive, DeliveryCoversGreedyWalkReference) {
  const osmx::City city = qf_town();
  const core::NetworkConfig cfg = qf_config();
  core::CityMeshNetwork net{city, cfg};

  geo::Rng rng{42};
  std::size_t walker_successes = 0;
  for (int pair = 0; pair < 12; ++pair) {
    const auto from = static_cast<osmx::BuildingId>(
        rng.uniform_int(city.building_count()));
    const auto to = static_cast<osmx::BuildingId>(
        rng.uniform_int(city.building_count()));
    if (from == to) continue;
    const auto src_ap = net.live_ap(from);
    if (!src_ap || !net.live_ap(to)) continue;

    const geo::Point dst = net.map().centroid(to);
    const qfgeo::Region region = qfgeo::make_region(
        net.map().centroid(from), dst, cfg.qfgeo_region);

    const auto keys = cryptox::KeyPair::from_seed(1000 + pair);
    const auto info = core::PostboxInfo::for_key(keys, to);
    ASSERT_NE(net.register_postbox(info), nullptr);
    const auto outcome = net.send(from, info, bytes_of("qfgeo-walk"));
    ASSERT_TRUE(outcome.route_found);

    // The reference walker is a *sound* under-approximation of the live
    // protocol: whenever pure greedy succeeds, the simulation — greedy plus
    // overhear-cancel plus fallback floods — must deliver too. (The converse
    // is deliberately untested: fallback floods rescue pairs the bare walker
    // loses at a local minimum.)
    if (greedy_walk_delivers(net, region, *src_ap, to, dst)) {
      ++walker_successes;
      EXPECT_TRUE(outcome.delivered)
          << "walker delivered " << from << " -> " << to
          << " but the live protocol did not";
    }
  }
  // The cross-check must not pass vacuously.
  EXPECT_GE(walker_successes, 3u);
}

TEST(QfgeoLive, LocalMinimumTriggersFallbackFlood) {
  const osmx::City city = qf_town();
  const core::NetworkConfig cfg = qf_config();
  core::CityMeshNetwork net{city, cfg};

  // A cross-town pair: west-most to east-most building with APs.
  std::optional<osmx::BuildingId> west, east;
  for (const auto& b : city.buildings()) {
    if (!net.live_ap(b.id)) continue;
    if (!west || b.centroid.x < city.building(*west).centroid.x) west = b.id;
    if (!east || b.centroid.x > city.building(*east).centroid.x) east = b.id;
  }
  ASSERT_TRUE(west && east && *west != *east);
  const geo::Point dst = net.map().centroid(*east);
  const double total = geo::distance(net.map().centroid(*west), dst);
  ASSERT_GT(total, 400.0);

  // Carve a void: down every AP whose distance to the destination falls in a
  // band wider than the radio range, so greedy forwarding must stall at the
  // band's far edge (a local minimum) and recover by scoped flooding.
  const double band_lo = total / 2.0;
  const double band_hi = band_lo + 3.0 * cfg.placement.transmission_range_m;
  for (mesh::ApId ap = 0; ap < net.aps().ap_count(); ++ap) {
    const double d = geo::distance(net.aps().ap(ap).position, dst);
    if (d >= band_lo && d <= band_hi) {
      net.set_ap_status(ap, core::ApStatus::kDown);
    }
  }
  ASSERT_TRUE(net.live_ap(*west));
  ASSERT_TRUE(net.live_ap(*east));

  const auto keys = cryptox::KeyPair::from_seed(7);
  const auto info = core::PostboxInfo::for_key(keys, *east);
  ASSERT_NE(net.register_postbox(info), nullptr);
  net.send(*west, info, bytes_of("void-crossing"));

  const obsx::MetricsSnapshot snap = net.merged_metrics();
  ASSERT_TRUE(snap.counters.contains("qfgeo.fallback_floods"));
  EXPECT_GT(snap.counters.at("qfgeo.fallback_floods"), 0u)
      << "a void wider than the radio range must trip the local-minimum "
         "fallback";
  // The greedy path ran before stalling.
  ASSERT_TRUE(snap.counters.contains("qfgeo.fired"));
  EXPECT_GT(snap.counters.at("qfgeo.fired"), 0u);
}

// --------------------------------------------- conduit byte-identity gate ---

TEST(QfgeoConduit, ConduitNetworksRegisterNoQfgeoKeys) {
  const osmx::City city = qf_town();
  core::NetworkConfig conduit_cfg = qf_config();
  conduit_cfg.protocol = core::Protocol::kConduit;
  core::CityMeshNetwork conduit_net{city, conduit_cfg};
  core::CityMeshNetwork qfgeo_net{city, qf_config()};

  const auto keys = cryptox::KeyPair::from_seed(3);
  for (auto* net : {&conduit_net, &qfgeo_net}) {
    const auto info = core::PostboxInfo::for_key(keys, 9);
    ASSERT_NE(net->register_postbox(info), nullptr);
    net->send(0, info, bytes_of("x"));
  }

  const auto conduit_snap = conduit_net.merged_metrics();
  for (const auto& [key, value] : conduit_snap.counters) {
    EXPECT_EQ(key.rfind("qfgeo.", 0), std::string::npos)
        << "conduit manifest leaked qfgeo key " << key;
  }
  const auto qfgeo_snap = qfgeo_net.merged_metrics();
  for (const char* key : {"qfgeo.candidates", "qfgeo.fired", "qfgeo.cancelled",
                          "qfgeo.no_progress", "qfgeo.fallback_floods"}) {
    EXPECT_EQ(qfgeo_snap.counters.count(key), 1u) << key;
  }
}

TEST(QfgeoConduit, ExplicitConduitLineKeepsSweepManifestByteIdentical) {
  std::string error;
  const auto legacy = runx::parse_sweep(
      "name identity\ncities cambridge\nseeds 1\npairs 20\ndeliver 2\n", &error);
  ASSERT_TRUE(legacy) << error;
  const auto explicit_conduit = runx::parse_sweep(
      "name identity\ncities cambridge\nseeds 1\npairs 20\ndeliver 2\n"
      "protocol conduit\n",
      &error);
  ASSERT_TRUE(explicit_conduit) << error;
  ASSERT_EQ(explicit_conduit->protocols.size(), 1u);

  // Same labels (no protocol prefix for a single-protocol axis).
  const auto legacy_jobs = runx::expand(*legacy);
  const auto explicit_jobs = runx::expand(*explicit_conduit);
  ASSERT_EQ(legacy_jobs.size(), explicit_jobs.size());
  for (std::size_t i = 0; i < legacy_jobs.size(); ++i) {
    EXPECT_EQ(legacy_jobs[i].point, explicit_jobs[i].point);
  }

  runx::CityCache cache;
  runx::SweepRunConfig config;
  const auto legacy_report = runx::run_sweep(*legacy, cache, config);
  const auto explicit_report = runx::run_sweep(*explicit_conduit, cache, config);
  EXPECT_EQ(legacy_report.errors, 0u);
  EXPECT_EQ(legacy_report.digest, explicit_report.digest);
  EXPECT_EQ(runx::sweep_manifest(*legacy, legacy_report).to_json(),
            runx::sweep_manifest(*explicit_conduit, explicit_report).to_json());
}

// ---------------------------------------------------------- sweep grammar ---

TEST(QfgeoSweep, GrammarParsesAndExpandsTheProtocolAxis) {
  std::string error;
  const auto spec = runx::parse_sweep(
      "cities a b\nseeds 1 2\nprotocol conduit qfgeo\n", &error);
  ASSERT_TRUE(spec) << error;
  ASSERT_EQ(spec->protocols.size(), 2u);
  EXPECT_EQ(spec->protocols[0], core::Protocol::kConduit);
  EXPECT_EQ(spec->protocols[1], core::Protocol::kQfgeo);

  // city-major, then seed, then protocol, then point; labels prefixed only
  // for the multi-protocol axis.
  const auto jobs = runx::expand(*spec);
  ASSERT_EQ(jobs.size(), 8u);  // 2 cities x 2 seeds x 2 protocols x 1 point
  EXPECT_EQ(jobs[0].city, "a");
  EXPECT_EQ(jobs[0].point, "conduit/eval");
  EXPECT_EQ(jobs[1].point, "qfgeo/eval");
  EXPECT_EQ(jobs[2].seed, 2u);
  EXPECT_EQ(jobs[4].city, "b");

  EXPECT_FALSE(runx::parse_sweep("cities x\nprotocol nope\n", &error));
  EXPECT_FALSE(runx::parse_sweep("cities x\nprotocol\n", &error));
}

TEST(QfgeoSweep, DigestInvariantAcrossJobsAndShards) {
  std::string error;
  const auto spec = runx::parse_sweep(
      "name proto-axis\ncities cambridge\nseeds 1\npairs 20\ndeliver 2\n"
      "protocol conduit qfgeo\n",
      &error);
  ASSERT_TRUE(spec) << error;

  runx::CityCache cache;
  std::vector<std::uint64_t> digests;
  std::vector<std::string> manifests;
  for (const auto& [jobs, shards] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 1}, {4, 1}, {1, 4}, {4, 4}}) {
    runx::SweepRunConfig config;
    config.jobs = jobs;
    config.network.shards = shards;
    // Draw-free regime: zero jitter keeps the tiled engine's rows exactly
    // equal to the legacy single-loop rows (shards == 1 vs >= 2).
    config.network.medium.jitter_s = 0.0;
    const auto report = runx::run_sweep(*spec, cache, config);
    EXPECT_EQ(report.errors, 0u);
    EXPECT_EQ(report.jobs.size(), 2u);  // conduit + qfgeo
    digests.push_back(report.digest);
    manifests.push_back(runx::sweep_manifest(*spec, report).to_json());
  }
  for (std::size_t i = 1; i < digests.size(); ++i) {
    EXPECT_EQ(digests[0], digests[i]) << "variant " << i;
  }
  // Manifests are byte-identical across worker counts at a fixed shard
  // count. Across shard counts only the row digest is guaranteed: the tiled
  // engine accumulates histogram float sums in a different order, so the
  // metrics block can differ in the last ulps.
  EXPECT_EQ(manifests[0], manifests[1]);  // jobs 1 vs 4, shards 1
  EXPECT_EQ(manifests[2], manifests[3]);  // jobs 1 vs 4, shards 4
  // The protocol axis is recorded only for multi-protocol sweeps.
  EXPECT_NE(manifests[0].find("\"protocols\""), std::string::npos);
}
