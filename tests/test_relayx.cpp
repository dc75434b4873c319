// Tests for the relayx rebroadcast-suppression subsystem: policy decision
// semantics against synthetic receptions, seeded determinism, flood's
// byte-identity guarantees (no extra metrics keys, no trace events, no
// policy state), cancelable simulator events, and sweep-digest invariance
// across worker counts with a non-flood policy active.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "cryptox/identity.hpp"
#include "geo/stats.hpp"
#include "osmx/citygen.hpp"
#include "relayx/policy.hpp"
#include "runx/engine.hpp"
#include "sim/simulator.hpp"

namespace core = citymesh::core;
namespace osmx = citymesh::osmx;
namespace geo = citymesh::geo;
namespace mesh = citymesh::mesh;
namespace obsx = citymesh::obsx;
namespace relayx = citymesh::relayx;
namespace runx = citymesh::runx;
namespace sim = citymesh::sim;
namespace cryptox = citymesh::cryptox;

namespace {

std::span<const std::uint8_t> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

osmx::City row_city(std::size_t n, double gap = 20.0) {
  const double stride = 20.0 + gap;
  osmx::City city{"row", {{0, 0}, {stride * static_cast<double>(n), 40}}};
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = static_cast<double>(i) * stride;
    city.add_building(geo::Polygon::rectangle({{x0, 0}, {x0 + 20, 20}}));
  }
  return city;
}

osmx::City dense_town() {
  osmx::CityProfile p;
  p.name = "relayx-town";
  p.width_m = 900;
  p.height_m = 700;
  p.park_fraction = 0.0;
  p.seed = 21;
  return osmx::generate_city(p);
}

core::NetworkConfig fast_config() {
  core::NetworkConfig cfg;
  cfg.placement.density_per_m2 = 1.0 / 60.0;
  cfg.placement.seed = 5;
  cfg.medium.jitter_s = 1e-4;
  return cfg;
}

/// A dense placement over the generated town — several APs per building, so
/// suppression policies have duplicates to cancel. Shared (read-only) across
/// the direct-policy tests; each test builds its own policy instance on top.
const mesh::ApNetwork& dense_aps() {
  static const mesh::ApNetwork aps = [] {
    mesh::PlacementConfig placement;
    placement.density_per_m2 = 1.0 / 40.0;
    placement.seed = 5;
    return mesh::place_aps(dense_town(), placement);
  }();
  return aps;
}

relayx::Reception rx_at(mesh::ApId ap, mesh::ApId from, double t = 0.0) {
  relayx::Reception rx;
  rx.ap = ap;
  rx.from = from;
  rx.message_id = 7;
  rx.now_s = t;
  return rx;
}

/// Any AP with at least `min_degree` graph links.
mesh::ApId ap_with_degree(const mesh::ApNetwork& aps, std::size_t min_degree) {
  for (mesh::ApId ap = 0; ap < aps.ap_count(); ++ap) {
    if (aps.graph().degree(ap) >= min_degree) return ap;
  }
  ADD_FAILURE() << "no AP with degree >= " << min_degree;
  return 0;
}

bool has_relayx_keys(const obsx::MetricsSnapshot& snap) {
  return std::any_of(snap.counters.begin(), snap.counters.end(),
                     [](const auto& kv) { return kv.first.rfind("relayx.", 0) == 0; });
}

}  // namespace

// -------------------------------------------------------------- names -------

TEST(PolicyNames, RoundTrip) {
  using relayx::PolicyKind;
  for (const auto kind : {PolicyKind::kFlood, PolicyKind::kBuildingBackoff,
                          PolicyKind::kCounterGossip, PolicyKind::kEtxPriority}) {
    const auto name = relayx::to_string(kind);
    const auto back = relayx::policy_kind_from(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(relayx::policy_kind_from("gossipy").has_value());
  EXPECT_FALSE(relayx::policy_kind_from("").has_value());
}

TEST(PolicyNames, FloodIsTheDefault) {
  EXPECT_EQ(core::NetworkConfig{}.relay.kind, relayx::PolicyKind::kFlood);
  EXPECT_EQ(relayx::PolicyConfig{}.kind, relayx::PolicyKind::kFlood);
}

// -------------------------------------------------------------- flood -------

TEST(FloodPolicy, RelaysNowNeverCancelsCountsNothing) {
  const auto& aps = dense_aps();
  const auto policy = relayx::make_policy({}, aps);
  const mesh::ApId ap = ap_with_degree(aps, 1);
  const mesh::ApId peer = aps.graph().neighbors(ap)[0].to;
  for (int i = 0; i < 8; ++i) {
    policy->observe(rx_at(ap, peer));
    const auto d = policy->elect(rx_at(ap, peer));
    EXPECT_EQ(d.kind, relayx::Decision::Kind::kRelayNow);
    EXPECT_EQ(d.delay_s, 0.0);
    EXPECT_FALSE(policy->cancel_on_overhear(rx_at(ap, peer), 1000));
  }
  EXPECT_EQ(policy->scheduled(), 0u);
  EXPECT_EQ(policy->cancelled(), 0u);
  EXPECT_EQ(policy->fired(), 0u);
  EXPECT_EQ(policy->etx_updates(), 0u);
}

// --------------------------------------------------- building-backoff -------

TEST(BuildingBackoffPolicy, DelaysWithinWindowAndCancelsSiblingsOnly) {
  const auto& aps = dense_aps();
  relayx::PolicyConfig cfg;
  cfg.kind = relayx::PolicyKind::kBuildingBackoff;
  const auto policy = relayx::make_policy(cfg, aps);

  // Find a same-building pair within the suppress radius and a pair in
  // different buildings.
  mesh::ApId sib_a = 0, sib_b = 0, other = 0;
  bool found_sibling = false, found_other = false;
  const auto city = dense_town();
  for (const auto& b : city.buildings()) {
    const auto& owned = aps.aps_of_building(b.id);
    if (!found_sibling && owned.size() >= 2 &&
        geo::distance(aps.ap(owned[0]).position, aps.ap(owned[1]).position) <=
            cfg.suppress_radius_m) {
      sib_a = owned[0];
      sib_b = owned[1];
      found_sibling = true;
    }
  }
  ASSERT_TRUE(found_sibling);
  for (mesh::ApId ap = 0; ap < aps.ap_count(); ++ap) {
    if (aps.ap(ap).building != aps.ap(sib_a).building) {
      other = ap;
      found_other = true;
      break;
    }
  }
  ASSERT_TRUE(found_other);

  const auto d = policy->elect(rx_at(sib_a, other));
  EXPECT_EQ(d.kind, relayx::Decision::Kind::kDelay);
  EXPECT_GE(d.delay_s, 0.0);
  EXPECT_LT(d.delay_s, cfg.backoff_s);
  EXPECT_EQ(policy->scheduled(), 1u);

  // A copy from a different building never cancels, no matter the count.
  EXPECT_FALSE(policy->cancel_on_overhear(rx_at(sib_a, other), 50));
  EXPECT_EQ(policy->cancelled(), 0u);
  // A close same-building sibling cancels on the first copy.
  EXPECT_TRUE(policy->cancel_on_overhear(rx_at(sib_a, sib_b), 1));
  EXPECT_EQ(policy->cancelled(), 1u);
}

// ----------------------------------------------------- counter-gossip -------

TEST(CounterGossipPolicy, CancelsExactlyAtTheKthOverheardCopy) {
  const auto& aps = dense_aps();
  relayx::PolicyConfig cfg;
  cfg.kind = relayx::PolicyKind::kCounterGossip;
  cfg.cancel_copies = 3;
  const auto policy = relayx::make_policy(cfg, aps);
  const mesh::ApId ap = ap_with_degree(aps, 1);
  const mesh::ApId peer = aps.graph().neighbors(ap)[0].to;

  const auto d = policy->elect(rx_at(ap, peer));
  EXPECT_EQ(d.kind, relayx::Decision::Kind::kDelay);
  EXPECT_LT(d.delay_s, cfg.backoff_s);
  EXPECT_FALSE(policy->cancel_on_overhear(rx_at(ap, peer), 1));
  EXPECT_FALSE(policy->cancel_on_overhear(rx_at(ap, peer), 2));
  EXPECT_TRUE(policy->cancel_on_overhear(rx_at(ap, peer), 3));
  EXPECT_EQ(policy->scheduled(), 1u);
  EXPECT_EQ(policy->cancelled(), 1u);
}

TEST(CounterGossipPolicy, ZeroGossipProbabilitySuppressesEveryElection) {
  const auto& aps = dense_aps();
  relayx::PolicyConfig cfg;
  cfg.kind = relayx::PolicyKind::kCounterGossip;
  cfg.gossip_p = 0.0;
  const auto policy = relayx::make_policy(cfg, aps);
  const mesh::ApId ap = ap_with_degree(aps, 1);
  const mesh::ApId peer = aps.graph().neighbors(ap)[0].to;
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(policy->elect(rx_at(ap, peer)).kind, relayx::Decision::Kind::kSuppress);
  }
  EXPECT_EQ(policy->scheduled(), 0u);
  EXPECT_EQ(policy->cancelled(), 16u);
}

TEST(CounterGossipPolicy, SameSeedSameDelaySequence) {
  const auto& aps = dense_aps();
  relayx::PolicyConfig cfg;
  cfg.kind = relayx::PolicyKind::kCounterGossip;
  const auto a = relayx::make_policy(cfg, aps);
  const auto b = relayx::make_policy(cfg, aps);
  for (mesh::ApId ap = 0; ap < std::min<std::size_t>(aps.ap_count(), 32); ++ap) {
    for (int i = 0; i < 4; ++i) {
      const auto da = a->elect(rx_at(ap, ap));
      const auto db = b->elect(rx_at(ap, ap));
      EXPECT_EQ(da.kind, db.kind);
      EXPECT_EQ(da.delay_s, db.delay_s);
    }
  }
  // A different seed shifts the per-AP streams.
  relayx::PolicyConfig reseeded = cfg;
  reseeded.seed = cfg.seed + 1;
  const auto c = relayx::make_policy(reseeded, aps);
  bool any_differs = false;
  for (mesh::ApId ap = 0; ap < std::min<std::size_t>(aps.ap_count(), 32); ++ap) {
    if (c->elect(rx_at(ap, ap)).delay_s != a->elect(rx_at(ap, ap)).delay_s) {
      any_differs = true;
    }
  }
  EXPECT_TRUE(any_differs);
}

// ------------------------------------------------------- etx-priority -------

TEST(EtxPriorityPolicy, ObservedLinksShortenTheBackoff) {
  const auto& aps = dense_aps();
  relayx::PolicyConfig cfg;
  cfg.kind = relayx::PolicyKind::kEtxPriority;
  const auto cold = relayx::make_policy(cfg, aps);
  const auto warm = relayx::make_policy(cfg, aps);
  const mesh::ApId ap = ap_with_degree(aps, 2);

  // Warm every incident link of `ap`. observe() draws no randomness, so
  // both policies' per-AP streams stay at the same position and the delay
  // comparison isolates the quality term.
  for (int round = 0; round < 10; ++round) {
    for (const auto& edge : aps.graph().neighbors(ap)) {
      warm->observe(rx_at(ap, edge.to));
    }
  }
  EXPECT_GT(warm->etx_updates(), 0u);
  EXPECT_EQ(cold->etx_updates(), 0u);

  const auto d_cold = cold->elect(rx_at(ap, aps.graph().neighbors(ap)[0].to));
  const auto d_warm = warm->elect(rx_at(ap, aps.graph().neighbors(ap)[0].to));
  ASSERT_EQ(d_cold.kind, relayx::Decision::Kind::kDelay);
  ASSERT_EQ(d_warm.kind, relayx::Decision::Kind::kDelay);
  EXPECT_LT(d_warm.delay_s, d_cold.delay_s);
}

TEST(EtxPriorityPolicy, OnlyWellHeardApsCancel) {
  const auto& aps = dense_aps();
  relayx::PolicyConfig cfg;
  cfg.kind = relayx::PolicyKind::kEtxPriority;
  cfg.etx_pivot = 1.0;  // two well-heard links push quality past 0.5
  const auto cold = relayx::make_policy(cfg, aps);
  const auto warm = relayx::make_policy(cfg, aps);
  // An AP with a cross-building neighbor, so the below-threshold check is
  // not short-circuited by the same-building cancel rule.
  mesh::ApId ap = 0, peer = 0;
  bool found = false;
  for (mesh::ApId cand = 0; cand < aps.ap_count() && !found; ++cand) {
    if (aps.graph().degree(cand) < 2) continue;
    for (const auto& edge : aps.graph().neighbors(cand)) {
      if (aps.ap(edge.to).building != aps.ap(cand).building) {
        ap = cand;
        peer = edge.to;
        found = true;
        break;
      }
    }
  }
  ASSERT_TRUE(found);

  for (int round = 0; round < 10; ++round) {
    for (const auto& edge : aps.graph().neighbors(ap)) {
      warm->observe(rx_at(ap, edge.to));
    }
  }
  cold->elect(rx_at(ap, peer));
  warm->elect(rx_at(ap, peer));

  // The unwarmed AP (quality 0) never cancels, whatever the evidence; the
  // warmed one cancels once the copy count reaches the threshold.
  EXPECT_FALSE(cold->cancel_on_overhear(rx_at(ap, peer), cfg.cancel_copies + 10));
  EXPECT_FALSE(warm->cancel_on_overhear(rx_at(ap, peer), cfg.cancel_copies - 1));
  EXPECT_TRUE(warm->cancel_on_overhear(rx_at(ap, peer), cfg.cancel_copies));
  EXPECT_EQ(cold->cancelled(), 0u);
  EXPECT_EQ(warm->cancelled(), 1u);
}

TEST(EtxPriorityPolicy, ObserveIgnoresNonNeighborTransmitters) {
  const auto& aps = dense_aps();
  relayx::PolicyConfig cfg;
  cfg.kind = relayx::PolicyKind::kEtxPriority;
  const auto policy = relayx::make_policy(cfg, aps);
  const mesh::ApId ap = ap_with_degree(aps, 1);
  // Receptions from an AP with no graph link update no estimate: find a
  // non-neighbor.
  mesh::ApId stranger = ap;
  for (mesh::ApId cand = 0; cand < aps.ap_count(); ++cand) {
    const auto links = aps.graph().neighbors(ap);
    const bool linked = std::any_of(links.begin(), links.end(),
                                    [&](const auto& e) { return e.to == cand; });
    if (cand != ap && !linked) {
      stranger = cand;
      break;
    }
  }
  ASSERT_NE(stranger, ap);
  policy->observe(rx_at(ap, stranger));
  EXPECT_EQ(policy->etx_updates(), 0u);
}

TEST(EtxPriorityPolicy, ZeroHalfLifeIgnoresTime) {
  // Link counts only grow: elapsed silence never changes a decision.
  const auto& aps = dense_aps();
  relayx::PolicyConfig cfg;
  cfg.kind = relayx::PolicyKind::kEtxPriority;
  const auto now = relayx::make_policy(cfg, aps);
  const auto later = relayx::make_policy(cfg, aps);
  const mesh::ApId ap = ap_with_degree(aps, 2);
  for (int round = 0; round < 10; ++round) {
    for (const auto& edge : aps.graph().neighbors(ap)) {
      now->observe(rx_at(ap, edge.to, 0.0));
      later->observe(rx_at(ap, edge.to, 0.0));
    }
  }
  const mesh::ApId peer = aps.graph().neighbors(ap)[0].to;
  const auto d0 = now->elect(rx_at(ap, peer, 0.0));
  const auto d1 = later->elect(rx_at(ap, peer, 1000.0));
  ASSERT_EQ(d0.kind, relayx::Decision::Kind::kDelay);
  ASSERT_EQ(d1.kind, relayx::Decision::Kind::kDelay);
  EXPECT_DOUBLE_EQ(d0.delay_s, d1.delay_s);
}

TEST(BuildingBackoffPolicy, PerApStreamsIndependentOfElectionOrder) {
  // Per-AP streams decouple each AP's draw sequence from the global
  // election order — the property tiled execution (src/shardx) needs, since
  // the interleaving of elections across tiles is shard-count-dependent.
  const auto& aps = dense_aps();
  relayx::PolicyConfig cfg;
  cfg.kind = relayx::PolicyKind::kBuildingBackoff;
  const auto fwd = relayx::make_policy(cfg, aps);
  const auto rev = relayx::make_policy(cfg, aps);
  const mesh::ApId a = ap_with_degree(aps, 2);
  const mesh::ApId b = aps.graph().neighbors(a)[0].to;
  ASSERT_NE(a, b);

  const auto fa = fwd->elect(rx_at(a, b));
  const auto fb = fwd->elect(rx_at(b, a));
  const auto rb = rev->elect(rx_at(b, a));
  const auto ra = rev->elect(rx_at(a, b));
  ASSERT_EQ(fa.kind, relayx::Decision::Kind::kDelay);
  ASSERT_EQ(fb.kind, relayx::Decision::Kind::kDelay);
  EXPECT_DOUBLE_EQ(fa.delay_s, ra.delay_s);
  EXPECT_DOUBLE_EQ(fb.delay_s, rb.delay_s);
}

// -------------------------------------------- cancelable simulator events ---

TEST(CancelableEvents, CancelledHandlerNeverRuns) {
  sim::Simulator s;
  int fired = 0;
  const auto id = s.schedule_cancelable_in(1.0, [&] { ++fired; });
  EXPECT_EQ(s.cancelable_pending(), 1u);
  EXPECT_TRUE(s.cancel(id));
  EXPECT_EQ(s.cancelable_pending(), 0u);
  s.run();
  EXPECT_EQ(fired, 0);
  // The cancelled event still advanced time when popped — identical timing
  // to a handler that no-ops.
  EXPECT_EQ(s.now(), 1.0);
}

TEST(CancelableEvents, CancelAfterRunOrTwiceReturnsFalse) {
  sim::Simulator s;
  int fired = 0;
  const auto id = s.schedule_cancelable_in(0.5, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(s.cancel(id));  // already ran
  const auto id2 = s.schedule_cancelable_in(0.5, [&] { ++fired; });
  EXPECT_TRUE(s.cancel(id2));
  EXPECT_FALSE(s.cancel(id2));  // already cancelled
  EXPECT_FALSE(s.cancel(sim::Simulator::kInvalidEvent));
}

TEST(CancelableEvents, InterleaveWithPlainEvents) {
  sim::Simulator s;
  std::vector<int> order;
  s.schedule_at(1.0, [&] { order.push_back(1); });
  const auto id = s.schedule_cancelable_at(2.0, [&] { order.push_back(2); });
  s.schedule_at(3.0, [&] { order.push_back(3); });
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(s.now(), 3.0);
}

// ---------------------------------------------- pinned 3-AP sequences -------

namespace {

/// Three 10x10 buildings at x = 0/40/80 (same construction as
/// tests/test_compiled.cpp): density 1/100 gives exactly one AP per building
/// and 55 m range chains them into a guaranteed line 0-1-2.
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

std::vector<std::pair<obsx::TraceKind, std::uint32_t>> line_delivery_events(
    relayx::PolicyKind kind) {
  const auto city = three_building_city();
  auto cfg = deterministic_config();
  cfg.relay.kind = kind;
  core::CityMeshNetwork net{city, cfg};
  EXPECT_EQ(net.aps().ap_count(), 3u);
  const auto keys = cryptox::KeyPair::from_seed(11);
  const auto info = core::PostboxInfo::for_key(keys, 2);
  EXPECT_NE(net.register_postbox(info), nullptr);
  net.set_tracing(true);
  const auto outcome = net.send(0, info, bytes_of("ping"));
  EXPECT_TRUE(outcome.delivered) << relayx::to_string(kind);
  std::vector<std::pair<obsx::TraceKind, std::uint32_t>> seq;
  for (const auto& e : net.merged_trace_events()) seq.emplace_back(e.kind, e.node);
  return seq;
}

}  // namespace

// Pins the exact trace kinds/order of a 3-AP line delivery under every
// policy. Flood must reproduce the sequence recorded on the pre-relayx
// pipeline verbatim; the delay policies insert a kElected per rebroadcast
// and fire the deferred kTx next (one AP per building: nothing overhears a
// sibling, so nothing cancels and the logical order is unchanged).
TEST(PinnedSequences, ThreeApLinePerPolicy) {
  using K = obsx::TraceKind;
  const std::vector<std::pair<K, std::uint32_t>> flood_expected{
      {K::kOriginate, 0}, {K::kTx, 0},
      {K::kRx, 1},        {K::kRebroadcast, 1}, {K::kTx, 1},
      {K::kRx, 0},        {K::kDupSuppressed, 0},
      {K::kRx, 2},        {K::kPostboxStore, 2}, {K::kRebroadcast, 2}, {K::kTx, 2},
      {K::kRx, 1},        {K::kDupSuppressed, 1},
  };
  EXPECT_EQ(line_delivery_events(relayx::PolicyKind::kFlood), flood_expected);

  const std::vector<std::pair<K, std::uint32_t>> delayed_expected{
      {K::kOriginate, 0}, {K::kTx, 0},
      {K::kRx, 1},        {K::kRebroadcast, 1}, {K::kElected, 1}, {K::kTx, 1},
      {K::kRx, 0},        {K::kDupSuppressed, 0},
      {K::kRx, 2},        {K::kPostboxStore, 2}, {K::kRebroadcast, 2},
      {K::kElected, 2},   {K::kTx, 2},
      {K::kRx, 1},        {K::kDupSuppressed, 1},
  };
  for (const auto kind :
       {relayx::PolicyKind::kBuildingBackoff, relayx::PolicyKind::kCounterGossip,
        relayx::PolicyKind::kEtxPriority}) {
    EXPECT_EQ(line_delivery_events(kind), delayed_expected)
        << relayx::to_string(kind);
  }
}

// --------------------------------------------------- network integration ----

TEST(NetworkRelay, FloodManifestHasNoRelayxKeysOrTraceEvents) {
  const auto city = row_city(12);
  core::CityMeshNetwork net{city, fast_config()};
  net.set_tracing(true);
  const auto keys = cryptox::KeyPair::from_seed(7);
  const auto info = core::PostboxInfo::for_key(keys, 11);
  net.register_postbox(info);
  const auto out = net.send(0, info, bytes_of("x"));
  ASSERT_TRUE(out.delivered);

  EXPECT_FALSE(has_relayx_keys(net.merged_metrics()));
  for (const auto& e : net.merged_trace_events()) {
    EXPECT_NE(e.kind, obsx::TraceKind::kElected);
    EXPECT_NE(e.kind, obsx::TraceKind::kSuppressed);
  }
}

TEST(NetworkRelay, SuppressionPolicyBindsCountersAndEmitsTrace) {
  const auto city = dense_town();
  auto cfg = fast_config();
  cfg.placement.density_per_m2 = 1.0 / 40.0;
  cfg.relay.kind = relayx::PolicyKind::kBuildingBackoff;
  core::CityMeshNetwork net{city, cfg};
  net.set_tracing(true);
  const auto dst = static_cast<core::BuildingId>(city.building_count() - 6);
  const auto keys = cryptox::KeyPair::from_seed(7);
  const auto info = core::PostboxInfo::for_key(keys, dst);
  net.register_postbox(info);
  const auto out = net.send(2, info, bytes_of("x"));
  ASSERT_TRUE(out.delivered);

  const auto snap = net.merged_metrics();
  EXPECT_TRUE(has_relayx_keys(snap));
  const std::uint64_t scheduled = snap.counters.at("relayx.scheduled");
  const std::uint64_t cancelled = snap.counters.at("relayx.cancelled");
  EXPECT_GT(scheduled, 0u);
  EXPECT_GT(cancelled, 0u);  // dense town: siblings cancel
  // Every scheduled rebroadcast either aired or was suppressed.
  EXPECT_EQ(scheduled, snap.counters.at("relayx.fired") + cancelled);

  std::size_t elected = 0, suppressed = 0;
  for (const auto& e : net.merged_trace_events()) {
    if (e.kind == obsx::TraceKind::kElected) ++elected;
    if (e.kind == obsx::TraceKind::kSuppressed) ++suppressed;
  }
  EXPECT_EQ(elected, scheduled);
  EXPECT_EQ(suppressed, cancelled);
}

TEST(NetworkRelay, CounterGossipStillDeliversWithFewerTransmissions) {
  const auto city = dense_town();
  auto base = fast_config();
  base.placement.density_per_m2 = 1.0 / 40.0;
  const auto dst = static_cast<core::BuildingId>(city.building_count() - 6);

  auto run_one = [&](relayx::PolicyKind kind) {
    auto cfg = base;
    cfg.relay.kind = kind;
    core::CityMeshNetwork net{city, cfg};
    const auto keys = cryptox::KeyPair::from_seed(7);
    const auto info = core::PostboxInfo::for_key(keys, dst);
    net.register_postbox(info);
    return net.send(2, info, bytes_of("x"));
  };

  const auto flood = run_one(relayx::PolicyKind::kFlood);
  const auto gossip = run_one(relayx::PolicyKind::kCounterGossip);
  ASSERT_TRUE(flood.delivered);
  EXPECT_TRUE(gossip.delivered);
  EXPECT_LT(gossip.transmissions, flood.transmissions);
}

// -------------------------------------------------------- jobs invariance ---

TEST(NetworkRelay, SweepDigestInvariantAcrossWorkerCounts) {
  auto cfg = fast_config();
  cfg.relay.kind = relayx::PolicyKind::kCounterGossip;
  const auto compiled = core::compile_city(row_city(12), cfg);

  std::vector<runx::RunJob> jobs;
  for (std::size_t i = 0; i < 6; ++i) {
    runx::RunJob job;
    job.index = i;
    job.city = "row";
    job.seed = 100 + i;
    job.point = "gossip";
    jobs.push_back(job);
  }
  const runx::RunFn fn = [&](const runx::RunJob& job) {
    auto job_cfg = cfg;
    job_cfg.seed = job.seed;
    core::CityMeshNetwork net{compiled, job_cfg};
    const auto keys = cryptox::KeyPair::from_seed(7);
    const auto info = core::PostboxInfo::for_key(keys, 11);
    net.register_postbox(info);
    const auto out = net.send(0, info, bytes_of("x"));
    runx::RunResult result;
    result.metrics = net.merged_metrics();
    result.cells = {out.delivered ? "1" : "0", std::to_string(out.transmissions),
                    std::to_string(result.metrics.counters.at("relayx.cancelled"))};
    return result;
  };

  const auto serial = runx::run_jobs(jobs, fn, {1});
  const auto parallel = runx::run_jobs(jobs, fn, {4});
  EXPECT_EQ(serial.errors, 0u);
  EXPECT_EQ(serial.digest, parallel.digest);
  EXPECT_EQ(serial.metrics, parallel.metrics);
}
