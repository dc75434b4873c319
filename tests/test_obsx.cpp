// Tests for the observability layer (src/obsx): trace ring semantics, JSONL
// round-trips and escaping, histogram bucket edges, metrics merging, run
// manifests, and an end-to-end 3-AP trace whose event sequence is pinned.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <random>
#include <sstream>

#include "core/network.hpp"
#include "core/postbox.hpp"
#include "cryptox/identity.hpp"
#include "obsx/json.hpp"
#include "obsx/manifest.hpp"
#include "obsx/metrics.hpp"
#include "obsx/trace.hpp"
#include "osmx/building.hpp"
#include "wire/packet.hpp"

namespace obsx = citymesh::obsx;
namespace core = citymesh::core;
namespace osmx = citymesh::osmx;
namespace geo = citymesh::geo;
namespace wire = citymesh::wire;
namespace cryptox = citymesh::cryptox;

namespace {

obsx::TraceEvent make_event(obsx::TraceKind kind, double t, std::uint32_t node,
                            std::uint32_t packet,
                            std::uint32_t payload = obsx::kTraceNone) {
  obsx::TraceEvent e;
  e.kind = kind;
  e.time_s = t;
  e.node = node;
  e.packet = packet;
  e.payload.raw = payload;
  return e;
}

}  // namespace

// ------------------------------------------------------------ TraceBuffer ---

TEST(TraceBuffer, DisabledRecordsNothing) {
  obsx::TraceBuffer buf{8};
  buf.record(obsx::TraceKind::kTx, 0.0, 1, 2);
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.recorded(), 0u);
  EXPECT_FALSE(buf.enabled());
}

TEST(TraceBuffer, RingWrapKeepsLatestWindow) {
  obsx::TraceBuffer buf{4};
  buf.enable();
  for (std::uint32_t i = 0; i < 6; ++i) {
    buf.record(obsx::TraceKind::kTx, static_cast<double>(i), i, 100 + i);
  }
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.recorded(), 6u);
  EXPECT_EQ(buf.lost(), 2u);
  const auto events = buf.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest two (i=0,1) were overwritten; the window is i=2..5 oldest-first.
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].node, i + 2);
    EXPECT_EQ(events[i].packet, 102 + i);
  }
}

TEST(TraceBuffer, ClearKeepsEnabledAndCapacity) {
  obsx::TraceBuffer buf{4};
  buf.enable();
  buf.record(obsx::TraceKind::kRx, 1.0, 0, 1, 2);
  buf.clear();
  EXPECT_TRUE(buf.enabled());
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.lost(), 0u);
  buf.record(obsx::TraceKind::kRx, 2.0, 3, 4, 5);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(TraceKinds, NamesRoundTrip) {
  for (const auto kind :
       {obsx::TraceKind::kOriginate, obsx::TraceKind::kTx, obsx::TraceKind::kRx,
        obsx::TraceKind::kDupSuppressed, obsx::TraceKind::kConduitReject,
        obsx::TraceKind::kRebroadcast, obsx::TraceKind::kPostboxStore,
        obsx::TraceKind::kAck, obsx::TraceKind::kDropFaulted,
        obsx::TraceKind::kDropLoss, obsx::TraceKind::kApDown,
        obsx::TraceKind::kApUp, obsx::TraceKind::kRegionDegrade,
        obsx::TraceKind::kRegionRestore}) {
    const auto back = obsx::trace_kind_from(obsx::to_string(kind));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(obsx::trace_kind_from("no-such-kind").has_value());
}

// ------------------------------------------------------------------ JSONL ---

TEST(TraceJsonl, RoundTripsAllFields) {
  const std::vector<obsx::TraceEvent> events{
      make_event(obsx::TraceKind::kOriginate, 0.0, 3, 77),
      make_event(obsx::TraceKind::kTx, 0.001, 3, 77),
      make_event(obsx::TraceKind::kRx, 0.002, 4, 77, 3),
      make_event(obsx::TraceKind::kDupSuppressed, 0.25, 5, 77, 4),
      make_event(obsx::TraceKind::kPostboxStore, 0.5, 4, 77, 2),
      make_event(obsx::TraceKind::kRegionDegrade, 1.5, obsx::kTraceNone, 0, 1),
      make_event(obsx::TraceKind::kApDown, 2.0, 9, 0),
  };
  std::ostringstream os;
  obsx::write_trace_jsonl(os, events);

  std::istringstream is{os.str()};
  std::string error;
  const auto back = obsx::read_trace_jsonl(is, &error);
  ASSERT_TRUE(back.has_value()) << error;
  ASSERT_EQ(back->size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ((*back)[i], events[i]) << "event " << i;
  }
}

TEST(TraceJsonl, OmitsAbsentFields) {
  const auto line =
      obsx::trace_line(make_event(obsx::TraceKind::kRegionRestore, 3.0,
                                  obsx::kTraceNone, 0, 2));
  EXPECT_EQ(line.find("\"node\""), std::string::npos);
  EXPECT_EQ(line.find("\"packet\""), std::string::npos);
  EXPECT_NE(line.find("\"region\":2"), std::string::npos);
}

TEST(TraceJsonl, RejectsMalformedLinesWithLineNumber) {
  std::istringstream is{"{\"t\":0,\"kind\":\"tx\"}\n{\"t\":1}\n"};
  std::string error;
  const auto result = obsx::read_trace_jsonl(is, &error);
  EXPECT_FALSE(result.has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos);
}

TEST(TraceJsonl, RejectsUnknownKind) {
  std::string error;
  EXPECT_FALSE(obsx::parse_trace_line("{\"t\":0,\"kind\":\"warp\"}", &error));
  EXPECT_NE(error.find("warp"), std::string::npos);
}

// ----------------------------------------------------------- JSON escaping ---

TEST(Json, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(obsx::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(obsx::json_escape("line1\nline2\ttab"), "line1\\nline2\\ttab");
  EXPECT_EQ(obsx::json_escape(std::string_view{"\x01\x1f", 2}), "\\u0001\\u001f");
}

TEST(Json, Utf8PassesThroughAndRoundTrips) {
  const std::string utf8 = "caf\xc3\xa9 \xe2\x86\x92 m\xc3\xbcnchen";
  EXPECT_EQ(obsx::json_escape(utf8), utf8);

  const std::string doc = "{\"k\": \"" + obsx::json_escape(utf8) + "\"}";
  std::string error;
  const auto obj = obsx::parse_flat_object(doc, &error);
  ASSERT_TRUE(obj.has_value()) << error;
  EXPECT_EQ(obj->at("k").str, utf8);
}

TEST(Json, ControlCharsSurviveEscapeParseRoundTrip) {
  const std::string nasty = std::string{"quote\" slash\\ nl\n cr\r nul"} +
                            std::string{1, '\0'} + "bell\x07";
  const std::string doc = "{\"k\": \"" + obsx::json_escape(nasty) + "\"}";
  std::string error;
  const auto obj = obsx::parse_flat_object(doc, &error);
  ASSERT_TRUE(obj.has_value()) << error;
  EXPECT_EQ(obj->at("k").str, nasty);
}

TEST(Json, ParserRejectsRawControlCharsAndNesting) {
  std::string error;
  EXPECT_FALSE(obsx::parse_flat_object("{\"k\": \"a\nb\"}", &error));
  EXPECT_FALSE(obsx::parse_flat_object("{\"k\": {\"nested\": 1}}", &error));
  EXPECT_FALSE(obsx::parse_flat_object("{\"k\": 1, \"k\": 2}", &error));
}

TEST(Json, NumberFormattingIsShortestRoundTrip) {
  EXPECT_EQ(obsx::json_number(0.5), "0.5");
  EXPECT_EQ(obsx::json_number(3.0), "3");
  EXPECT_EQ(obsx::json_number(std::uint64_t{12345}), "12345");
  // Non-finite doubles have no JSON representation.
  EXPECT_EQ(obsx::json_number(std::numeric_limits<double>::infinity()), "null");
}

// -------------------------------------------------------------- Histogram ---

TEST(Histogram, BucketEdgesAreInclusiveUpperBounds) {
  obsx::Histogram h{{1.0, 2.0, 4.0}};
  h.record(0.5);   // <= 1       -> bucket 0
  h.record(1.0);   // == edge    -> bucket 0 (inclusive)
  h.record(1.001); // (1, 2]     -> bucket 1
  h.record(2.0);   // == edge    -> bucket 1
  h.record(4.0);   // == edge    -> bucket 2
  h.record(4.001); // overflow   -> bucket 3
  const auto snap = h.snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.total, 6u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 1.001 + 2.0 + 4.0 + 4.001);
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(obsx::Histogram{std::vector<double>{}}, std::invalid_argument);
  EXPECT_THROW((obsx::Histogram{{2.0, 1.0}}), std::invalid_argument);
}

TEST(Histogram, BucketHelpers) {
  EXPECT_EQ(obsx::linear_buckets(10.0, 5.0, 3), (std::vector<double>{10, 15, 20}));
  EXPECT_EQ(obsx::exponential_buckets(1.0, 2.0, 4), (std::vector<double>{1, 2, 4, 8}));
}

// --------------------------------------------------------- HistogramTally ---

namespace {

/// The medium's latency histogram: its bounds and its sum quantum.
constexpr double kQuantum = 0x1p-30;
const std::vector<double> kLatencyBounds = obsx::exponential_buckets(1e-4, 4.0, 10);

/// Feeds `values` three ways into histograms over kLatencyBounds with
/// kQuantum: per value through record(); through a HistogramTally flushed
/// every `flush_every` values (0: once at the end); and through a plain
/// reference (std::lower_bound for the bucket, std::round for the quanta,
/// summed in order). Counts, total and sum must agree bit for bit.
void expect_tally_matches_record(const std::vector<double>& values,
                                 std::size_t flush_every = 0) {
  std::vector<std::uint64_t> counts(kLatencyBounds.size() + 1, 0);
  double sum = 0.0;
  for (const double v : values) {
    const auto it = std::lower_bound(kLatencyBounds.begin(), kLatencyBounds.end(), v);
    ++counts[static_cast<std::size_t>(it - kLatencyBounds.begin())];
    sum += std::round(v / kQuantum) * kQuantum;
  }

  obsx::Histogram one{kLatencyBounds};
  obsx::Histogram tallied{kLatencyBounds};
  one.set_sum_quantum(kQuantum);
  tallied.set_sum_quantum(kQuantum);
  obsx::HistogramTally tally;
  tally.bind(&tallied);
  for (std::size_t i = 0; i < values.size(); ++i) {
    one.record(values[i]);
    tally.add(values[i]);
    if (flush_every > 0 && (i + 1) % flush_every == 0) tally.flush();
  }
  tally.bind(nullptr);  // flushes

  for (const obsx::Histogram* h : {&one, &tallied}) {
    const char* const name = h == &one ? "record()" : "HistogramTally";
    EXPECT_EQ(h->counts(), counts) << name;
    EXPECT_EQ(h->total(), values.size()) << name;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(h->sum()), std::bit_cast<std::uint64_t>(sum))
        << name << ": sum " << h->sum() << " against " << sum;
  }
}

}  // namespace

TEST(HistogramTally, SeededDelaysMatchRecordBitForBit) {
  std::mt19937_64 rng{20241118};
  // Log-uniform over the buckets and past both ends, as fan-out delays.
  std::uniform_real_distribution<double> exponent{-6.0, 2.5};
  for (const std::size_t flush_every : {std::size_t{0}, std::size_t{1}, std::size_t{7}}) {
    std::vector<double> values;
    for (int i = 0; i < 20000; ++i) values.push_back(std::pow(10.0, exponent(rng)));
    expect_tally_matches_record(values, flush_every);
  }
}

TEST(HistogramTally, AdversarialValuesMatchRecordBitForBit) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  // Every bound exactly and one ulp either side, zeros, exact halves of a
  // quantum (half-away and half-to-even differ on the even ones) and their
  // neighbours, and negatives: sums far below 2^53 quanta.
  std::vector<double> edges{0.0, -0.0};
  for (const double b : kLatencyBounds) {
    edges.insert(edges.end(), {b, std::nextafter(b, inf), std::nextafter(b, -inf), -b});
  }
  for (const double k : {0.0, 1.0, 2.0, 3.0, 4.0, 1048576.0, 0x1p40, 0x1p40 + 1.0}) {
    const double half = (k + 0.5) * kQuantum;
    edges.insert(edges.end(), {half, std::nextafter(half, inf), std::nextafter(half, -inf),
                               -half});
  }
  expect_tally_matches_record(edges);
  expect_tally_matches_record(edges, 3);
  std::vector<double> reversed{edges.rbegin(), edges.rend()};
  expect_tally_matches_record(reversed);

  // Past 2^52 quanta every double is a whole number of quanta; one such
  // value and small ones keep the sum below 2^53 quanta, where it is exact.
  expect_tally_matches_record({(0x1p52 + 3.0) * kQuantum, 2.5 * kQuantum, 1e-3, 0.0});
  expect_tally_matches_record({-(0x1p52 + 1.0) * kQuantum, -2.5 * kQuantum, 7.0});
  // At 2^62 quanta and beyond, and non-finite values: record()'s own path.
  expect_tally_matches_record({0x1p62 * kQuantum});
  expect_tally_matches_record({0x1p70 * kQuantum, -0x1p70 * kQuantum});
  expect_tally_matches_record({1e-3, inf, 2.5 * kQuantum});
  expect_tally_matches_record({-inf, 1.0, -0.0});
  expect_tally_matches_record({inf, 1e-3, -inf});
}

TEST(HistogramTally, WithoutQuantumRecordsInArrivalOrder) {
  obsx::Histogram one{kLatencyBounds};
  obsx::Histogram tallied{kLatencyBounds};
  obsx::HistogramTally tally;
  tally.bind(&tallied);
  for (const double v : {0.1, 1e-5, 3.0, 0.3, 1e9}) {
    one.record(v);
    tally.add(v);
  }
  tally.flush();
  EXPECT_EQ(one.snapshot(), tallied.snapshot());
}

// --------------------------------------------------------- MetricsRegistry ---

TEST(MetricsRegistry, CounterHandlesAreStableAndGetOrCreate) {
  obsx::MetricsRegistry reg;
  obsx::Counter& a = reg.counter("x");
  obsx::Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(reg.snapshot().counters.at("x"), 3u);
  EXPECT_EQ(reg.find_counter("missing"), nullptr);
}

TEST(MetricsRegistry, HistogramBoundsMismatchThrows) {
  obsx::MetricsRegistry reg;
  const auto bounds = obsx::linear_buckets(1.0, 1.0, 3);
  reg.histogram("h", bounds);
  EXPECT_THROW(reg.histogram("h", obsx::linear_buckets(1.0, 2.0, 3)),
               std::invalid_argument);
}

TEST(MetricsSnapshot, MergeSumsCountersAndBuckets) {
  obsx::MetricsRegistry a;
  obsx::MetricsRegistry b;
  a.counter("c").inc(2);
  b.counter("c").inc(5);
  b.counter("only_b").inc(1);
  const auto bounds = obsx::linear_buckets(1.0, 1.0, 2);
  a.histogram("h", bounds).record(0.5);
  b.histogram("h", bounds).record(1.5);

  auto merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.counters.at("c"), 7u);
  EXPECT_EQ(merged.counters.at("only_b"), 1u);
  EXPECT_EQ(merged.histograms.at("h").total, 2u);
  EXPECT_EQ(merged.histograms.at("h").counts[0], 1u);
  EXPECT_EQ(merged.histograms.at("h").counts[1], 1u);
}

TEST(MetricsSnapshot, MergeRejectsMismatchedBounds) {
  obsx::MetricsRegistry a;
  obsx::MetricsRegistry b;
  a.histogram("h", obsx::linear_buckets(1.0, 1.0, 2));
  b.histogram("h", obsx::linear_buckets(2.0, 2.0, 2));
  auto snap = a.snapshot();
  EXPECT_THROW(snap.merge(b.snapshot()), std::invalid_argument);
}

// ---------------------------------------------------------------- Manifest ---

TEST(Manifest, Hex64AndFnv1a) {
  EXPECT_EQ(obsx::hex64(0), "0000000000000000");
  EXPECT_EQ(obsx::hex64(0xdeadbeefULL), "00000000deadbeef");
  // FNV-1a of empty input is the offset basis.
  EXPECT_EQ(obsx::Fnv1a{}.digest(), 0xcbf29ce484222325ULL);
  // Updating changes the digest deterministically.
  obsx::Fnv1a d1;
  obsx::Fnv1a d2;
  d1.update("row 1").update(std::uint64_t{42});
  d2.update("row 1").update(std::uint64_t{42});
  EXPECT_EQ(d1.digest(), d2.digest());
  d2.update("row 2");
  EXPECT_NE(d1.digest(), d2.digest());
}

TEST(Manifest, JsonHasRequiredKeysAndParses) {
  obsx::RunManifest m;
  m.name = "fig_test";
  m.city = "boston";
  m.set_param("pairs", std::uint64_t{50});
  m.set_param("range_m", 55.5);
  m.set_param("profile", "tall \"quoted\"");
  m.seeds["placement"] = 7;
  m.wall_clock_s = 1.25;
  m.digest = 0xabcULL;

  const std::string json = m.to_json();
  for (const char* key : {"\"schema\"", "\"name\"", "\"city\"", "\"params\"",
                          "\"seeds\"", "\"wall_clock_s\"", "\"digest\"",
                          "\"metrics\"", "\"counters\"", "\"histograms\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_NE(json.find(obsx::kManifestSchema), std::string::npos);
  EXPECT_NE(json.find("\"digest\": \"0000000000000abc\""), std::string::npos);
}

TEST(Manifest, DeterministicOutput) {
  const auto build = [] {
    obsx::RunManifest m;
    m.name = "det";
    m.set_param("w", 50.0);
    m.seeds["a"] = 1;
    obsx::MetricsRegistry reg;
    reg.counter("n").inc(3);
    reg.histogram("h", obsx::linear_buckets(1.0, 1.0, 2)).record(1.5);
    m.metrics = reg.snapshot();
    return m.to_json();
  };
  EXPECT_EQ(build(), build());
}

// ------------------------------------------------- Stable ids & end-to-end ---

TEST(DeriveMessageId, StableNonZeroAndSpread) {
  EXPECT_EQ(wire::derive_message_id(99, 1), wire::derive_message_id(99, 1));
  EXPECT_NE(wire::derive_message_id(99, 1), wire::derive_message_id(99, 2));
  EXPECT_NE(wire::derive_message_id(99, 1), wire::derive_message_id(100, 1));
  for (std::uint64_t s = 0; s < 64; ++s) {
    EXPECT_NE(wire::derive_message_id(0, s), 0u);
  }
}

namespace {

/// Three 10x10 buildings at x = 0/40/80: with density 1/100 m^2 each gets
/// exactly one AP (fractional expectation is 0, so placement is count-exact)
/// and with 55 m range the APs form a guaranteed line 0-1-2 (adjacent APs
/// are <= ~51 m apart, the ends >= 60 m).
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
  cfg.medium.jitter_s = 0.0;           // deterministic: ties break by insertion
  cfg.medium.prop_delay_s_per_m = 0.0; // hop latency = tx_delay exactly
  cfg.medium.tx_delay_s = 1e-3;
  return cfg;
}

std::span<const std::uint8_t> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

}  // namespace

TEST(TraceIntegration, ThreeApDeliveryEventSequence) {
  const auto city = three_building_city();
  core::CityMeshNetwork net{city, deterministic_config()};
  ASSERT_EQ(net.aps().ap_count(), 3u);

  const auto keys = cryptox::KeyPair::from_seed(11);
  const auto info = core::PostboxInfo::for_key(keys, 2);
  ASSERT_NE(net.register_postbox(info), nullptr);

  net.set_tracing(true);
  const auto outcome = net.send(0, info, bytes_of("ping"));
  ASSERT_TRUE(outcome.delivered);

  const auto events = net.merged_trace_events();
  using K = obsx::TraceKind;
  struct Expected {
    K kind;
    std::uint32_t node;
  };
  // The full lifecycle of one packet through a 3-AP line: source injects,
  // AP1 relays, AP0 suppresses the echo, AP2 stores + relays, AP1 suppresses.
  const std::vector<Expected> expected{
      {K::kOriginate, 0}, {K::kTx, 0},
      {K::kRx, 1},        {K::kRebroadcast, 1}, {K::kTx, 1},
      {K::kRx, 0},        {K::kDupSuppressed, 0},
      {K::kRx, 2},        {K::kPostboxStore, 2}, {K::kRebroadcast, 2}, {K::kTx, 2},
      {K::kRx, 1},        {K::kDupSuppressed, 1},
  };
  ASSERT_EQ(events.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(events[i].kind, expected[i].kind) << "event " << i;
    EXPECT_EQ(events[i].node, expected[i].node) << "event " << i;
    EXPECT_EQ(events[i].packet, outcome.message_id) << "event " << i;
  }
  // Times: injection at 0, first hop at tx_delay, echo/second hop at 2x.
  EXPECT_DOUBLE_EQ(events[0].time_s, 0.0);
  EXPECT_DOUBLE_EQ(events[2].time_s, 1e-3);
  EXPECT_DOUBLE_EQ(events[7].time_s, 2e-3);

  // The trace agrees with the authoritative counters.
  EXPECT_EQ(net.medium_totals().transmissions, 3u);
  EXPECT_EQ(outcome.transmissions, 3u);
  const auto roles = core::roles_from_trace(events, outcome.message_id);
  EXPECT_EQ(roles.rebroadcast, (std::vector<citymesh::mesh::ApId>{0, 1, 2}));
  EXPECT_TRUE(roles.received_only.empty());
}

TEST(TraceIntegration, JsonlRoundTripPreservesSequence) {
  const auto city = three_building_city();
  core::CityMeshNetwork net{city, deterministic_config()};
  const auto keys = cryptox::KeyPair::from_seed(12);
  const auto info = core::PostboxInfo::for_key(keys, 2);
  ASSERT_NE(net.register_postbox(info), nullptr);
  net.set_tracing(true);
  const auto outcome = net.send(0, info, bytes_of("x"));
  ASSERT_TRUE(outcome.delivered);

  std::ostringstream os;
  const auto original = net.merged_trace_events();
  obsx::write_trace_jsonl(os, original);
  std::istringstream is{os.str()};
  std::string error;
  const auto back = obsx::read_trace_jsonl(is, &error);
  ASSERT_TRUE(back.has_value()) << error;
  ASSERT_EQ(back->size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ((*back)[i], original[i]) << "event " << i;
  }
}

TEST(TraceIntegration, SameSeedGivesByteIdenticalMetricsSnapshot) {
  const auto run = [] {
    const auto city = three_building_city();
    core::CityMeshNetwork net{city, deterministic_config()};
    const auto keys = cryptox::KeyPair::from_seed(13);
    const auto info = core::PostboxInfo::for_key(keys, 2);
    net.register_postbox(info);
    net.send(0, info, bytes_of("abc"));
    net.send(0, info, bytes_of("def"));
    return net.merged_metrics().to_json();
  };
  EXPECT_EQ(run(), run());
}

TEST(TraceIntegration, MetricsCountTheSequence) {
  const auto city = three_building_city();
  core::CityMeshNetwork net{city, deterministic_config()};
  const auto keys = cryptox::KeyPair::from_seed(14);
  const auto info = core::PostboxInfo::for_key(keys, 2);
  ASSERT_NE(net.register_postbox(info), nullptr);
  const auto outcome = net.send(0, info, bytes_of("count me"));
  ASSERT_TRUE(outcome.delivered);

  const auto snap = net.merged_metrics();
  EXPECT_EQ(snap.counters.at("medium.transmissions"), 3u);
  EXPECT_EQ(snap.counters.at("net.sends"), 1u);
  EXPECT_EQ(snap.counters.at("net.delivered"), 1u);
  EXPECT_EQ(snap.counters.at("net.rebroadcasts"), 2u);
  EXPECT_EQ(snap.counters.at("net.dup_suppressed"), 2u);
  EXPECT_EQ(snap.counters.at("net.postbox_stores"), 1u);
  EXPECT_EQ(snap.histograms.at("net.header_bits").total, 1u);
  EXPECT_EQ(snap.histograms.at("net.tx_per_delivery").total, 1u);
}
