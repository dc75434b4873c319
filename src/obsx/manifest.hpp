// Machine-readable run manifests (src/obsx).
//
// One JSON document per bench/CLI run: what was run (city profile, seeds,
// range/density/W parameters), how long it took, the metrics snapshot, and
// the run's determinism digest. Every bench emits one via `--json FILE`
// (bench_util.hpp wires the flag), so a perf trajectory is a directory of
// BENCH_<name>.json files instead of scraped stdout.
//
// Output is deterministic: std::map-ordered keys and shortest-round-trip
// number formatting, so same seed => byte-identical manifest modulo the
// wall-clock field.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "obsx/metrics.hpp"

namespace citymesh::obsx {

/// FNV-1a 64-bit accumulator — the determinism digest every bench prints
/// (two same-seed runs must produce the identical digest).
class Fnv1a {
 public:
  Fnv1a& update(std::string_view s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  Fnv1a& update(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (i * 8)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Lower-case hex rendering of a 64-bit digest (fixed 16 chars).
std::string hex64(std::uint64_t v);

constexpr std::string_view kManifestSchema = "citymesh-manifest-v1";

struct RunManifest {
  std::string name;                ///< bench/run name, e.g. "fig6_cities"
  std::string city;                ///< profile name(s); empty when n/a
  std::map<std::string, std::string> params;  ///< stringified run parameters
  std::map<std::string, std::uint64_t> seeds;
  double wall_clock_s = 0.0;
  std::uint64_t digest = 0;        ///< determinism digest over the run's rows
  MetricsSnapshot metrics;
  std::map<std::string, std::string> notes;  ///< free-form extras
  /// What the run cost the engine: wall-clock splits and engine counters
  /// (settled receptions, events, windows, barrier idle, handoffs). Outside
  /// the digest, and it varies with shard count, tracing and the host, so
  /// it is written only when non-empty: manifests that leave it empty keep
  /// their bytes.
  std::map<std::string, double> perf;

  void set_param(std::string_view key, double value);
  void set_param(std::string_view key, std::uint64_t value);
  void set_param(std::string_view key, std::string_view value);

  void write_json(std::ostream& os) const;
  std::string to_json() const;
  /// Write to `path`; false on I/O failure.
  bool write_file(const std::string& path) const;
};

}  // namespace citymesh::obsx
