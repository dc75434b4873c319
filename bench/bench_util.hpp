// Shared helpers for the ablation benches.
#pragma once

#include <malloc.h>

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

#include "core/evaluation.hpp"
#include "obsx/manifest.hpp"
#include "osmx/citygen.hpp"

namespace citymesh::benchutil {

/// Uniform `--json [FILE]` support for every bench binary: construct one at
/// the top of main (it strips --json from argv so the bench's own flag
/// parsing stays oblivious), fold printed rows into the determinism digest
/// with row(), attach metrics snapshots, and `return emit.finish();`.
/// Bare `--json` writes the canonical BENCH_<name>.json in the CWD.
/// With no --json flag this costs a clock read and writes nothing.
class ManifestEmitter {
 public:
  ManifestEmitter(std::string name, int& argc, char** argv)
      : start_(std::chrono::steady_clock::now()) {
    manifest_.name = std::move(name);
    int out = 1;
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--json") {
        if (i + 1 < argc && argv[i + 1][0] != '-') {
          path_ = argv[++i];
        } else {
          path_ = "BENCH_" + manifest_.name + ".json";
        }
      } else if (arg.rfind("--json=", 0) == 0) {
        path_ = std::string{arg.substr(7)};
      } else {
        argv[out++] = argv[i];
      }
    }
    argc = out;
    argv[argc] = nullptr;
  }

  bool enabled() const { return !path_.empty(); }
  obsx::RunManifest& manifest() { return manifest_; }
  obsx::Fnv1a& digest() { return digest_; }
  std::string digest_hex() const { return obsx::hex64(digest_.digest()); }

  /// Fold one printed result row into the determinism digest.
  void row(std::string_view line) { digest_.update(line); }

  /// Merge a run's metrics snapshot into the manifest (mergeable across
  /// cities/seeds).
  void add_metrics(const obsx::MetricsSnapshot& snap) {
    manifest_.metrics.merge(snap);
  }

  /// Stamp wall clock + digest and write the manifest when --json was
  /// given. Returns `code`, or 1 when the manifest could not be written.
  int finish(int code = 0) {
    manifest_.wall_clock_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
    manifest_.digest = digest_.digest();
    if (!path_.empty() && !manifest_.write_file(path_)) {
      std::fprintf(stderr, "error: failed to write manifest %s\n", path_.c_str());
      return 1;
    }
    return code;
  }

 private:
  std::chrono::steady_clock::time_point start_;
  obsx::RunManifest manifest_;
  obsx::Fnv1a digest_;
  std::string path_;
};

/// Process memory from /proc/self/status, kiB. vm_hwm_kib is the peak
/// resident set since process start (monotonic — deltas around a phase give
/// that phase's *additional* peak); vm_rss_kib is the current resident set.
/// Both 0 on platforms without procfs (columns then read 0, digests are
/// unaffected: memory cells never fold into a manifest digest).
struct MemUsage {
  std::uint64_t vm_hwm_kib = 0;
  std::uint64_t vm_rss_kib = 0;
};

inline MemUsage read_mem_usage() {
  MemUsage mem;
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return mem;
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      mem.vm_hwm_kib = std::strtoull(line + 6, nullptr, 10);
    } else if (std::strncmp(line, "VmRSS:", 6) == 0) {
      mem.vm_rss_kib = std::strtoull(line + 6, nullptr, 10);
    }
  }
  std::fclose(f);
  return mem;
}

/// Live heap bytes of the process: the malloc chunks in use, every arena
/// and the mmapped ones included. Unlike VmHWM it falls when memory is
/// freed, so a delta around a phase is what that phase still holds.
inline std::size_t heap_in_use_bytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

/// Strip `--jobs N` / `--jobs=N` from argv the way ManifestEmitter strips
/// --json, so the bench's own positional arguments stay oblivious. Returns
/// the runx worker-thread count (default `def`; 0 = all hardware threads).
/// The merged rows and digest are identical for any value — --jobs trades
/// wall clock only.
inline std::size_t parse_jobs(int& argc, char** argv, std::size_t def = 1) {
  std::size_t jobs = def;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--jobs" && i + 1 < argc) {
      jobs = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg.rfind("--jobs=", 0) == 0) {
      jobs = static_cast<std::size_t>(std::strtoull(argv[i] + 7, nullptr, 10));
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  argv[argc] = nullptr;
  return jobs;
}

/// Fold a whole results table (row-major cells) into the digest.
inline void digest_rows(ManifestEmitter& emit,
                        const std::vector<std::vector<std::string>>& rows) {
  for (const auto& r : rows) {
    for (const auto& cell : r) emit.row(cell);
  }
}

/// A mid-size city used by ablations: structurally a downtown-plus-
/// residential fabric with one bridged river, small enough that a parameter
/// sweep of full evaluations completes in seconds per point.
inline osmx::CityProfile ablation_profile() {
  osmx::CityProfile p;
  p.name = "ablation-town";
  p.width_m = 1600;
  p.height_m = 1400;
  p.rivers.push_back({.position_frac = 0.7, .width_m = 110.0, .vertical = false,
                      .bridges = {0.5}});
  p.seed = 71;
  return p;
}

inline osmx::City ablation_city() { return osmx::generate_city(ablation_profile()); }

/// Evaluation protocol shrunk for sweeps (the headline Figure-6 bench runs
/// the paper's full 1000/50 protocol).
inline core::EvaluationConfig sweep_config() {
  core::EvaluationConfig cfg;
  cfg.reachability_pairs = 300;
  cfg.deliverability_pairs = 25;
  return cfg;
}

}  // namespace citymesh::benchutil
