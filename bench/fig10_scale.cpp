// Figure 10 (extension): scaling one metro-scale run with tiled parallel
// simulation (src/shardx).
//
// The paper simulates each city sequentially; a metro-scale fabric (tens of
// thousands of APs under offered load) makes one run the bottleneck rather
// than the sweep grid. This bench runs the same airtime-contention workload
// on a ladder of growing synthetic cities with the engine partitioned into
// K = 1/2/4/8 building-atomic tiles under conservative lookahead, and
// reports wall clock, speedup over the sequential engine, and the number of
// cross-tile handoffs exchanged at window barriers.
//
// Correctness is part of the bench: the workload runs in the draw-free
// regime (no jitter, no loss, flood relay), where every shard count must
// produce identical behavior. Each row's behavioral cells (offered flows,
// delivery rate, transmissions, p50 latency) fold into a per-shard-count
// digest, and the bench *fails* (exit 1) if any K disagrees with K=1 on the
// same city. Wall clock and speedup columns stay out of the digest — they
// are the only cells allowed to vary between machines and shard counts.
//
// Expected shape: >=2x speedup at 4 shards on >=4 hardware threads for the
// larger rungs; on fewer cores the speedup column flattens toward 1x while
// the digest check still bites. `--quick` shrinks the ladder for smoke/CI.
//
// Metro-memory columns: every row also reports the process peak RSS
// (VmHWM), the live heap per AP that the row's network holds after its run
// (B/AP: the heap in use after the run less before the network's build),
// the live heap per AP that the rung's compiled city holds (compile B/AP,
// measured once around the compile), and the cumulative barrier idle time
// (workers waiting for the slowest tile each window). The two B/AP columns
// read the heap itself, not VmHWM, so they do not depend on which row set
// the process peak; the manifest's perf section carries both for K = 1, as
// mem.<rung>.k1_bytes_per_ap and mem.<rung>.compile_bytes_per_ap.
// `--tiling grid|adaptive` selects the partitioner (default adaptive);
// behavioral digests are invariant across modes, so the choice trades
// barrier idle and wall clock only. `--rung NAME` restricts the ladder to
// one rung, for a fresh-process peak RSS of that city size.
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/network.hpp"
#include "osmx/citygen.hpp"
#include "shardx/tiling.hpp"
#include "runx/city_cache.hpp"
#include "trafficx/runner.hpp"
#include "trafficx/workload.hpp"
#include "viz/ascii.hpp"

namespace core = citymesh::core;
namespace osmx = citymesh::osmx;
namespace runx = citymesh::runx;
namespace trafficx = citymesh::trafficx;
namespace viz = citymesh::viz;

namespace {

constexpr std::size_t kShardCounts[] = {1, 2, 4, 8};
constexpr std::uint64_t kWorkloadSeed = 1010;
constexpr double kBitrateBps = 250e3;
constexpr double kRatePerS = 4.0;
constexpr double kDurationS = 12.0;
constexpr double kQuickDurationS = 4.0;

struct Rung {
  const char* name;
  double width_m;
  double height_m;
};
constexpr Rung kLadder[] = {{"metro-s", 900, 700},
                            {"metro-m", 1500, 1100},
                            {"metro-l", 2200, 1600},
                            {"metro-xl", 3000, 2200},
                            {"metro-xxl", 4200, 3100}};
constexpr Rung kQuickLadder[] = {{"metro-s", 900, 700}};

osmx::CityProfile rung_profile(const Rung& rung) {
  osmx::CityProfile p;
  p.name = rung.name;
  p.width_m = rung.width_m;
  p.height_m = rung.height_m;
  p.seed = 101;
  return p;
}

// Draw-free regime: serialization timing is deterministic (finite bitrate,
// zero jitter), nothing is lost, and the flood policy draws no randomness —
// so the tiled engine must reproduce the sequential engine event for event.
core::NetworkConfig network_config(std::size_t shards,
                                   citymesh::shardx::TilingMode tiling) {
  core::NetworkConfig config;
  config.placement.seed = 7;
  config.placement.density_per_m2 = 1.0 / 60.0;
  config.seed = 99;
  config.shards = shards;
  config.tiling = tiling;
  config.medium.bitrate_bps = kBitrateBps;
  config.medium.jitter_s = 0.0;
  config.medium.loss_probability = 0.0;
  return config;
}

/// Live heap bytes gained since `before` (a heap_in_use_bytes() reading);
/// negative when more was freed than allocated.
double heap_growth_since(std::size_t before) {
  return static_cast<double>(citymesh::benchutil::heap_in_use_bytes()) -
         static_cast<double>(before);
}

trafficx::WorkloadSpec workload_spec(double duration_s) {
  trafficx::WorkloadSpec spec;
  spec.name = "fig10";
  spec.seed = kWorkloadSeed;
  spec.duration_s = duration_s;
  spec.rate_per_s = kRatePerS;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  citymesh::benchutil::ManifestEmitter emit{"fig10_scale", argc, argv};
  bool quick = false;
  // Adaptive (event-rate-balanced) tiling is the default; --tiling grid
  // selects the uniform centroid grid. The behavioral digest is invariant
  // across modes — check.sh pins that by diffing the two.
  citymesh::shardx::TilingMode tiling = citymesh::shardx::TilingMode::kAdaptive;
  const char* tiling_name = "adaptive";
  const char* rung_filter = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--rung") == 0 && i + 1 < argc) {
      rung_filter = argv[i + 1];
    }
    if (std::strcmp(argv[i], "--tiling") == 0 && i + 1 < argc) {
      if (std::strcmp(argv[i + 1], "grid") == 0) {
        tiling = citymesh::shardx::TilingMode::kGrid;
        tiling_name = "grid";
      } else if (std::strcmp(argv[i + 1], "adaptive") == 0) {
        tiling = citymesh::shardx::TilingMode::kAdaptive;
        tiling_name = "adaptive";
      } else {
        std::cerr << "fig10_scale: unknown --tiling mode '" << argv[i + 1]
                  << "' (grid|adaptive)\n";
        return 2;
      }
    }
  }
  const double duration_s = quick ? kQuickDurationS : kDurationS;
  std::vector<Rung> ladder;
  for (const Rung& rung :
       quick ? std::span<const Rung>{kQuickLadder} : std::span<const Rung>{kLadder}) {
    if (rung_filter == nullptr || std::strcmp(rung.name, rung_filter) == 0) {
      ladder.push_back(rung);
    }
  }
  if (ladder.empty()) {
    std::cerr << "fig10_scale: --rung '" << rung_filter
              << "' matches no ladder rung\n";
    return 2;
  }

  std::cout << "CityMesh extension - Figure 10 (tiled parallel scaling)\n"
            << "one workload per (city size, shard count); draw-free regime so\n"
            << "every shard count must reproduce the sequential engine ("
            << std::thread::hardware_concurrency() << " hardware thread(s), "
            << tiling_name << " tiling" << (quick ? ", --quick ladder" : "")
            << ")\n";

  emit.manifest().city = "ladder";
  emit.manifest().seeds["workload"] = kWorkloadSeed;
  emit.manifest().set_param("duration_s", duration_s);
  emit.manifest().set_param("bitrate_bps", kBitrateBps);
  emit.manifest().set_param("quick", quick ? std::uint64_t{1} : std::uint64_t{0});
  emit.manifest().set_param("tiling_adaptive",
                            tiling == citymesh::shardx::TilingMode::kAdaptive
                                ? std::uint64_t{1}
                                : std::uint64_t{0});

  runx::CityCache cache;
  std::vector<std::vector<std::string>> rows;
  bool digest_ok = true;
  for (const Rung& rung : ladder) {
    const osmx::CityProfile profile = rung_profile(rung);
    emit.manifest().seeds[profile.name] = profile.seed;
    // The compiled city is shard-count independent; all K share one compile.
    const std::size_t heap_before_compile = citymesh::benchutil::heap_in_use_bytes();
    const auto compiled = cache.get(profile, network_config(1, tiling));
    const double per_ap = 1.0 / static_cast<double>(compiled->aps.ap_count());
    const double compile_bytes_per_ap =
        heap_growth_since(heap_before_compile) * per_ap;
    const auto schedule =
        trafficx::compile(workload_spec(duration_s), compiled->city);

    std::string baseline_digest;
    double baseline_wall_s = 0.0;
    for (const std::size_t shards : kShardCounts) {
      const core::NetworkConfig config = network_config(shards, tiling);
      // The heap the network and its run still hold once the run ends, per
      // AP; the K = 1 row also counts the compiled city's lazily built tables
      // (landmarks, hop bounds) its run is the first to use. Memory cells
      // (like wall clock) stay out of the behavioral digest.
      const std::size_t heap_before = citymesh::benchutil::heap_in_use_bytes();
      core::CityMeshNetwork network{compiled, config};
      const auto t0 = std::chrono::steady_clock::now();
      const auto run = trafficx::run_workload(network, schedule);
      const double wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      const double bytes_per_ap = heap_growth_since(heap_before) * per_ap;
      const auto mem_after = citymesh::benchutil::read_mem_usage();
      const core::CapacitySummary& s = run.summary;

      // Behavioral cells only — identical across shard counts by contract.
      const std::vector<std::string> behavior = {
          profile.name,
          std::to_string(compiled->aps.ap_count()),
          std::to_string(s.flows_offered),
          viz::fmt(s.delivery_rate(), 3),
          std::to_string(s.transmissions),
          viz::fmt(s.latency_p50_s * 1e3, 2)};
      citymesh::obsx::Fnv1a row_digest;
      for (const auto& cell : behavior) row_digest.update(cell);
      const std::string hex = citymesh::obsx::hex64(row_digest.digest());
      if (shards == kShardCounts[0]) {
        baseline_digest = hex;
        baseline_wall_s = wall_s;
        auto& perf = emit.manifest().perf;
        perf["mem." + profile.name + ".k1_bytes_per_ap"] = bytes_per_ap;
        perf["mem." + profile.name + ".compile_bytes_per_ap"] = compile_bytes_per_ap;
      } else if (hex != baseline_digest) {
        digest_ok = false;
        std::cerr << "fig10_scale: " << profile.name << " shards=" << shards
                  << " behavior digest " << hex << " != shards="
                  << kShardCounts[0] << " digest " << baseline_digest << '\n';
      }
      for (const auto& cell : behavior) emit.row(cell);
      emit.add_metrics(run.metrics);

      std::vector<std::string> row = behavior;
      row.insert(row.begin() + 2, std::to_string(shards));
      row.push_back(std::to_string(network.handoffs_exchanged()));
      row.push_back(viz::fmt(wall_s, 3));
      row.push_back(wall_s > 0.0 ? viz::fmt(baseline_wall_s / wall_s, 2) + "x"
                                 : "-");
      row.push_back(viz::fmt(static_cast<double>(mem_after.vm_hwm_kib) / 1024.0, 1));
      row.push_back(viz::fmt(bytes_per_ap, 0));
      row.push_back(viz::fmt(compile_bytes_per_ap, 0));
      row.push_back(viz::fmt(network.barrier_idle_s(), 3));
      rows.push_back(std::move(row));
    }
  }

  viz::print_table(std::cout, "Figure 10: tiled parallel scaling (shardx)",
                   {"city", "aps", "shards", "offered", "deliver", "tx",
                    "p50 ms", "handoffs", "wall s", "speedup", "peak MiB",
                    "B/AP", "compile B/AP", "idle s"},
                   rows);

  std::cout << "\nDeterminism digest: " << emit.digest_hex()
            << "  (behavioral cells only; identical for every shard count)\n"
            << (digest_ok
                    ? "Shard-count invariance: OK (every K matched K=1)\n"
                    : "Shard-count invariance: FAILED (see stderr)\n")
            << "Expected shape: speedup grows with city size and shard count up\n"
            << "to the hardware thread count; handoffs grow with the cut size\n"
            << "while the behavioral columns never move.\n";
  return emit.finish(digest_ok ? 0 : 1);
}
