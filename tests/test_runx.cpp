// Tests for the parallel experiment engine (src/runx): merge determinism
// across worker counts, per-row error capture, the compiled-city cache's
// exact compile accounting, sweep-spec parsing/expansion, and the
// regression guard that two sequential in-process same-seed sweeps produce
// byte-identical manifests (no hidden global mutable state in a run).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/network.hpp"
#include "core/postbox.hpp"
#include "cryptox/identity.hpp"
#include "faultx/engine.hpp"
#include "faultx/scenario.hpp"
#include "graphx/parallel.hpp"
#include "osmx/citygen.hpp"
#include "runx/city_cache.hpp"
#include "runx/engine.hpp"
#include "runx/sweep.hpp"
#include "trafficx/runner.hpp"
#include "trafficx/workload.hpp"
#include "link_reference.hpp"

namespace runx = citymesh::runx;
namespace core = citymesh::core;
namespace osmx = citymesh::osmx;
namespace faultx = citymesh::faultx;
namespace trafficx = citymesh::trafficx;
namespace obsx = citymesh::obsx;

namespace {

/// A deterministic pure run function: the result depends only on the job.
runx::RunResult synthetic_run(const runx::RunJob& job) {
  runx::RunResult r;
  r.cells = {job.city + "-" + std::to_string(job.seed),
             std::to_string(job.index * 7)};
  r.metrics.counters["runs"] += 1;
  r.metrics.counters["seed_sum"] += job.seed;
  return r;
}

std::vector<runx::RunJob> synthetic_grid(std::size_t n) {
  std::vector<runx::RunJob> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    runx::RunJob job;
    job.city = "c" + std::to_string(i % 3);
    job.seed = i;
    job.point = "p";
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// The 2-city x 4-seed x 2-scenario sweep of the determinism contract,
/// shrunk to a fast protocol. Points reference scenario files written by
/// write_scenario_specs().
runx::SweepSpec contract_spec(const std::string& dir) {
  const std::string text = "name determinism-contract\n"
                           "cities cambridge miami\n"
                           "seeds 1 2\n"
                           "seeds 3 4\n"   // seeds accumulate across lines
                           "pairs 20\n"
                           "deliver 2\n"
                           "point scenario " + dir + "/blackout.spec\n"
                           "point scenario " + dir + "/churn.spec\n";
  std::string error;
  const auto spec = runx::parse_sweep(text, &error);
  EXPECT_TRUE(spec) << error;
  return *spec;
}

void write_scenario_specs(const std::string& dir) {
  {
    std::ofstream out{dir + "/blackout.spec"};
    out << "name test-blackout\nblackout rect 400 400 1400 1400 at 0\n";
    ASSERT_TRUE(out.good());
  }
  {
    std::ofstream out{dir + "/churn.spec"};
    out << "name test-churn\nchurn frac 0.2 up 200 down 80 from 0 to 100\n";
    ASSERT_TRUE(out.good());
  }
}

}  // namespace

// --- engine ----------------------------------------------------------------

TEST(RunxEngine, DigestAndRowsIndependentOfWorkerCount) {
  const auto baseline = runx::run_jobs(synthetic_grid(64), synthetic_run, {1});
  for (const std::size_t workers : {2, 4, 8}) {
    const auto report =
        runx::run_jobs(synthetic_grid(64), synthetic_run, {workers});
    EXPECT_EQ(report.digest, baseline.digest) << workers << " workers";
    EXPECT_EQ(report.rows(), baseline.rows()) << workers << " workers";
    EXPECT_EQ(report.metrics.counters.at("seed_sum"),
              baseline.metrics.counters.at("seed_sum"));
  }
  EXPECT_EQ(baseline.errors, 0u);
  EXPECT_EQ(baseline.metrics.counters.at("runs"), 64u);
}

TEST(RunxEngine, EmptyGridProducesEmptyStableReport) {
  const auto a = runx::run_jobs({}, synthetic_run, {1});
  const auto b = runx::run_jobs({}, synthetic_run, {8});
  EXPECT_TRUE(a.jobs.empty());
  EXPECT_TRUE(a.rows().empty());
  EXPECT_EQ(a.errors, 0u);
  EXPECT_EQ(a.digest, b.digest);
}

TEST(RunxEngine, ThrowingJobIsCapturedPerRowNotFatal) {
  const runx::RunFn fn = [](const runx::RunJob& job) {
    if (job.index == 3) throw std::runtime_error("boom");
    if (job.index == 5) throw 42;  // non-std exception
    return synthetic_run(job);
  };
  const auto report = runx::run_jobs(synthetic_grid(8), fn, {4});
  EXPECT_EQ(report.errors, 2u);
  EXPECT_FALSE(report.results[3].ok());
  EXPECT_EQ(report.results[3].error, "boom");
  EXPECT_EQ(report.results[5].error, "non-std exception");
  for (const std::size_t i : {0u, 1u, 2u, 4u, 6u, 7u}) {
    EXPECT_TRUE(report.results[i].ok()) << "row " << i;
  }
  // Error rows fold into the digest too, deterministically.
  const auto again = runx::run_jobs(synthetic_grid(8), fn, {1});
  EXPECT_EQ(report.digest, again.digest);
  EXPECT_EQ(report.rows()[3].back(), "ERROR: boom");
}

TEST(RunxEngine, ResolveJobs) {
  EXPECT_EQ(runx::resolve_jobs(1), 1u);
  EXPECT_EQ(runx::resolve_jobs(5), 5u);
  EXPECT_GE(runx::resolve_jobs(0), 1u);  // hardware concurrency, min 1
}

// --- city cache ------------------------------------------------------------

TEST(RunxCityCache, CompilesOncePerDistinctKeyUnderConcurrency) {
  runx::CityCache cache;
  const auto a = osmx::profile_by_name("cambridge");
  const auto b = osmx::profile_by_name("miami");
  const core::NetworkConfig config;

  std::vector<std::shared_ptr<const core::CompiledCity>> got(8);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < got.size(); ++i) {
    threads.emplace_back([&, i] { got[i] = cache.get(i % 2 ? b : a, config); });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(cache.compiles(), 2u);
  // Same key means the *same* shared object, not an equal copy.
  for (std::size_t i = 2; i < got.size(); ++i) {
    EXPECT_EQ(got[i].get(), got[i % 2].get());
  }
  EXPECT_EQ(got[0]->city.name(), "cambridge");
  EXPECT_EQ(got[1]->city.name(), "miami");

  // A repeat lookup hits the cache.
  cache.get(a, config);
  EXPECT_EQ(cache.compiles(), 2u);
}

// Two distinct cities compiled at once on two sweep workers: each worker
// compiles within its share of the caller's CPUs (graphx::CpuShare), so
// the workers never start more compile threads than the caller has, and
// each compiled city equals one compiled on a single CPU.
TEST(RunxCityCache, ConcurrentWorkersCompileWithinTheirShare) {
  runx::CityCache cache;
  const core::NetworkConfig config;
  const std::vector<runx::RunJob> jobs = {{0, "cambridge", 1, "compile"},
                                          {1, "miami", 1, "compile"}};
  std::vector<std::shared_ptr<const core::CompiledCity>> got(jobs.size());
  std::vector<std::size_t> worker_cpus(jobs.size(), 0);
  runx::EngineConfig engine;
  engine.jobs = 2;
  const runx::SweepReport report = runx::run_jobs(
      jobs,
      [&](const runx::RunJob& job) {
        worker_cpus[job.index] = citymesh::graphx::compile_cpus();
        got[job.index] = cache.get(osmx::profile_by_name(job.city), config);
        runx::RunResult r;
        r.cells = {std::to_string(got[job.index]->aps.ap_count())};
        return r;
      },
      engine);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(cache.compiles(), 2u);
  const std::size_t share = std::max<std::size_t>(citymesh::graphx::compile_cpus() / 2, 1);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(jobs[i].city);
    EXPECT_EQ(worker_cpus[i], share);
    EXPECT_EQ(got[i]->compile_cpus, share);
    const citymesh::graphx::CpuShare one{1};
    const auto alone =
        core::compile_city(osmx::generate_city(osmx::profile_by_name(jobs[i].city)), config);
    EXPECT_EQ(alone->compile_cpus, 1u);
    EXPECT_EQ(link_reference::fingerprint(got[i]->aps.graph(), got[i]->aps.positions()),
              link_reference::fingerprint(alone->aps.graph(), alone->aps.positions()));
    EXPECT_EQ(link_reference::fingerprint(got[i]->map.graph()),
              link_reference::fingerprint(alone->map.graph()));
    EXPECT_EQ(got[i]->aps.components().component_of, alone->aps.components().component_of);
  }
}

TEST(RunxCityCache, KeyReflectsPlacementParameters) {
  const auto profile = osmx::profile_by_name("cambridge");
  core::NetworkConfig a;
  core::NetworkConfig b;
  b.placement.density_per_m2 = a.placement.density_per_m2 * 2.0;
  EXPECT_NE(runx::CityCache::key_for(profile, a),
            runx::CityCache::key_for(profile, b));
  EXPECT_EQ(runx::CityCache::key_for(profile, a),
            runx::CityCache::key_for(profile, a));
}

// --- sweep spec ------------------------------------------------------------

TEST(RunxSweep, ParsesFullGrammar) {
  std::string error;
  const auto spec = runx::parse_sweep(
      "# comment\n"
      "name nightly\n"
      "cities boston chicago\n"
      "cities miami\n"
      "seeds 1 2 3\n"
      "pairs 120\n"
      "deliver 10\n"
      "point eval\n"
      "point scenario specs/x.spec\n"
      "point workload specs/y.spec\n",
      &error);
  ASSERT_TRUE(spec) << error;
  EXPECT_EQ(spec->name, "nightly");
  EXPECT_EQ(spec->cities, (std::vector<std::string>{"boston", "chicago", "miami"}));
  EXPECT_EQ(spec->seeds, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(spec->pairs, 120u);
  EXPECT_EQ(spec->deliver, 10u);
  ASSERT_EQ(spec->points.size(), 3u);
  EXPECT_EQ(spec->points[0].kind, runx::SweepPoint::Kind::kEval);
  EXPECT_EQ(spec->points[1].kind, runx::SweepPoint::Kind::kScenario);
  EXPECT_EQ(spec->points[1].label, "scenario:x");
  EXPECT_EQ(spec->points[2].kind, runx::SweepPoint::Kind::kWorkload);
  EXPECT_EQ(spec->points[2].path, "specs/y.spec");
}

TEST(RunxSweep, RejectsBadLinesWithLineNumber) {
  std::string error;
  EXPECT_FALSE(runx::parse_sweep("cities boston\nnonsense 1 2\n", &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_FALSE(runx::parse_sweep("seeds 1\n", &error));  // no cities
  EXPECT_NE(error.find("cities"), std::string::npos) << error;
  EXPECT_FALSE(runx::parse_sweep("cities boston\npoint scenario\n", &error));
  EXPECT_FALSE(runx::parse_sweep("cities boston\nseeds nope\n", &error));
}

TEST(RunxSweep, ExpandsCityMajorWithDefaults) {
  std::string error;
  const auto spec = runx::parse_sweep("cities a b\n", &error);
  ASSERT_TRUE(spec) << error;
  const auto jobs = runx::expand(*spec);  // seeds default {1}, point eval
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].city, "a");
  EXPECT_EQ(jobs[1].city, "b");
  EXPECT_EQ(jobs[0].seed, 1u);
  EXPECT_EQ(jobs[0].point, "eval");

  const auto full = runx::parse_sweep(
      "cities a b\nseeds 7 8\npoint eval\npoint scenario s.spec\n", &error);
  ASSERT_TRUE(full) << error;
  const auto grid = runx::expand(*full);
  ASSERT_EQ(grid.size(), 8u);  // 2 cities x 2 seeds x 2 points, city-major
  EXPECT_EQ(grid[0].city, "a");
  EXPECT_EQ(grid[0].seed, 7u);
  EXPECT_EQ(grid[0].point, "eval");
  EXPECT_EQ(grid[1].point, "scenario:s");
  EXPECT_EQ(grid[2].seed, 8u);
  EXPECT_EQ(grid[4].city, "b");
  for (std::size_t i = 0; i < grid.size(); ++i) EXPECT_EQ(grid[i].index, i);
}

// --- end-to-end sweeps -----------------------------------------------------

TEST(RunxSweepRun, DigestAndManifestIdenticalAcrossJobCounts) {
  const std::string dir = ::testing::TempDir();
  write_scenario_specs(dir);
  const runx::SweepSpec spec = contract_spec(dir);

  // One shared cache across the three executions: both cities compile
  // exactly once in total, every worker shares the read-only artifacts.
  runx::CityCache cache;
  std::vector<std::string> manifests;
  std::vector<std::uint64_t> digests;
  for (const std::size_t jobs : {1, 4, 8}) {
    runx::SweepRunConfig config;
    config.jobs = jobs;
    const runx::SweepReport report = runx::run_sweep(spec, cache, config);
    EXPECT_EQ(report.jobs.size(), 16u);  // 2 cities x 4 seeds x 2 scenarios
    EXPECT_EQ(report.errors, 0u);
    digests.push_back(report.digest);
    manifests.push_back(runx::sweep_manifest(spec, report).to_json());
  }
  EXPECT_EQ(cache.compiles(), 2u);  // compile count == distinct cities
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], digests[2]);
  EXPECT_EQ(manifests[0], manifests[1]);  // byte-identical, not just digest
  EXPECT_EQ(manifests[0], manifests[2]);
}

TEST(RunxSweepRun, OverheadSweepOverSharedCityIdenticalAcrossJobCounts) {
  // Every job measures ideal hop counts (trafficx measure_overhead, plus
  // one send) on its own network over one shared read-only CompiledCity;
  // half the jobs ride a live blackout, so flows leave from fallback APs.
  core::NetworkConfig config;
  config.medium.jitter_s = 0.0;
  const auto compiled =
      core::compile_city(osmx::generate_city(osmx::profile_by_name("cambridge")), config);
  faultx::Scenario blackout;
  faultx::BlackoutEvent event;
  event.region = citymesh::geo::Polygon::rectangle({{400, 400}, {1400, 1400}});
  event.at_s = 0.5;
  blackout.blackouts.push_back(event);

  const runx::RunFn fn = [&](const runx::RunJob& job) {
    core::CityMeshNetwork network{compiled, config};
    faultx::ScenarioEngine engine{network, blackout};
    if (job.index % 2 == 1) engine.install();
    trafficx::WorkloadSpec spec;
    spec.seed = job.seed;
    spec.duration_s = 2.0;
    spec.rate_per_s = 4.0;
    const auto schedule = trafficx::compile(spec, compiled->city);
    trafficx::RunConfig run_cfg;
    run_cfg.measure_overhead = true;
    const auto run = trafficx::run_workload(network, schedule, run_cfg);
    runx::RunResult result;
    std::string hops;
    for (const auto& flow : run.flows) hops += std::to_string(flow.min_hops) + " ";
    const core::PostboxInfo to = core::PostboxInfo::for_key(
        citymesh::cryptox::KeyPair::from_seed(job.seed), schedule.flows.front().dst);
    network.register_postbox(to);
    const std::vector<std::uint8_t> payload{1, 2, 3};
    const auto sent = network.send(schedule.flows.back().src, to, payload);
    result.cells = {hops, std::to_string(run.summary.overhead_median),
                    sent.min_hops ? std::to_string(*sent.min_hops) : "-"};
    result.metrics = network.merged_metrics();
    return result;
  };
  std::vector<runx::RunJob> grid;
  for (std::size_t i = 0; i < 8; ++i) {
    runx::RunJob job;
    job.city = "cambridge";
    job.seed = 40 + i;
    job.point = i % 2 ? "blackout" : "clear";
    grid.push_back(std::move(job));
  }
  const auto one = runx::run_jobs(grid, fn, {1});
  const auto four = runx::run_jobs(grid, fn, {4});
  EXPECT_EQ(one.errors, 0u);
  EXPECT_EQ(four.errors, 0u);
  EXPECT_EQ(four.digest, one.digest);
  EXPECT_EQ(four.rows(), one.rows());
  EXPECT_EQ(four.metrics.to_json(), one.metrics.to_json());
  // The sweep measured something: some flow has a nonzero ideal hop count.
  std::size_t measured = 0;
  for (const auto& r : one.results) {
    if (r.cells[0].find_first_of("123456789") != std::string::npos) ++measured;
  }
  EXPECT_GT(measured, 0u);
}

TEST(RunxSweepRun, UnknownCityBecomesPerRowErrorNotFatal) {
  std::string error;
  const auto spec = runx::parse_sweep(
      "cities cambridge no_such_city\nseeds 1\npairs 10\ndeliver 1\n", &error);
  ASSERT_TRUE(spec) << error;
  runx::CityCache cache;
  runx::SweepRunConfig config;
  config.jobs = 2;
  const auto report = runx::run_sweep(*spec, cache, config);
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_TRUE(report.results[0].ok());
  EXPECT_FALSE(report.results[1].ok());
  EXPECT_EQ(report.errors, 1u);
  // The failure lands in the manifest's notes, keyed by its grid point.
  const auto manifest = runx::sweep_manifest(*spec, report);
  EXPECT_EQ(manifest.notes.count("error/no_such_city/1/eval"), 1u);
}

TEST(RunxSweepRun, MissingPointSpecFileThrows) {
  std::string error;
  const auto spec = runx::parse_sweep(
      "cities cambridge\npoint scenario /nonexistent/x.spec\n", &error);
  ASSERT_TRUE(spec) << error;
  runx::CityCache cache;
  EXPECT_THROW(runx::run_sweep(*spec, cache, {}), std::runtime_error);
}

// Regression guard for hidden global mutable state: the whole point of the
// engine's determinism contract is that a run only touches state it built
// itself. Two back-to-back in-process executions of the same seed grid —
// fresh caches, fresh networks — must produce byte-identical manifests.
TEST(RunxSweepRun, SequentialSameSeedRunsProduceIdenticalManifests) {
  const std::string dir = ::testing::TempDir();
  write_scenario_specs(dir);
  std::string error;
  const auto spec = runx::parse_sweep("name repeat\n"
                                      "cities cambridge\n"
                                      "seeds 1 2\n"
                                      "pairs 15\n"
                                      "deliver 2\n"
                                      "point eval\n"
                                      "point scenario " + dir + "/blackout.spec\n",
                                      &error);
  ASSERT_TRUE(spec) << error;
  std::vector<std::string> manifests;
  for (int round = 0; round < 2; ++round) {
    runx::CityCache cache;
    runx::SweepRunConfig config;
    config.jobs = 2;
    const auto report = runx::run_sweep(*spec, cache, config);
    EXPECT_EQ(report.errors, 0u);
    manifests.push_back(runx::sweep_manifest(*spec, report).to_json());
  }
  EXPECT_EQ(manifests[0], manifests[1]);
}

TEST(RunxSweepRun, HeadersMatchPointKinds) {
  std::string error;
  const auto eval = runx::parse_sweep("cities a\n", &error);
  ASSERT_TRUE(eval);
  EXPECT_EQ(runx::sweep_headers(*eval).size(), 8u);
  const auto mixed = runx::parse_sweep(
      "cities a\npoint eval\npoint workload w.spec\n", &error);
  ASSERT_TRUE(mixed);
  EXPECT_EQ(runx::sweep_headers(*mixed).size(), 8u);
  // Rows carry city/seed/point plus five value cells in every kind.
  EXPECT_EQ(runx::sweep_headers(*eval)[0], "city");
}

// The manifest's perf section (citymesh load/send --json --perf) sits
// outside the digest and is written only when filled: the fig6 golden
// manifest keeps its committed bytes, and filling the section changes
// neither the digest nor a byte before it.
TEST(RunxSweepRun, PerfSectionLeavesDigestAndGoldenBytesUnmoved) {
  std::ifstream spec_file{std::string{CITYMESH_SOURCE_DIR} + "/tools/golden/fig6_smoke.spec"};
  std::ifstream golden_file{std::string{CITYMESH_SOURCE_DIR} + "/tools/golden/fig6_smoke.json"};
  ASSERT_TRUE(spec_file && golden_file);
  const std::string golden{std::istreambuf_iterator<char>{golden_file}, {}};
  const auto spec = runx::parse_sweep(spec_file);
  ASSERT_TRUE(spec.has_value());
  // The network `citymesh sweep` builds from its default options.
  runx::SweepRunConfig config;
  config.network.placement.density_per_m2 = 1.0 / 200.0;
  config.network.placement.transmission_range_m = 50.0;
  config.network.placement.seed = 1;
  config.network.graph.transmission_range_m = 50.0;
  config.network.conduit.width_m = 50.0;
  config.network.medium.bitrate_bps = 50e3;
  config.network.medium.tx_queue_capacity = 8;
  runx::CityCache cache;
  obsx::RunManifest manifest = runx::sweep_manifest(*spec, runx::run_sweep(*spec, cache, config));
  EXPECT_EQ(manifest.to_json(), golden);

  const std::uint64_t digest = manifest.digest;
  manifest.perf["settled"] = 12.0;
  manifest.perf["barrier_idle_s"] = 0.25;
  const std::string with_perf = manifest.to_json();
  EXPECT_EQ(manifest.digest, digest);
  const std::size_t perf_at = with_perf.find(",\n  \"perf\": {");
  ASSERT_NE(perf_at, std::string::npos);
  EXPECT_EQ(with_perf.substr(0, perf_at), golden.substr(0, golden.size() - 3));  // "\n}\n"
  EXPECT_NE(with_perf.find("\"settled\": 12"), std::string::npos);
}
