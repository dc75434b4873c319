#include "runx/engine.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "graphx/parallel.hpp"

namespace citymesh::runx {

std::string SweepReport::digest_hex() const { return obsx::hex64(digest); }

std::vector<std::vector<std::string>> SweepReport::rows() const {
  std::vector<std::vector<std::string>> out;
  out.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    std::vector<std::string> row{jobs[i].city, std::to_string(jobs[i].seed),
                                 jobs[i].point};
    if (results[i].ok()) {
      row.insert(row.end(), results[i].cells.begin(), results[i].cells.end());
    } else {
      row.push_back("ERROR: " + results[i].error);
    }
    out.push_back(std::move(row));
  }
  return out;
}

std::size_t resolve_jobs(std::size_t jobs) {
  if (jobs != 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

namespace {

RunResult run_one(const RunFn& fn, const RunJob& job) {
  try {
    return fn(job);
  } catch (const std::exception& e) {
    RunResult r;
    r.error = e.what();
    if (r.error.empty()) r.error = "unknown std::exception";
    return r;
  } catch (...) {
    RunResult r;
    r.error = "non-std exception";
    return r;
  }
}

}  // namespace

SweepReport run_jobs(std::vector<RunJob> jobs, const RunFn& fn,
                     const EngineConfig& config) {
  SweepReport report;
  report.jobs = std::move(jobs);
  report.results.resize(report.jobs.size());
  // `index` is authoritative for the merge order; pin it to the position in
  // the grid so callers can't desynchronize the two.
  for (std::size_t i = 0; i < report.jobs.size(); ++i) report.jobs[i].index = i;

  const std::size_t workers =
      std::min(resolve_jobs(config.jobs), report.jobs.size());
  if (workers <= 1) {
    for (std::size_t i = 0; i < report.jobs.size(); ++i) {
      report.results[i] = run_one(fn, report.jobs[i]);
    }
  } else {
    // Work-stealing by atomic cursor: each worker claims the next undone
    // index. Which worker runs which job is scheduling-dependent; where the
    // result lands is not.
    // Each worker's compiles get its share of the caller's CPUs
    // (graphx/parallel.hpp), so W workers never start more compile
    // threads than there are CPUs.
    const std::size_t share = std::max<std::size_t>(graphx::compile_cpus() / workers, 1);
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
      const graphx::CpuShare cpus{share};
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= report.jobs.size()) return;
        report.results[i] = run_one(fn, report.jobs[i]);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  // Deterministic index-order fold.
  obsx::Fnv1a acc;
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    const RunJob& job = report.jobs[i];
    const RunResult& result = report.results[i];
    acc.update(job.city).update(job.seed).update(job.point);
    if (result.ok()) {
      for (const std::string& cell : result.cells) acc.update(cell);
      report.metrics.merge(result.metrics);
    } else {
      acc.update("ERROR").update(result.error);
      ++report.errors;
    }
  }
  report.digest = acc.digest();
  return report;
}

}  // namespace citymesh::runx
