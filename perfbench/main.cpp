// CityMesh benchmark driver: one workload per process.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--commit SHA]
//
// A run repeats the workload's set-up for a tenth of --seconds (setup_s is
// the median), runs one untimed warm-up rep, then repeats the timed rep until
// --seconds have passed (run_s is the median rep). Set-ups and reps rotate
// over the CPUs the process may use (CpuRotation). Every rep must reproduce
// the warm-up's behavioural digest; for the default seed it is pinned. With
// --trace 1 half of the time goes to untraced reps and half to traced reps,
// whose spans give the per-layer metrics and the tracing overhead.
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. A failed check prints no result and exits 1.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "geo/stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb = perfbench;

namespace {

/// Set-up repeats for this share of --seconds: small set-ups (boston:
/// ~50 ms) need many samples for a steady median.
constexpr double kSetupShare = 0.1;

/// Spreads set-ups and reps evenly over the CPUs this process may use. On a
/// shared host each vCPU runs at its own speed, which drifts as other
/// tenants load the physical core under it, so a rep's time depends on
/// where the scheduler put it. Rep i runs on `threads` consecutive CPUs
/// starting at the i-th; over one period every CPU carries the same share
/// of the work, and the per-run median stops depending on which cores the
/// scheduler favoured. Threads started during a rep (tile workers) inherit
/// the placement.
class CpuRotation {
 public:
  explicit CpuRotation(std::size_t threads) : threads_(threads) {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    }
    if (cpus_.size() < threads_) cpus_.clear();
  }

  /// Reps per full rotation (1 when placement is left to the scheduler).
  std::size_t period() const { return std::max<std::size_t>(cpus_.size(), 1); }

  void pin(std::size_t rep) {
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (std::size_t j = 0; j < threads_; ++j) CPU_SET(cpus_[(rep + j) % cpus_.size()], &set);
    if (sched_setaffinity(0, sizeof set, &set) != 0) cpus_.clear();
  }

  std::string describe() const {
    if (cpus_.empty()) return "scheduler's choice";
    return std::to_string(cpus_.size()) + " CPUs, " + std::to_string(threads_) +
           " per rep";
  }

 private:
  std::size_t threads_;
  std::vector<int> cpus_;
};

/// Runs `body` on successive rotation slots, in whole rotation periods (at
/// least one), stopping at the period boundary nearest to `budget_s`.
template <typename Body>
void repeat(CpuRotation& cpus, double budget_s, Body body) {
  const auto start = perfbench::Clock::now();
  for (std::size_t i = 0;; ++i) {
    if (i > 0 && i % cpus.period() == 0) {
      const double elapsed = perfbench::seconds_between(start, perfbench::Clock::now());
      const double half_period = elapsed / static_cast<double>(i) * cpus.period() / 2;
      if (elapsed + half_period >= budget_s) return;
    }
    cpus.pin(i);
    body();
  }
}

struct Options {
  std::string workload;
  std::uint64_t seed = pb::kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (arg == "--commit") {
      o.commit = value;
    } else {
      throw std::invalid_argument("unknown option " + arg);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return o;
}

/// Refuses builds whose timings mean nothing: unoptimized or sanitized.
void check_build() {
#ifndef __OPTIMIZE__
  throw std::runtime_error("refusing to time an unoptimized build");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  throw std::runtime_error("refusing to time a sanitizer build");
#endif
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    throw std::runtime_error("refusing to time a sanitizer build");
  }
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    throw std::runtime_error("refusing to time build type '" + type + "'");
  }
}

std::string cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(const std::vector<double>& v) { return citymesh::geo::median(v); }
double quantile(const std::vector<double>& v, double q) { return citymesh::geo::quantile(v, q); }

double get(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

/// Per span name, the median over reps of that rep's summed self time.
std::map<std::string, double> median_self(const std::vector<std::map<std::string, double>>& reps) {
  std::map<std::string, std::vector<double>> by_name;
  for (const auto& rep : reps) {
    for (const auto& [name, s] : rep) by_name[name];
  }
  for (const auto& rep : reps) {
    for (auto& [name, values] : by_name) values.push_back(get(rep, name));
  }
  std::map<std::string, double> out;
  for (const auto& [name, values] : by_name) out[name] = median(values);
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The result line. It is printed only after every check passed, so
/// `correct` is true and `failed` is 0 whenever it appears.
void print_json_line(std::uint64_t attempted, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": 0, \"metrics\": {",
              static_cast<unsigned long long>(attempted));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void print_rows(const char* title, const std::map<std::string, double>& self, double total) {
  std::printf("  %-28s %12s %8s   (%s)\n", title, "self s", "share", "of the traced total");
  for (const auto& [name, s] : self) {
    std::printf("  %-28s %12.6f %7.1f%%\n", name.c_str(), s, total > 0 ? 100.0 * s / total : 0.0);
  }
}

class DigestCheck {
 public:
  DigestCheck(const pb::Workload& w, std::uint64_t seed, const pb::Digest& reference)
      : reference_(reference) {
    if (seed == pb::kDefaultSeed && reference.hex() != w.pinned_digest()) {
      throw std::runtime_error("digest " + reference.hex() + " (" + reference.describe() +
                               ") differs from the pinned " + std::string{w.pinned_digest()});
    }
  }
  void check(const pb::Digest& d, const char* what) const {
    if (!(d == reference_)) {
      throw std::runtime_error(std::string{what} + " digest " + d.hex() + " (" + d.describe() +
                               ") differs from the warm-up's " + reference_.hex());
    }
  }
  const pb::Digest& reference() const { return reference_; }

 private:
  pb::Digest reference_;
};

/// The untraced results; printed only once every check has passed.
void print_summary(const pb::RepResult& warm, std::uint64_t seed, const CpuRotation& cpus,
                   const std::vector<double>& setup_times, const std::vector<double>& run_times) {
  std::printf("digest: %s%s  %s\n", warm.digest.hex().c_str(),
              seed == pb::kDefaultSeed ? " (pinned)" : " (every rep identical)",
              warm.digest.describe().c_str());
  std::printf("operations per rep: %llu offered, %llu undelivered (simulated outcome)\n",
              static_cast<unsigned long long>(warm.operations),
              static_cast<unsigned long long>(warm.undelivered));
  std::printf("placement: %s\n", cpus.describe().c_str());
  std::printf("setup_s      %.6f s    median of %zu set-ups\n", median(setup_times),
              setup_times.size());
  std::printf("run_s        %.6f s    median of %zu timed reps (first %.6f, min %.6f)\n",
              median(run_times), run_times.size(), run_times.front(),
              *std::min_element(run_times.begin(), run_times.end()));
  const auto list = [](const std::vector<double>& v) {
    std::string out;
    for (const double x : v) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.9g", out.empty() ? "" : ", ", x);
      out += buf;
    }
    return out;
  };
  std::printf("reps: {\"setup_s\": [%s], \"run_s\": [%s]}\n", list(setup_times).c_str(),
              list(run_times).c_str());
}

int run(const Options& o) {
  check_build();
  const auto workload = pb::make_workload(o.workload, o.seed);
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
  std::printf("host: nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s commit=%s\n",
              std::thread::hardware_concurrency(), cpu_model().c_str(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, o.commit.c_str());
  std::fflush(stdout);

  CpuRotation cpus{workload->threads()};
  pb::Counts counts;
  std::vector<double> setup_times;
  repeat(cpus, kSetupShare * o.seconds, [&] {
    counts.clear();
    setup_times.push_back(workload->setup(nullptr, counts));
  });
  const double setup_s = median(setup_times);

  pb::Counts rep_counts;
  cpus.pin(0);
  const pb::RepResult warm = workload->rep(nullptr, rep_counts);
  for (const auto& [name, value] : rep_counts) counts[name] += value;
  const DigestCheck digest{*workload, o.seed, warm.digest};

  const double budget = o.trace ? o.seconds / 2 : o.seconds;
  std::vector<double> run_times;
  std::uint64_t attempted = 0;
  repeat(cpus, budget, [&] {
    pb::Counts unused;
    const pb::RepResult r = workload->rep(nullptr, unused);
    digest.check(r.digest, "timed rep");
    run_times.push_back(r.run_s);
    attempted += r.operations;
  });
  const double run_s = median(run_times);

  std::vector<Metric> metrics;
  if (!o.trace) {
    print_summary(warm, o.seed, cpus, setup_times, run_times);
    const double peak = peak_rss_mib();
    std::printf("peak_rss_mib %.1f MiB\n", peak);
    metrics = {{"setup_s", setup_s, "s"}, {"run_s", run_s, "s"}, {"peak_rss_mib", peak, "MiB"}};
    print_json_line(attempted, metrics);
    return 0;
  }

  // --- Traced run -----------------------------------------------------------
  pb::Tracer setup_tracer{o.workload};
  std::vector<std::map<std::string, double>> setup_rep_self;
  std::vector<double> traced_setup_times;
  repeat(cpus, 0.0, [&] {
    setup_tracer.clear();
    pb::Counts unused;
    traced_setup_times.push_back(workload->setup(&setup_tracer, unused));
    setup_rep_self.push_back(setup_tracer.self_seconds());
  });
  const std::map<std::string, double> setup_self = median_self(setup_rep_self);
  const double traced_setup_s = median(traced_setup_times);

  pb::Tracer tracer{o.workload};
  std::vector<std::map<std::string, double>> rep_self;
  std::vector<double> traced_times, plan_s, send_s;
  repeat(cpus, budget, [&] {
    tracer.clear();
    pb::Counts c;
    const pb::RepResult r = workload->rep(&tracer, c);
    digest.check(r.digest, "traced rep");
    traced_times.push_back(r.run_s);
    attempted += r.operations;
    rep_self.push_back(tracer.self_seconds());
    for (const double d : tracer.durations("core.route_plan")) plan_s.push_back(d);
    for (const double d : tracer.durations("core.send")) send_s.push_back(d);
    // Counts the untraced rep could not see (route planning calls).
    for (const auto& [name, value] : c) counts.try_emplace(name, value);
  });
  cpus.pin(0);
  workload->cross_check(digest.reference());
  const std::map<std::string, double> self = median_self(rep_self);
  const double traced_run_s = median(traced_times);

  print_summary(warm, o.seed, cpus, setup_times, run_times);
  std::printf("\ntraced run of %s: %zu reps, median %.6f s; untraced run_s %.6f s; "
              "tracing overhead %+.6f s (%+.1f%%)\n",
              tracer.workload().c_str(), traced_times.size(), traced_run_s, run_s,
              traced_run_s - run_s,
              100.0 * (traced_run_s - run_s) / run_s);
  std::printf("set-up layers (median traced set-up %.6f s, untraced setup_s %.6f s;\n"
              "building graph and AP placement are timed on their own, then again\n"
              "inside core.compile_city):\n",
              traced_setup_s, setup_s);
  print_rows("span", setup_self, traced_setup_s);
  std::printf("run layers (median self time over traced reps):\n");
  print_rows("span", self, traced_run_s);

  const auto pct = [](const std::vector<double>& v, double q, double scale) {
    return v.empty() ? 0.0 : quantile(v, q) * scale;
  };
  const double loop_self = get(self, "sim.loop") + get(self, "core.send");
  const double deliveries = get(counts, "medium.deliveries");
  const double aps = get(counts, "mesh.aps");
  metrics = {
      {"osmx.generate_city_s", get(setup_self, "osmx.generate_city"), "s"},
      {"osmx.buildings", get(counts, "osmx.buildings"), "count"},
      {"core.building_graph_s", get(setup_self, "core.building_graph"), "s"},
      {"core.building_edges", get(counts, "core.building_edges"), "count"},
      {"mesh.place_aps_s", get(setup_self, "mesh.place_aps"), "s"},
      {"mesh.aps", aps, "count"},
      {"mesh.links", get(counts, "mesh.links"), "count"},
      {"core.network_build_s", get(setup_self, "core.network_build"), "s"},
      {"mem.network_mib", get(counts, "mem.network_mib"), "MiB"},
      {"mem.bytes_per_ap", aps > 0 ? get(counts, "mem.network_mib") * 1048576.0 / aps : 0.0, "B"},
      {"trafficx.compile_s", get(setup_self, "trafficx.compile"), "s"},
      {"trafficx.flows", get(counts, "trafficx.flows"), "count"},
      {"core.route_plan_s", get(self, "core.route_plan"), "s"},
      {"core.route_plan_p50_us", pct(plan_s, 0.5, 1e6), "us"},
      {"core.route_plan_p99_us", pct(plan_s, 0.99, 1e6), "us"},
      {"core.route_plan_calls", get(counts, "core.route_plan_calls"), "count"},
      {"core.route_plan_no_route", get(counts, "core.route_plan_no_route"), "count"},
      {"core.message_compile_s", get(self, "core.message_compile"), "s"},
      {"compile.msg_compiles", get(counts, "compile.msg_compiles"), "count"},
      {"compile.header_decodes", get(counts, "compile.header_decodes"), "count"},
      {"core.inject_self_s", get(self, "core.inject"), "s"},
      {"sim.loop_self_s", loop_self, "s"},
      {"sim.events", get(counts, "sim.events"), "count"},
      {"sim.ns_per_delivery", deliveries > 0 ? loop_self / deliveries * 1e9 : 0.0, "ns"},
      {"medium.transmissions", get(counts, "medium.transmissions"), "count"},
      {"medium.deliveries", deliveries, "count"},
      {"net.rebroadcasts", get(counts, "net.rebroadcasts"), "count"},
      {"net.dup_suppressed", get(counts, "net.dup_suppressed"), "count"},
      {"medium.deferrals", get(counts, "medium.deferrals"), "count"},
      {"medium.queue_drops", get(counts, "medium.queue_drops"), "count"},
      {"medium.airtime_s", get(counts, "medium.airtime_s"), "sim_s"},
      {"shardx.plan_tiles_s", get(setup_self, "shardx.plan_tiles"), "s"},
      {"shardx.barrier_idle_s", get(counts, "shardx.barrier_idle_s"), "s"},
      {"shardx.handoffs", get(counts, "shardx.handoffs"), "count"},
      {"shardx.lookahead_s", get(counts, "shardx.lookahead_s"), "sim_s"},
      {"shardx.tile_imbalance", get(counts, "shardx.tile_imbalance"), "ratio"},
      {"core.send_p50_ms", pct(send_s, 0.5, 1e3), "ms"},
      {"core.send_p95_ms", pct(send_s, 0.95, 1e3), "ms"},
      {"core.sends", get(counts, "core.sends"), "count"},
      {"trace.overhead_s", traced_run_s - run_s, "s"},
  };
  for (const Metric& m : metrics) std::printf("  %-26s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  print_json_line(attempted, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
