// citymesh - command-line driver for the CityMesh library.
//
// Subcommands:
//   profiles                     list the built-in city profiles
//   evaluate <city> [opts]       run the Figure-6 protocol on one city
//   survey <city>                run the wardriving study (Table-1 style)
//   render <city> <out.svg>      render footprints + AP mesh
//   islands <city> [--bridge]    island analysis, optionally plan bridges
//   send <city> <from> <to>      simulate one end-to-end sealed message
//   scenario <city> [opts]       replay a disaster scenario (src/faultx)
//   load <city> [opts]           run a traffic workload (src/trafficx)
//   sweep <spec-file> [opts]     run an experiment sweep grid (src/runx)
//   trace <file.jsonl> [opts]    validate / summarize / filter a trace
//
// Common options:
//   --range METERS        transmission range        (default 50)
//   --density M2          m^2 of footprint per AP   (default 200)
//   --width METERS        conduit width W           (default 50)
//   --pairs N             reachability pairs        (default 1000)
//   --deliver N           deliverability pairs      (default 50)
//   --seed N              placement seed            (default 1)
//   --policy NAME         rebroadcast policy: flood (default),
//                         building-backoff, counter-gossip, etx-priority
//   --protocol NAME       live protocol family: conduit (default, the
//                         paper's corridor flood) or qfgeo (capacity-aware
//                         bounded-region greedy forwarding, src/qfgeo)
//   --shadowed            use the shadowed link model instead of the disc
//   --osm FILE            load an OSM XML extract instead of a profile
//
// Scenario options:
//   --spec FILE           scenario spec (see src/faultx/spec.hpp); without
//                         it a demo downtown blackout with staged
//                         restoration runs
//   --svg FILE            render the worst checkpoint's fault state + one
//                         traced delivery attempt
//
// Load options:
//   --spec FILE           workload spec (see src/trafficx/spec.hpp); without
//                         it a downtown-biased demo workload runs
//   --scenario FILE       faultx scenario installed live into the same
//                         simulation, so faults interleave with the traffic
//   --bitrate BPS         shared-channel bitrate (default 50000)
//   --queue N             per-AP transmit queue slots (default 8)
//   --json FILE           write the run manifest (obsx) to FILE
//   --perf                add the manifest's perf section (load and send
//                         --json): settled receptions and their share of
//                         deliveries, events, windows, barrier idle seconds,
//                         handoffs, and the city compile's wall time and
//                         CPUs. It is outside the digest and varies
//                         with --shards, --trace and the host, so manifests
//                         without it stay byte-identical across runs.
//
// Send options:
//   --json FILE           write the send's run manifest (obsx) to FILE
//
// Sweep options:
//   --jobs N              worker threads (default 1; 0 = all cores). The
//                         merged report and manifest are byte-identical for
//                         any N.
//   --shards N            tiled parallel engine (src/shardx) inside each run:
//                         partition the city into N tiles with their own
//                         event queues, synchronized by conservative
//                         lookahead. Composes with --jobs (N tiles per run x
//                         --jobs concurrent runs). Manifests are
//                         byte-identical for every N; N=1 is a single tile.
//   --json FILE           write the merged sweep manifest to FILE
//
// Trace options:
//   --trace FILE          (send/scenario/load) record every packet/fault
//                         event into FILE as JSON Lines (src/obsx/trace.hpp)
//   --kind K --node N --packet P
//                         (trace) keep only matching events; matches are
//                         reprinted as JSONL before the summary
#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/evaluation.hpp"
#include "faultx/engine.hpp"
#include "faultx/render.hpp"
#include "faultx/scenario_eval.hpp"
#include "faultx/spec.hpp"
#include "geo/stats.hpp"
#include "cryptox/sealed.hpp"
#include "measure/survey.hpp"
#include "measure/survey_stats.hpp"
#include "mesh/islands.hpp"
#include "obsx/trace.hpp"
#include "obsx/manifest.hpp"
#include "osmx/citygen.hpp"
#include "osmx/osm_xml.hpp"
#include "relayx/policy.hpp"
#include "runx/city_cache.hpp"
#include "runx/sweep.hpp"
#include "trafficx/runner.hpp"
#include "trafficx/spec.hpp"
#include "trafficx/workload.hpp"
#include "viz/ascii.hpp"
#include "viz/svg.hpp"

using namespace citymesh;

namespace {

struct Options {
  double range_m = 50.0;
  double m2_per_ap = 200.0;
  double width_m = 50.0;
  std::size_t pairs = 1000;
  std::size_t deliver = 50;
  std::uint64_t seed = 1;
  std::string policy;  // relayx policy name; empty = flood (paper default)
  std::string protocol;  // core protocol name; empty = conduit (paper default)
  bool shadowed = false;
  std::string osm_file;
  std::string spec_file;
  std::string scenario_file;
  std::string svg_file;
  std::string trace_file;
  std::string json_file;
  bool perf = false;
  double bitrate_bps = 50e3;
  std::optional<double> jitter_s;
  std::size_t queue_slots = 8;
  std::size_t sweep_jobs = 1;
  std::size_t shards = 1;
  std::string kind_filter;
  std::optional<std::uint32_t> node_filter;
  std::optional<std::uint32_t> packet_filter;
  std::vector<std::string> positional;
};

int usage() {
  std::cerr <<
      "usage: citymesh <subcommand> [options]\n"
      "  profiles                   list built-in city profiles\n"
      "  evaluate <city>            reachability/deliverability/overhead\n"
      "  survey <city>              wardriving study summary + CDFs\n"
      "  render <city> <out.svg>    footprints + AP mesh render\n"
      "  islands <city> [--bridge]  island analysis / gap bridging\n"
      "  send <city> <from> <to>    one sealed end-to-end message\n"
      "  scenario <city>            replay a disaster scenario (faultx)\n"
      "  load <city>                run a traffic workload (trafficx)\n"
      "  sweep <spec-file>          run an experiment sweep grid (runx)\n"
      "  trace <file.jsonl>         validate / summarize / filter a trace\n"
      "options: --range M --density M2 --width M --pairs N --deliver N\n"
      "         --seed N --policy NAME --protocol NAME\n"
      "         --shadowed --osm FILE\n"
      "         --spec FILE --svg FILE (scenario)\n"
      "         --spec FILE --scenario FILE --bitrate BPS --queue N\n"
      "         --json FILE [--perf] (load, send)\n"
      "         --jobs N --json FILE (sweep)\n"
      "         --shards N (tiled parallel engine; 1 = a single tile)\n"
      "         --jitter S (per-delivery jitter seconds; 0 = draw-free)\n"
      "         --trace FILE (send/scenario/load)\n"
      "         --kind K --node N --packet P (trace)\n";
  return 2;
}

bool parse_double(const std::string& s, double& out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

std::optional<Options> parse_options(int argc, char** argv, int first) {
  Options opts;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string{argv[++i]};
    };
    if (arg == "--range") {
      const auto v = next();
      if (!v || !parse_double(*v, opts.range_m)) return std::nullopt;
    } else if (arg == "--density") {
      const auto v = next();
      if (!v || !parse_double(*v, opts.m2_per_ap)) return std::nullopt;
    } else if (arg == "--width") {
      const auto v = next();
      if (!v || !parse_double(*v, opts.width_m)) return std::nullopt;
    } else if (arg == "--pairs") {
      std::uint64_t n = 0;
      const auto v = next();
      if (!v || !parse_u64(*v, n)) return std::nullopt;
      opts.pairs = n;
    } else if (arg == "--deliver") {
      std::uint64_t n = 0;
      const auto v = next();
      if (!v || !parse_u64(*v, n)) return std::nullopt;
      opts.deliver = n;
    } else if (arg == "--seed") {
      const auto v = next();
      if (!v || !parse_u64(*v, opts.seed)) return std::nullopt;
    } else if (arg == "--bridge") {
      opts.positional.push_back("bridge");
    } else if (arg == "--policy") {
      const auto v = next();
      if (!v || !relayx::policy_kind_from(*v)) {
        std::cerr << "--policy must be one of flood, building-backoff, "
                     "counter-gossip, etx-priority\n";
        return std::nullopt;
      }
      opts.policy = *v;
    } else if (arg == "--protocol") {
      const auto v = next();
      if (!v || !core::protocol_from(*v)) {
        std::cerr << "--protocol must be one of conduit, qfgeo\n";
        return std::nullopt;
      }
      opts.protocol = *v;
    } else if (arg == "--shadowed") {
      opts.shadowed = true;
    } else if (arg == "--osm") {
      const auto v = next();
      if (!v) return std::nullopt;
      opts.osm_file = *v;
    } else if (arg == "--spec") {
      const auto v = next();
      if (!v) return std::nullopt;
      opts.spec_file = *v;
    } else if (arg == "--scenario") {
      const auto v = next();
      if (!v) return std::nullopt;
      opts.scenario_file = *v;
    } else if (arg == "--json") {
      const auto v = next();
      if (!v) return std::nullopt;
      opts.json_file = *v;
    } else if (arg == "--perf") {
      opts.perf = true;
    } else if (arg == "--bitrate") {
      const auto v = next();
      if (!v || !parse_double(*v, opts.bitrate_bps)) return std::nullopt;
    } else if (arg == "--jitter") {
      double j = 0.0;
      const auto v = next();
      if (!v || !parse_double(*v, j) || j < 0.0) return std::nullopt;
      opts.jitter_s = j;
    } else if (arg == "--queue") {
      std::uint64_t n = 0;
      const auto v = next();
      if (!v || !parse_u64(*v, n)) return std::nullopt;
      opts.queue_slots = n;
    } else if (arg == "--jobs") {
      std::uint64_t n = 0;
      const auto v = next();
      if (!v || !parse_u64(*v, n)) return std::nullopt;
      opts.sweep_jobs = n;
    } else if (arg == "--shards") {
      std::uint64_t n = 0;
      const auto v = next();
      if (!v || !parse_u64(*v, n) || n == 0) return std::nullopt;
      opts.shards = n;
    } else if (arg == "--svg") {
      const auto v = next();
      if (!v) return std::nullopt;
      opts.svg_file = *v;
    } else if (arg == "--trace") {
      const auto v = next();
      if (!v) return std::nullopt;
      opts.trace_file = *v;
    } else if (arg == "--kind") {
      const auto v = next();
      if (!v) return std::nullopt;
      opts.kind_filter = *v;
    } else if (arg == "--node" || arg == "--packet") {
      std::uint64_t n = 0;
      const auto v = next();
      if (!v || !parse_u64(*v, n) || n > 0xffffffffull) return std::nullopt;
      (arg == "--node" ? opts.node_filter : opts.packet_filter) =
          static_cast<std::uint32_t>(n);
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown option " << arg << '\n';
      return std::nullopt;
    } else {
      opts.positional.push_back(arg);
    }
  }
  return opts;
}

std::optional<osmx::City> load_city(const Options& opts, std::size_t index = 0) {
  if (!opts.osm_file.empty()) {
    std::ifstream file{opts.osm_file};
    if (!file) {
      std::cerr << "cannot open " << opts.osm_file << '\n';
      return std::nullopt;
    }
    return osmx::load_osm_xml(file, opts.osm_file);
  }
  if (index >= opts.positional.size()) {
    std::cerr << "missing city name (or --osm FILE)\n";
    return std::nullopt;
  }
  try {
    return osmx::generate_city(osmx::profile_by_name(opts.positional[index]));
  } catch (const std::out_of_range&) {
    std::cerr << "unknown profile '" << opts.positional[index] << "'; see `citymesh profiles`\n";
    return std::nullopt;
  }
}

core::NetworkConfig network_config(const Options& opts) {
  core::NetworkConfig cfg;
  cfg.placement.density_per_m2 = 1.0 / opts.m2_per_ap;
  cfg.placement.transmission_range_m = opts.range_m;
  cfg.placement.seed = opts.seed;
  cfg.placement.link_model =
      opts.shadowed ? mesh::LinkModel::kShadowed : mesh::LinkModel::kDisc;
  cfg.graph.transmission_range_m = opts.range_m;
  cfg.conduit.width_m = opts.width_m;
  cfg.shards = opts.shards;
  if (opts.jitter_s) cfg.medium.jitter_s = *opts.jitter_s;
  if (!opts.policy.empty()) {
    cfg.relay.kind = *relayx::policy_kind_from(opts.policy);
  }
  if (!opts.protocol.empty()) {
    cfg.protocol = *core::protocol_from(opts.protocol);
  }
  return cfg;
}

// The manifest's perf section: what the run cost the engine.
void add_perf(obsx::RunManifest& manifest, const core::CityMeshNetwork& net) {
  const core::CityMeshNetwork::MediumTotals totals = net.medium_totals();
  manifest.perf["settled"] = static_cast<double>(totals.settled);
  manifest.perf["deliveries"] = static_cast<double>(totals.deliveries);
  manifest.perf["settled_share"] =
      totals.deliveries == 0
          ? 0.0
          : static_cast<double>(totals.settled) / static_cast<double>(totals.deliveries);
  manifest.perf["events"] = static_cast<double>(net.events_processed());
  manifest.perf["windows"] = static_cast<double>(net.windows_run());
  manifest.perf["barrier_idle_s"] = net.barrier_idle_s();
  manifest.perf["handoffs"] = static_cast<double>(net.handoffs_exchanged());
  // The city compile: its wall time and the CPUs it ran on (the calling
  // thread's affinity mask; core::CompiledCity).
  manifest.perf["compile_s"] = net.compiled()->compile_s;
  manifest.perf["compile_cpus"] = static_cast<double>(net.compiled()->compile_cpus);
}

// Flush a network's recorded trace to disk (send/scenario/load --trace FILE):
// every buffer in effect, so a tiled run writes its tiles' events too.
int write_trace_file(const core::CityMeshNetwork& net, const std::string& path) {
  const std::vector<obsx::TraceEvent> events = net.merged_trace_events();
  std::ofstream out{path};
  if (out) obsx::write_trace_jsonl(out, events);
  if (!out) {
    std::cerr << "cannot write " << path << '\n';
    return 1;
  }
  std::cout << "wrote " << path << " (" << events.size() << " trace events";
  if (net.trace_lost() > 0) {
    std::cout << ", " << net.trace_lost() << " oldest lost to ring wrap";
  }
  std::cout << ")\n";
  return 0;
}

int cmd_profiles() {
  viz::print_table(std::cout, "Built-in city profiles",
                   {"name", "extent (km)", "rivers", "notes"},
                   [] {
                     std::vector<std::vector<std::string>> rows;
                     for (const auto& p : osmx::default_profiles()) {
                       rows.push_back(
                           {p.name,
                            viz::fmt(p.width_m / 1000.0, 1) + " x " +
                                viz::fmt(p.height_m / 1000.0, 1),
                            std::to_string(p.rivers.size()),
                            p.rivers.empty()
                                ? "contiguous fabric"
                                : (p.rivers[0].bridges.empty() ? "unbridged water"
                                                               : "bridged water")});
                     }
                     return rows;
                   }());
  return 0;
}

int cmd_evaluate(const Options& opts) {
  const auto city = load_city(opts);
  if (!city) return 1;
  core::EvaluationConfig cfg;
  cfg.reachability_pairs = opts.pairs;
  cfg.deliverability_pairs = opts.deliver;
  cfg.network = network_config(opts);
  const auto eval = core::evaluate_city(*city, cfg);
  viz::print_table(
      std::cout, "Evaluation: " + eval.city,
      {"metric", "value"},
      {{"buildings", std::to_string(eval.buildings)},
       {"APs", std::to_string(eval.aps)},
       {"islands (major)", std::to_string(eval.ap_major_islands)},
       {"reachability", viz::fmt(eval.reachability(), 3)},
       {"deliverability", viz::fmt(eval.deliverability(), 3)},
       {"overhead (median)",
        eval.overheads.empty() ? "-" : viz::fmt(eval.median_overhead(), 1) + "x"},
       {"header bits (median)",
        eval.header_bits.empty() ? "-" : viz::fmt(eval.median_header_bits(), 0)}});
  return 0;
}

int cmd_survey(const Options& opts) {
  const auto city = load_city(opts);
  if (!city) return 1;
  const auto datasets = measure::run_survey(*city, {});
  if (datasets.empty()) {
    std::cout << "no labeled survey regions in this city\n";
    return 0;
  }
  std::vector<std::vector<std::string>> rows;
  for (const auto& d : datasets) {
    const auto macs = measure::macs_per_measurement(d);
    const auto spreads = measure::spread_per_ap(d);
    rows.push_back({d.name, std::to_string(d.measurement_count()),
                    std::to_string(d.unique_aps()), viz::fmt(geo::median(macs), 0),
                    viz::fmt(geo::median(spreads), 0) + " m"});
  }
  viz::print_table(std::cout, "Survey: " + city->name(),
                   {"area", "# meas", "# unique APs", "med MACs/meas", "med spread"},
                   rows);
  return 0;
}

int cmd_render(const Options& opts) {
  const auto city = load_city(opts);
  if (!city) return 1;
  if (opts.positional.size() < 2) {
    std::cerr << "usage: citymesh render <city> <out.svg>\n";
    return 2;
  }
  const std::string out_path = opts.positional[1];
  mesh::PlacementConfig placement = network_config(opts).placement;
  const auto net = mesh::place_aps(*city, placement);

  viz::SvgScene scene{city->extent(), 1200.0};
  for (const auto& water : city->water()) scene.add_polygon(water, "#a8c8e8");
  for (const auto& park : city->parks()) scene.add_polygon(park, "#cde6c8");
  for (const auto& b : city->buildings()) scene.add_polygon(b.footprint, "#c0392b");
  for (const auto& ap : net.aps()) {
    for (const auto to : net.graph().neighbors(ap.id)) {
      if (to < ap.id) continue;
      scene.add_line(ap.position, net.ap(to).position, "#999999", 0.4, 0.5);
    }
  }
  for (const auto& ap : net.aps()) scene.add_circle(ap.position, 1.0, "#222222", 0.8);
  if (!scene.write_file(out_path)) {
    std::cerr << "cannot write " << out_path << '\n';
    return 1;
  }
  std::cout << "wrote " << out_path << " (" << city->building_count() << " buildings, "
            << net.ap_count() << " APs, " << net.graph().edge_count() << " links)\n";
  return 0;
}

int cmd_islands(const Options& opts, bool bridge) {
  const auto city = load_city(opts);
  if (!city) return 1;
  const auto net = mesh::place_aps(*city, network_config(opts).placement);
  const auto report = mesh::analyze_islands(net);
  std::cout << net.ap_count() << " APs in " << report.island_count
            << " islands; largest holds " << viz::fmt(report.largest_fraction * 100, 1)
            << "%\n";
  for (std::size_t i = 0; i < std::min<std::size_t>(8, report.sizes.size()); ++i) {
    std::cout << "  island " << i << ": " << report.sizes[i] << " APs\n";
  }
  if (bridge && report.island_count > 1) {
    const auto plan = mesh::plan_bridges(net);
    std::cout << "bridge plan: " << plan.new_aps.size() << " new APs\n";
    const auto fixed = mesh::apply_bridges(net, plan);
    std::cout << "after bridging: largest island holds "
              << viz::fmt(mesh::analyze_islands(fixed).largest_fraction * 100, 1) << "%\n";
  }
  return 0;
}

int cmd_send(const Options& opts) {
  const auto city = load_city(opts);
  if (!city) return 1;
  if (opts.positional.size() < 3) {
    std::cerr << "usage: citymesh send <city> <from-building> <to-building>\n";
    return 2;
  }
  std::uint64_t from = 0;
  std::uint64_t to = 0;
  if (!parse_u64(opts.positional[1], from) || !parse_u64(opts.positional[2], to) ||
      from >= city->building_count() || to >= city->building_count()) {
    std::cerr << "building ids must be < " << city->building_count() << '\n';
    return 2;
  }
  core::CityMeshNetwork net{*city, network_config(opts)};
  if (!opts.trace_file.empty()) net.set_tracing(true);
  const auto alice = cryptox::KeyPair::from_seed(opts.seed + 1);
  const auto bob = cryptox::KeyPair::from_seed(opts.seed + 2);
  const auto info = core::PostboxInfo::for_key(bob, static_cast<osmx::BuildingId>(to));
  const auto box = net.register_postbox(info);
  if (!box) {
    std::cerr << "destination building has no APs\n";
    return 1;
  }
  const auto sealed = cryptox::seal(alice, info.public_key, "cli test message", opts.seed);
  const auto blob = sealed.serialize();
  const auto outcome =
      net.send(static_cast<osmx::BuildingId>(from), info, {blob.data(), blob.size()});
  std::cout << "route found: " << (outcome.route_found ? "yes" : "no") << '\n';
  if (outcome.route_found) {
    std::cout << "  buildings " << outcome.route.buildings.size() << " -> waypoints "
              << outcome.route.waypoints.size() << " (" << outcome.header_bits
              << " header bits)\n"
              << "  delivered: " << (outcome.delivered ? "yes" : "no") << " in "
              << viz::fmt(outcome.delivery_time_s * 1000, 1) << " ms, "
              << outcome.transmissions << " broadcasts";
    if (const auto oh = outcome.overhead()) std::cout << " (" << viz::fmt(*oh, 1) << "x)";
    std::cout << '\n';
    // Compile-once evidence: decodes/compiles track distinct messages (one
    // here, two with an ack), not the per-AP receptions of the flood.
    std::cout << "  hot path: " << net.compiler().header_decodes()
              << " header decodes, " << net.compiler().msg_compiles()
              << " msg compiles, " << net.medium_totals().deliveries << " receptions\n";
  }
  if (!opts.json_file.empty()) {
    obsx::RunManifest manifest;
    manifest.name = "citymesh-send";
    manifest.city = city->name();
    manifest.seeds["placement"] = network_config(opts).placement.seed;
    manifest.seeds["keys"] = opts.seed;
    manifest.set_param("from", from);
    manifest.set_param("to", to);
    obsx::Fnv1a acc;
    acc.update(std::uint64_t{outcome.route_found})
        .update(std::uint64_t{outcome.delivered})
        .update(static_cast<std::uint64_t>(outcome.transmissions))
        .update(static_cast<std::uint64_t>(outcome.header_bits));
    manifest.digest = acc.digest();
    manifest.metrics = net.merged_metrics();
    if (opts.perf) add_perf(manifest, net);
    if (!manifest.write_file(opts.json_file)) {
      std::cerr << "cannot write " << opts.json_file << '\n';
      return 1;
    }
  }
  if (!opts.trace_file.empty() && write_trace_file(net, opts.trace_file) != 0) {
    return 1;
  }
  return outcome.delivered ? 0 : 1;
}

// The demo disaster when no --spec is given: a blackout over the downtown
// core at t=10 s, restored feeder-by-feeder in 3 stages starting at t=300 s.
faultx::ParsedScenario demo_scenario(const osmx::City& city) {
  geo::Rect core{};
  bool have_core = false;
  for (const auto& region : city.regions()) {
    if (region.type == osmx::AreaType::kDowntown) {
      core = region.bounds;
      have_core = true;
      break;
    }
  }
  if (!have_core) {
    const geo::Rect& e = city.extent();
    core = {{e.min.x + e.width() * 0.25, e.min.y + e.height() * 0.25},
            {e.max.x - e.width() * 0.25, e.max.y - e.height() * 0.25}};
  }
  faultx::ParsedScenario parsed;
  parsed.scenario.name = "demo-downtown-blackout";
  faultx::BlackoutEvent blackout;
  blackout.region = geo::Polygon::rectangle(core);
  blackout.at_s = 10.0;
  blackout.restore_at_s = 300.0;
  blackout.restore_stages = 3;
  blackout.stage_interval_s = 60.0;
  parsed.scenario.blackouts.push_back(std::move(blackout));
  parsed.checkpoints = {0.0, 30.0, 120.0, 300.0, 360.0, 420.0, 480.0};
  return parsed;
}

int cmd_scenario(const Options& opts) {
  const auto city = load_city(opts);
  if (!city) return 1;

  faultx::ParsedScenario parsed;
  if (!opts.spec_file.empty()) {
    std::ifstream file{opts.spec_file};
    if (!file) {
      std::cerr << "cannot open " << opts.spec_file << '\n';
      return 1;
    }
    std::string error;
    const auto spec = faultx::parse_scenario(file, &error);
    if (!spec) {
      std::cerr << opts.spec_file << ": " << error << '\n';
      return 1;
    }
    parsed = *spec;
  } else {
    parsed = demo_scenario(*city);
  }
  if (parsed.checkpoints.empty()) parsed.checkpoints = {0.0};

  faultx::ScenarioEvalConfig cfg;
  cfg.checkpoints = parsed.checkpoints;
  cfg.snapshot.pairs = opts.pairs;
  cfg.snapshot.deliver_pairs = opts.deliver;

  core::CityMeshNetwork network{*city, network_config(opts)};
  if (!opts.trace_file.empty()) network.set_tracing(true);
  const auto trace = faultx::evaluate_scenario(network, parsed.scenario, cfg);

  std::cout << "scenario '" << trace.scenario << "' on " << city->name() << ": "
            << trace.actions_total << " fault actions over " << trace.aps_affected
            << " APs\n";
  std::vector<std::vector<std::string>> rows;
  for (const auto& snap : trace.snapshots) {
    rows.push_back({viz::fmt(snap.at_s, 0) + " s",
                    std::to_string(snap.aps_up) + "/" + std::to_string(snap.aps_total),
                    viz::fmt(snap.up_fraction(), 3), viz::fmt(snap.reachability(), 3),
                    viz::fmt(snap.deliverability(), 3),
                    std::to_string(snap.rescues_succeeded) + "/" +
                        std::to_string(snap.rescues_attempted),
                    viz::fmt(snap.deliverability_with_rescue(), 3)});
  }
  viz::print_table(std::cout, "Checkpoint replay: " + trace.scenario,
                   {"t", "APs up", "up frac", "reach", "deliver", "rescued",
                    "deliver+rescue"},
                   rows);

  if (!opts.trace_file.empty() &&
      write_trace_file(network, opts.trace_file) != 0) {
    return 1;
  }

  if (opts.svg_file.empty()) return 0;

  // Render the *worst* checkpoint (fewest live APs) on a fresh network: the
  // evaluation above left this one at the end of the timeline, typically
  // after restoration.
  sim::SimTime worst_t = 0.0;
  std::size_t worst_up = std::numeric_limits<std::size_t>::max();
  for (const auto& snap : trace.snapshots) {
    if (snap.aps_up < worst_up) {
      worst_up = snap.aps_up;
      worst_t = snap.at_s;
    }
  }
  core::CityMeshNetwork frame{*city, network_config(opts)};
  faultx::ScenarioEngine engine{frame, parsed.scenario};
  engine.apply_until(worst_t);

  // One traced delivery across the city: west-most to east-most building
  // that still has a live AP.
  std::optional<osmx::BuildingId> west, east;
  for (const auto& b : city->buildings()) {
    if (!frame.live_ap(b.id)) continue;
    if (!west || b.centroid.x < city->building(*west).centroid.x) west = b.id;
    if (!east || b.centroid.x > city->building(*east).centroid.x) east = b.id;
  }
  const core::SendOutcome* outcome_ptr = nullptr;
  core::SendOutcome outcome;
  if (west && east && *west != *east) {
    const auto bob = cryptox::KeyPair::from_seed(opts.seed + 2);
    const auto info = core::PostboxInfo::for_key(bob, *east);
    if (frame.register_postbox(info)) {
      static constexpr std::string_view kPayload = "scenario trace";
      core::SendOptions send_opts;
      send_opts.collect_trace = true;
      outcome = frame.send(
          *west, info,
          {reinterpret_cast<const std::uint8_t*>(kPayload.data()), kPayload.size()},
          send_opts);
      outcome_ptr = &outcome;
    }
  }
  if (!faultx::render_scenario_svg(frame, engine.scenario().outage_regions,
                                   outcome_ptr, opts.svg_file)) {
    std::cerr << "cannot write " << opts.svg_file << '\n';
    return 1;
  }
  std::cout << "wrote " << opts.svg_file << " (t=" << viz::fmt(worst_t, 0) << " s, "
            << frame.aps_up() << "/" << frame.aps().ap_count() << " APs up, trace "
            << (outcome_ptr ? (outcome.delivered ? "delivered" : "not delivered")
                            : "skipped")
            << ")\n";
  return 0;
}

// Run a trafficx workload against the airtime-contention medium, optionally
// with a faultx scenario installed live into the same simulation so AP
// failures interleave with the traffic. Prints the capacity summary and a
// determinism digest; `--json FILE` writes an obsx run manifest.
int cmd_load(const Options& opts) {
  const auto city = load_city(opts);
  if (!city) return 1;

  trafficx::WorkloadSpec spec;
  if (!opts.spec_file.empty()) {
    std::ifstream file{opts.spec_file};
    if (!file) {
      std::cerr << "cannot open " << opts.spec_file << '\n';
      return 1;
    }
    std::string error;
    const auto parsed = trafficx::parse_workload(file, &error);
    if (!parsed) {
      std::cerr << opts.spec_file << ": " << error << '\n';
      return 1;
    }
    spec = *parsed;
  } else {
    // Demo workload: 10 s of downtown-biased traffic at 4 flows/s.
    spec.name = "demo-load";
    spec.seed = opts.seed;
    spec.duration_s = 10.0;
    spec.rate_per_s = 4.0;
    spec.spatial = trafficx::SpatialMode::kHotspot;
  }

  core::NetworkConfig cfg = network_config(opts);
  cfg.medium.bitrate_bps = opts.bitrate_bps;
  cfg.medium.tx_queue_capacity = opts.queue_slots;
  core::CityMeshNetwork network{*city, cfg};
  if (!opts.trace_file.empty()) network.set_tracing(true);

  // A scenario given via --scenario runs live: its fault timeline is
  // scheduled into the same simulator the workload injections use.
  std::optional<faultx::ScenarioEngine> engine;
  std::string scenario_name;
  if (!opts.scenario_file.empty()) {
    std::ifstream file{opts.scenario_file};
    if (!file) {
      std::cerr << "cannot open " << opts.scenario_file << '\n';
      return 1;
    }
    std::string error;
    const auto parsed = faultx::parse_scenario(file, &error);
    if (!parsed) {
      std::cerr << opts.scenario_file << ": " << error << '\n';
      return 1;
    }
    scenario_name = parsed->scenario.name;
    engine.emplace(network, parsed->scenario);
    engine->install();
  }

  const auto schedule = trafficx::compile(spec, *city);
  const auto result = trafficx::run_workload(network, schedule);
  const core::CapacitySummary& s = result.summary;

  std::cout << "workload '" << spec.name << "' on " << city->name() << ": "
            << schedule.flows.size() << " flows over "
            << viz::fmt(spec.duration_s, 0) << " s ("
            << trafficx::to_string(spec.spatial) << ", "
            << viz::fmt(spec.rate_per_s, 1) << "/s offered)";
  if (engine) {
    std::cout << " + scenario '" << scenario_name << "' (" << engine->applied()
              << "/" << engine->scenario().actions.size() << " actions applied)";
  }
  std::cout << '\n';

  const std::vector<std::vector<std::string>> rows = {
      {"offered", std::to_string(s.flows_offered)},
      {"injected", std::to_string(s.flows_injected)},
      {"delivered", std::to_string(s.flows_delivered)},
      {"delivery rate", viz::fmt(s.delivery_rate(), 3)},
      {"goodput", viz::fmt(s.goodput_bytes_per_s, 1) + " B/s"},
      {"latency p50", viz::fmt(s.latency_p50_s * 1e3, 2) + " ms"},
      {"latency p99", viz::fmt(s.latency_p99_s * 1e3, 2) + " ms"},
      {"deferrals", std::to_string(s.deferrals)},
      {"queue drops", std::to_string(s.queue_drops)},
      {"airtime", viz::fmt(s.airtime_s, 2) + " s"}};
  viz::print_table(std::cout, "Capacity summary: " + spec.name,
                   {"metric", "value"}, rows);

  obsx::Fnv1a acc;
  acc.update(schedule.digest());
  for (const auto& row : rows) {
    for (const auto& cell : row) acc.update(cell);
  }
  const std::uint64_t digest = acc.digest();
  std::cout << "determinism digest: " << obsx::hex64(digest)
            << "  (same seed => same digest across runs)\n";

  if (!opts.json_file.empty()) {
    obsx::RunManifest manifest;
    manifest.name = "citymesh-load";
    manifest.city = city->name();
    manifest.seeds["workload"] = spec.seed;
    manifest.seeds["placement"] = cfg.placement.seed;
    manifest.set_param("spec", spec.name);
    manifest.set_param("spatial", trafficx::to_string(spec.spatial));
    manifest.set_param("duration_s", spec.duration_s);
    manifest.set_param("rate_per_s", spec.rate_per_s);
    manifest.set_param("bitrate_bps", cfg.medium.bitrate_bps);
    manifest.set_param("queue_slots",
                       static_cast<std::uint64_t>(cfg.medium.tx_queue_capacity));
    if (!scenario_name.empty()) manifest.set_param("scenario", scenario_name);
    manifest.digest = digest;
    manifest.metrics = result.metrics;
    if (opts.perf) add_perf(manifest, network);
    // wall_clock_s stays 0 so same-seed manifests are byte-identical.
    if (!manifest.write_file(opts.json_file)) {
      std::cerr << "cannot write " << opts.json_file << '\n';
      return 1;
    }
    std::cout << "wrote " << opts.json_file << '\n';
  }

  if (!opts.trace_file.empty() &&
      write_trace_file(network, opts.trace_file) != 0) {
    return 1;
  }
  return 0;
}

// Run a sweep spec (src/runx): expand cities x seeds x points, execute on
// --jobs worker threads sharing one compiled-city cache, print the merged
// table + digest. The digest and the --json manifest are byte-identical for
// any --jobs value.
int cmd_sweep(const Options& opts) {
  if (opts.positional.empty()) {
    std::cerr << "usage: citymesh sweep <spec-file> [--jobs N] [--shards N] [--json FILE]\n";
    return 2;
  }
  const std::string& path = opts.positional[0];
  std::ifstream file{path};
  if (!file) {
    std::cerr << "cannot open " << path << '\n';
    return 1;
  }
  std::string error;
  const auto spec = runx::parse_sweep(file, &error);
  if (!spec) {
    std::cerr << path << ": " << error << '\n';
    return 1;
  }

  runx::SweepRunConfig cfg;
  cfg.jobs = opts.sweep_jobs;
  cfg.network = network_config(opts);
  cfg.network.medium.bitrate_bps = opts.bitrate_bps;
  cfg.network.medium.tx_queue_capacity = opts.queue_slots;

  runx::CityCache cache;
  runx::SweepReport report;
  try {
    report = runx::run_sweep(*spec, cache, cfg);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 1;
  }

  std::cout << "sweep '" << spec->name << "': " << report.jobs.size()
            << " runs over " << spec->cities.size() << " cities ("
            << cache.compiles() << " compiled), jobs="
            << runx::resolve_jobs(opts.sweep_jobs);
  if (opts.shards > 1) std::cout << ", shards=" << opts.shards;
  std::cout << '\n';
  viz::print_table(std::cout, "Sweep: " + spec->name, runx::sweep_headers(*spec),
                   report.rows());
  if (report.errors > 0) {
    std::cout << report.errors << " of " << report.jobs.size()
              << " runs failed (see ERROR rows)\n";
  }
  std::cout << "determinism digest: " << report.digest_hex()
            << "  (same spec => same digest for any --jobs)\n";

  if (!opts.json_file.empty()) {
    const auto manifest = runx::sweep_manifest(*spec, report);
    if (!manifest.write_file(opts.json_file)) {
      std::cerr << "cannot write " << opts.json_file << '\n';
      return 1;
    }
    std::cout << "wrote " << opts.json_file << '\n';
  }
  return report.errors == 0 ? 0 : 1;
}

// Validate a recorded JSONL trace, optionally filter it, and summarize.
// Matching events are reprinted as JSONL (pipe them into another file to
// extract one packet's story); the summary counts events per kind.
int cmd_trace(const Options& opts) {
  if (opts.positional.empty()) {
    std::cerr << "usage: citymesh trace <file.jsonl> [--kind K] [--node N] "
                 "[--packet P]\n";
    return 2;
  }
  const std::string& path = opts.positional[0];
  std::ifstream file{path};
  if (!file) {
    std::cerr << "cannot open " << path << '\n';
    return 1;
  }
  std::string error;
  const auto events = obsx::read_trace_jsonl(file, &error);
  if (!events) {
    std::cerr << path << ": " << error << '\n';
    return 1;
  }

  std::optional<obsx::TraceKind> kind;
  if (!opts.kind_filter.empty()) {
    kind = obsx::trace_kind_from(opts.kind_filter);
    if (!kind) {
      std::cerr << "unknown event kind '" << opts.kind_filter << "'\n";
      return 2;
    }
  }
  const bool filtering = kind || opts.node_filter || opts.packet_filter;

  std::map<obsx::TraceKind, std::size_t> per_kind;
  std::set<std::uint32_t> nodes;
  std::set<std::uint32_t> packets;
  double t_min = 0.0;
  double t_max = 0.0;
  std::size_t matched = 0;
  for (const auto& e : *events) {
    if (kind && e.kind != *kind) continue;
    if (opts.node_filter && e.node != *opts.node_filter) continue;
    if (opts.packet_filter && e.packet != *opts.packet_filter) continue;
    if (matched == 0) t_min = t_max = e.time_s;
    t_min = std::min(t_min, e.time_s);
    t_max = std::max(t_max, e.time_s);
    ++matched;
    ++per_kind[e.kind];
    if (e.node != obsx::kTraceNone) nodes.insert(e.node);
    if (e.packet != 0) packets.insert(e.packet);
    if (filtering) std::cout << obsx::trace_line(e) << '\n';
  }

  std::vector<std::vector<std::string>> rows;
  for (const auto& [k, count] : per_kind) {
    rows.push_back({std::string{obsx::to_string(k)}, std::to_string(count)});
  }
  viz::print_table(std::cout,
                   path + ": " + std::to_string(matched) +
                       (filtering ? " matching" : "") + " of " +
                       std::to_string(events->size()) + " events",
                   {"kind", "count"}, rows);
  if (matched > 0) {
    std::cout << "  time span: " << viz::fmt(t_min, 6) << " .. "
              << viz::fmt(t_max, 6) << " s\n";
  }
  std::cout << "  nodes: " << nodes.size() << "  packets: " << packets.size()
            << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const auto opts = parse_options(argc, argv, 2);
  if (!opts) return usage();

  if (cmd == "profiles") return cmd_profiles();
  if (cmd == "evaluate") return cmd_evaluate(*opts);
  if (cmd == "survey") return cmd_survey(*opts);
  if (cmd == "render") return cmd_render(*opts);
  if (cmd == "islands") {
    const bool bridge = std::any_of(opts->positional.begin(), opts->positional.end(),
                                    [](const std::string& s) { return s == "bridge"; });
    return cmd_islands(*opts, bridge);
  }
  if (cmd == "send") return cmd_send(*opts);
  if (cmd == "scenario") return cmd_scenario(*opts);
  if (cmd == "load") return cmd_load(*opts);
  if (cmd == "sweep") return cmd_sweep(*opts);
  if (cmd == "trace") return cmd_trace(*opts);
  return usage();
}
