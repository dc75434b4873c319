// Figure 8 (extension): deliverability under regional blackouts.
//
// The paper motivates CityMesh as a *fallback* network for infrastructure
// failures (§1) but evaluates only healthy meshes. This bench quantifies the
// fallback story: a downtown blackout polygon grows from 0% to 60% of the
// downtown core's area, and at each outage size we re-run the Fig-6
// reachability/deliverability protocol over the surviving mesh — including
// `send_reliable` width-escalation rescues of first-try failures.
//
// Expected shape: reachability degrades gracefully while the outage stays
// inside the core (floods detour around it through the surrounding fabric);
// once the dead zone spans the core, pairs straddling downtown lose every
// conduit and deliverability collapses. Rescue widths recover some of the
// grazing failures but cannot cross a fully dead region.
//
// Everything is seeded (placement, scenario expansion, pair sampling), so a
// second run of this binary prints byte-identical rows; the determinism
// digest at the bottom makes the comparison a one-line diff.
//
// Pass city names as arguments to restrict the run (default: boston,
// chicago, washington_dc). Writes fig8_scenario.svg: the first city's mesh
// under the 30% blackout with one traced delivery attempt.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/evaluation.hpp"
#include "core/network.hpp"
#include "faultx/engine.hpp"
#include "faultx/render.hpp"
#include "faultx/scenario.hpp"
#include "osmx/citygen.hpp"
#include "runx/city_cache.hpp"
#include "runx/engine.hpp"
#include "viz/ascii.hpp"

namespace core = citymesh::core;
namespace faultx = citymesh::faultx;
namespace geo = citymesh::geo;
namespace osmx = citymesh::osmx;
namespace runx = citymesh::runx;
namespace viz = citymesh::viz;

namespace {

constexpr double kOutageFractions[] = {0.0, 0.1, 0.2, 0.3, 0.45, 0.6};
constexpr double kSvgFraction = 0.3;

// The downtown core of a generated city: the labeled kDowntown region when
// present, otherwise the central block of the extent (downtown_radius_frac
// defaults put the core roughly in the middle half).
geo::Rect downtown_bounds(const osmx::City& city) {
  for (const auto& region : city.regions()) {
    if (region.type == osmx::AreaType::kDowntown) return region.bounds;
  }
  const geo::Rect& e = city.extent();
  const geo::Point c{(e.min.x + e.max.x) / 2.0, (e.min.y + e.max.y) / 2.0};
  return {{c.x - e.width() * 0.25, c.y - e.height() * 0.25},
          {c.x + e.width() * 0.25, c.y + e.height() * 0.25}};
}

// A blackout rectangle covering `fraction` of the downtown core's area,
// concentric with it (both sides scale by sqrt(fraction)).
geo::Polygon blackout_region(const geo::Rect& downtown, double fraction) {
  const double s = std::sqrt(fraction);
  const geo::Point c{(downtown.min.x + downtown.max.x) / 2.0,
                     (downtown.min.y + downtown.max.y) / 2.0};
  const double hw = downtown.width() * s / 2.0;
  const double hh = downtown.height() * s / 2.0;
  return geo::Polygon::rectangle({{c.x - hw, c.y - hh}, {c.x + hw, c.y + hh}});
}

faultx::Scenario blackout_scenario(const std::string& city, double fraction,
                                   const geo::Rect& downtown) {
  faultx::Scenario scenario;
  scenario.name = city + "/blackout-" + viz::fmt(fraction * 100.0, 0) + "%";
  scenario.seed = 811;
  if (fraction > 0.0) {
    faultx::BlackoutEvent blackout;
    blackout.region = blackout_region(downtown, fraction);
    blackout.at_s = 0.0;
    scenario.blackouts.push_back(std::move(blackout));
  }
  return scenario;
}

core::NetworkConfig network_config() {
  core::NetworkConfig config;
  config.placement.seed = 7;
  config.seed = 99;
  return config;
}

// Fraction of downtown-core buildings that still have a live AP — the
// in-outage counterpart to the city-wide reachability column (the blackout
// is a small fraction of the whole city, so this is where the collapse
// actually shows).
double core_service_fraction(const core::CityMeshNetwork& network,
                             const geo::Rect& downtown) {
  std::size_t total = 0;
  std::size_t served = 0;
  for (const auto& b : network.city().buildings()) {
    if (!downtown.contains(b.centroid)) continue;
    ++total;
    if (network.live_ap(b.id)) ++served;
  }
  return total ? static_cast<double>(served) / static_cast<double>(total) : 0.0;
}

// One traced delivery across the blackout: the west-most and east-most
// buildings that still have a live AP. The planned conduit either detours
// around the dead zone or is severed by it — both render meaningfully.
void render_scenario(const osmx::CityProfile& profile, const std::string& path) {
  const osmx::City city = osmx::generate_city(profile);
  core::CityMeshNetwork network{city, network_config()};
  const geo::Rect downtown = downtown_bounds(city);
  faultx::ScenarioEngine engine{
      network, blackout_scenario(profile.name, kSvgFraction, downtown)};
  engine.apply_all();

  std::optional<osmx::BuildingId> west, east;
  for (const auto& b : city.buildings()) {
    if (!network.live_ap(b.id)) continue;
    if (!west || b.centroid.x < city.building(*west).centroid.x) west = b.id;
    if (!east || b.centroid.x > city.building(*east).centroid.x) east = b.id;
  }
  const core::SendOutcome* trace = nullptr;
  core::SendOutcome outcome;
  if (west && east && *west != *east) {
    const auto key = citymesh::cryptox::KeyPair::from_seed(31337);
    const core::PostboxInfo to = core::PostboxInfo::for_key(key, *east);
    network.register_postbox(to);
    const std::uint8_t payload[] = {'f', 'i', 'g', '8'};
    core::SendOptions opts;
    opts.collect_trace = true;
    outcome = network.send(*west, to, payload, opts);
    trace = &outcome;
  }

  if (faultx::render_scenario_svg(network, engine.scenario().outage_regions,
                                  trace, path)) {
    std::cout << "\nWrote " << path << " (" << profile.name << ", "
              << viz::fmt(kSvgFraction * 100.0, 0) << "% downtown blackout, "
              << (trace && outcome.delivered ? "delivered" : "not delivered")
              << ")\n";
  } else {
    std::cout << "\nFailed to write " << path << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  citymesh::benchutil::ManifestEmitter emit{"fig8_scenarios", argc, argv};
  const std::size_t n_jobs = citymesh::benchutil::parse_jobs(argc, argv);
  std::cout << "CityMesh extension - Figure 8 (deliverability vs outage size)\n"
            << "blackout polygon grows over the downtown core; Fig-6 protocol\n"
            << "re-measured on the surviving mesh at each size ("
            << runx::resolve_jobs(n_jobs) << " worker thread(s))\n";

  std::vector<osmx::CityProfile> profiles;
  if (argc > 1) {
    for (int i = 1; i < argc; ++i) profiles.push_back(osmx::profile_by_name(argv[i]));
  } else {
    for (const char* name : {"boston", "chicago", "washington_dc"}) {
      profiles.push_back(osmx::profile_by_name(name));
    }
  }

  core::SnapshotConfig snapshot;
  snapshot.pairs = 400;
  snapshot.deliver_pairs = 25;
  snapshot.reliable_rescue = true;
  snapshot.seed = 4242;

  emit.manifest().city = profiles.size() == 1 ? profiles.front().name : "all";
  emit.manifest().seeds["snapshot"] = snapshot.seed;
  emit.manifest().seeds["scenario"] = 811;
  emit.manifest().set_param("pairs", static_cast<std::uint64_t>(snapshot.pairs));
  emit.manifest().set_param("deliver_pairs",
                            static_cast<std::uint64_t>(snapshot.deliver_pairs));

  // One run per (city, outage fraction) on the runx engine. Every point of a
  // city shares the same compiled mesh through the cache (the placement is
  // seeded and identical); each run builds its own fresh network over it so
  // the sweep varies only the outage size.
  const std::size_t n_fractions = std::size(kOutageFractions);
  std::vector<runx::RunJob> grid;
  for (const auto& profile : profiles) {
    emit.manifest().seeds[profile.name] = profile.seed;
    for (const double fraction : kOutageFractions) {
      runx::RunJob job;
      job.city = profile.name;
      job.seed = profile.seed;
      job.point = viz::fmt(fraction * 100.0, 0) + "%";
      grid.push_back(std::move(job));
    }
  }
  runx::CityCache cache;
  const runx::RunFn fn = [&](const runx::RunJob& job) {
    const auto& profile = profiles[job.index / n_fractions];
    const double fraction = kOutageFractions[job.index % n_fractions];
    const auto compiled = cache.get(profile, network_config());
    const geo::Rect downtown = downtown_bounds(compiled->city);
    core::CityMeshNetwork network{compiled, network_config()};
    faultx::ScenarioEngine engine{
        network, blackout_scenario(profile.name, fraction, downtown)};
    engine.apply_all();
    const core::NetworkSnapshot snap = core::evaluate_snapshot(network, snapshot);
    runx::RunResult result;
    result.cells = {profile.name, viz::fmt(fraction * 100.0, 0) + "%",
                    std::to_string(snap.aps_total - snap.aps_up),
                    viz::fmt(snap.up_fraction(), 3),
                    viz::fmt(core_service_fraction(network, downtown), 3),
                    viz::fmt(snap.reachability(), 3),
                    viz::fmt(snap.deliverability(), 3),
                    std::to_string(snap.rescues_succeeded) + "/" +
                        std::to_string(snap.rescues_attempted),
                    viz::fmt(snap.deliverability_with_rescue(), 3)};
    result.metrics = network.merged_metrics();
    return result;
  };
  const runx::SweepReport report = runx::run_jobs(std::move(grid), fn, {n_jobs});

  std::vector<std::vector<std::string>> rows;
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    if (!report.results[i].ok()) {
      std::cerr << "  [" << report.jobs[i].city << " " << report.jobs[i].point
                << "] failed: " << report.results[i].error << '\n';
      rows.push_back({report.jobs[i].city, report.jobs[i].point,
                      "ERROR: " + report.results[i].error});
      continue;
    }
    emit.add_metrics(report.results[i].metrics);
    rows.push_back(report.results[i].cells);
  }

  viz::print_table(std::cout,
                   "Figure 8: downtown blackout sweep (0-60% of core area)",
                   {"city", "outage", "APs down", "up frac", "core srv", "reach",
                    "deliver", "rescued", "deliver+rescue"},
                   rows);

  citymesh::benchutil::digest_rows(emit, rows);
  std::cout << "\nDeterminism digest: " << emit.digest_hex()
            << "  (same seed => same digest across runs)\n"
            << "Expected shape: graceful reachability decay while the outage\n"
            << "stays inside the core, collapse once it spans downtown; wider\n"
            << "rescue conduits recover grazing failures only.\n";

  render_scenario(profiles.front(), "fig8_scenario.svg");
  return emit.finish();
}
