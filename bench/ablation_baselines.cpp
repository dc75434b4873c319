// Baseline comparison (§5): CityMesh's conduit flood vs unrestricted
// flooding, greedy geographic forwarding, and AODV-style reactive discovery,
// all over the *same* realized AP mesh and the same source/destination
// pairs.
//
// What each column demonstrates:
//   flood   - delivers whenever reachable but transmits from (nearly) every
//             AP in the component: the no-state upper bound on cost.
//   greedy  - near-optimal transmissions when it works, but dead-ends at
//             local minima (the in-building imprecision argument of §5).
//   aodv    - data path is shortest, but every route request floods the
//             component with control packets: the per-route burst that does
//             not scale to city-size networks.
//   citymesh- no control packets ever, transmissions bounded by the conduit.
#include <iostream>

#include "bench_util.hpp"
#include "cryptox/identity.hpp"
#include "geo/rng.hpp"
#include "geo/stats.hpp"
#include "routing/baselines.hpp"
#include "viz/ascii.hpp"

namespace core = citymesh::core;
namespace geo = citymesh::geo;
namespace routing = citymesh::routing;
namespace viz = citymesh::viz;
namespace cryptox = citymesh::cryptox;

int main(int argc, char** argv) {
  citymesh::benchutil::ManifestEmitter emit{"ablation_baselines", argc, argv};
  std::cout << "CityMesh baseline comparison (same mesh, same pairs)\n";
  const auto city = citymesh::benchutil::ablation_city();
  emit.manifest().city = city.name();
  emit.manifest().seeds["pair_rng"] = 2025;
  core::NetworkConfig net_cfg;
  core::CityMeshNetwork net{city, net_cfg};
  const auto& aps = net.aps();

  std::vector<geo::Point> positions;
  positions.reserve(aps.ap_count());
  for (const auto& ap : aps.aps()) positions.push_back(ap.position);

  struct Tally {
    std::size_t attempted = 0;
    std::size_t delivered = 0;
    std::vector<double> data_tx;
    std::vector<double> control_tx;
  };
  Tally citymesh_t, flood_t, greedy_t, aodv_t;

  geo::Rng rng{2025};
  const std::size_t kPairs = 30;
  std::size_t done = 0;
  std::size_t attempts = 0;
  while (done < kPairs && attempts < 400) {
    ++attempts;
    const auto from = static_cast<core::BuildingId>(rng.uniform_int(city.building_count()));
    const auto to = static_cast<core::BuildingId>(rng.uniform_int(city.building_count()));
    if (from == to) continue;
    const auto src_ap = aps.representative_ap(city, from);
    const auto dst_ap = aps.representative_ap(city, to);
    if (!src_ap || !dst_ap || !aps.connected(*src_ap, *dst_ap)) continue;
    ++done;

    // CityMesh conduit flood (full event simulation).
    const auto keys = cryptox::KeyPair::from_seed(9000 + done);
    const auto info = core::PostboxInfo::for_key(keys, to);
    if (net.register_postbox(info)) {
      static constexpr std::string_view kPayload = "baseline-compare";
      const std::span<const std::uint8_t> payload{
          reinterpret_cast<const std::uint8_t*>(kPayload.data()), kPayload.size()};
      const auto outcome = net.send(from, info, payload);
      ++citymesh_t.attempted;
      if (outcome.delivered) {
        ++citymesh_t.delivered;
        citymesh_t.data_tx.push_back(static_cast<double>(outcome.transmissions));
        citymesh_t.control_tx.push_back(0.0);
      }
    }

    // Unrestricted flood.
    const auto f = routing::flood_route(aps.graph(), *src_ap, *dst_ap, 10000);
    ++flood_t.attempted;
    if (f.delivered) {
      ++flood_t.delivered;
      flood_t.data_tx.push_back(static_cast<double>(f.data_transmissions));
      flood_t.control_tx.push_back(0.0);
    }

    // Greedy geographic forwarding.
    const auto g = routing::greedy_geo_route(aps.graph(), positions, *src_ap, *dst_ap);
    ++greedy_t.attempted;
    if (g.delivered) {
      ++greedy_t.delivered;
      greedy_t.data_tx.push_back(static_cast<double>(g.data_transmissions));
      greedy_t.control_tx.push_back(0.0);
    }

    // AODV-style reactive.
    const auto a = routing::aodv_route(aps.graph(), *src_ap, *dst_ap);
    ++aodv_t.attempted;
    if (a.delivered) {
      ++aodv_t.delivered;
      aodv_t.data_tx.push_back(static_cast<double>(a.data_transmissions));
      aodv_t.control_tx.push_back(static_cast<double>(a.control_transmissions));
    }
  }

  const auto row = [](const char* name, const Tally& t) {
    std::vector<std::string> r;
    r.emplace_back(name);
    r.push_back(viz::fmt(t.attempted
                             ? static_cast<double>(t.delivered) / t.attempted
                             : 0.0,
                         3));
    r.push_back(t.data_tx.empty() ? "-" : viz::fmt(geo::median(t.data_tx), 0));
    r.push_back(t.control_tx.empty() ? "-" : viz::fmt(geo::median(t.control_tx), 0));
    return r;
  };

  const std::vector<std::vector<std::string>> rows{
      row("citymesh (conduit flood)", citymesh_t), row("flood", flood_t),
      row("greedy geographic", greedy_t), row("aodv (reactive)", aodv_t)};
  viz::print_table(std::cout,
                   "Baselines over " + std::to_string(done) + " reachable pairs (" +
                       std::to_string(aps.ap_count()) + " APs)",
                   {"protocol", "delivery rate", "data tx (med)", "control tx (med)"},
                   rows);
  citymesh::benchutil::digest_rows(emit, rows);
  emit.manifest().set_param("pairs", static_cast<std::uint64_t>(done));
  emit.add_metrics(net.merged_metrics());

  std::cout << "\nExpected shape: flood delivers everything at the highest data\n"
            << "cost; greedy is cheapest but drops pairs at dead ends; AODV's\n"
            << "data path is optimal but its control burst is component-sized;\n"
            << "CityMesh delivers nearly everything with zero control packets\n"
            << "and data cost far below flood.\n";
  return emit.finish();
}
