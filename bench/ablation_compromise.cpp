// Security evaluation: deliverability under compromised nodes.
//
// The paper's security agenda (§1) sets the bar: "A successful routing
// protocol for a DFN should find a path between two nodes wishing to
// communicate if there exists a path that does not traverse a compromised
// node." This bench measures how the *current* CityMesh protocol fares
// against that bar: buildings are compromised at random (their APs silently
// swallow packets) and deliverability is measured as the fraction rises.
//
// Expected shape: the conduit's parallel-building redundancy rides through
// scattered compromise (a few percent) with little loss, but deliverability
// decays well before the fraction where no clean path exists — CityMesh has
// no detection or rerouting, which the paper explicitly leaves as agenda.
#include <iostream>

#include "bench_util.hpp"
#include "cryptox/identity.hpp"
#include "geo/rng.hpp"
#include "viz/ascii.hpp"

namespace core = citymesh::core;
namespace geo = citymesh::geo;
namespace viz = citymesh::viz;
namespace cryptox = citymesh::cryptox;

int main(int argc, char** argv) {
  citymesh::benchutil::ManifestEmitter emit{"ablation_compromise", argc, argv};
  std::cout << "CityMesh security - deliverability vs compromised-building fraction\n";
  const auto city = citymesh::benchutil::ablation_city();
  emit.manifest().city = city.name();
  emit.manifest().seeds["compromise_rng"] = 999;
  emit.manifest().seeds["pair_rng"] = 2024;

  std::vector<std::vector<std::string>> rows;
  for (const double fraction : {0.0, 0.01, 0.03, 0.05, 0.10, 0.20}) {
    core::NetworkConfig net_cfg;
    core::CityMeshNetwork net{city, net_cfg};

    // Compromise a random building subset.
    geo::Rng rng{999};
    std::size_t compromised = 0;
    for (const auto& b : city.buildings()) {
      if (rng.chance(fraction)) {
        net.compromise_building(b.id, core::AgentBehavior::kCompromisedDrop);
        ++compromised;
      }
    }

    // Deliverability over reachable pairs with honest endpoints.
    geo::Rng pairs{2024};
    std::size_t attempted = 0;
    std::size_t delivered = 0;
    int guard = 0;
    while (attempted < 40 && ++guard < 600) {
      const auto a = static_cast<core::BuildingId>(pairs.uniform_int(city.building_count()));
      const auto b = static_cast<core::BuildingId>(pairs.uniform_int(city.building_count()));
      if (a == b) continue;
      const auto ap_a = net.aps().representative_ap(city, a);
      const auto ap_b = net.aps().representative_ap(city, b);
      if (!ap_a || !ap_b || !net.aps().connected(*ap_a, *ap_b)) continue;
      const auto keys = cryptox::KeyPair::from_seed(5000 + attempted);
      const auto info = core::PostboxInfo::for_key(keys, b);
      if (!net.register_postbox(info)) continue;
      ++attempted;
      static constexpr std::string_view kPayload = "compromise-sweep";
      const std::span<const std::uint8_t> payload{
          reinterpret_cast<const std::uint8_t*>(kPayload.data()), kPayload.size()};
      if (net.send(a, info, payload).delivered) ++delivered;
    }
    emit.add_metrics(net.merged_metrics());
    rows.push_back({viz::fmt(fraction * 100, 0) + "%", std::to_string(compromised),
                    viz::fmt(attempted ? static_cast<double>(delivered) / attempted : 0.0,
                             2)});
    std::cout << "  " << fraction * 100 << "% done" << std::endl;
  }

  viz::print_table(std::cout, "Compromised-building sweep (ablation-town)",
                   {"compromised", "buildings", "deliverability"}, rows);
  citymesh::benchutil::digest_rows(emit, rows);
  std::cout << "\nExpected shape: near-baseline deliverability at 1-3% (conduit\n"
            << "redundancy), visible decay by 10-20%. Detection and clean-path\n"
            << "rerouting remain the paper's open agenda items.\n";
  return emit.finish();
}
