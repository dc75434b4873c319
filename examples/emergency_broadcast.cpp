// Emergency geo-broadcast + reliable delivery walkthrough.
//
// Three of the paper's target applications in one scenario:
//   1. The city's emergency authority publishes a *signed* evacuation
//      bulletin to every postbox within a radius of a landmark building
//      (§1's "emergency broadcast messages"). Residents verify the Ed25519
//      signature offline against the authority id they saved before the
//      outage - and reject a rogue issuer's forgery.
//   2. A medic sends a supply request to the depot with `send_reliable`:
//      the destination acks along the reversed conduit, and the sender
//      escalates the conduit width until the ack arrives.
//
// Usage:  ./build/examples/emergency_broadcast [profile-name]  (default boston)
#include <iostream>

#include "apps/bulletin.hpp"
#include "core/network.hpp"
#include "cryptox/sealed.hpp"
#include "geo/rng.hpp"
#include "osmx/citygen.hpp"
#include "viz/ascii.hpp"

using namespace citymesh;

int main(int argc, char** argv) {
  const std::string profile = argc > 1 ? argv[1] : "boston";
  const auto city = osmx::generate_city(osmx::profile_by_name(profile));
  core::NetworkConfig cfg;
  // The reduced-overhead protocol variant: same-building backoff suppression.
  cfg.relay.kind = relayx::PolicyKind::kBuildingBackoff;
  core::CityMeshNetwork net{city, cfg};
  std::cout << "== emergency broadcast drill: " << city.name() << " ==\n"
            << net.aps().ap_count() << " APs, suppression on\n\n";

  // Residents with postboxes scattered around the landmark (the "city hall"
  // building at the center of downtown) and further out.
  const auto landmark = [&] {
    core::BuildingId best = 0;
    double best_d = 1e18;
    for (const auto& b : city.buildings()) {
      const double d = geo::distance(b.centroid, city.extent().center());
      if (d < best_d) {
        best_d = d;
        best = b.id;
      }
    }
    return best;
  }();

  geo::Rng rng{31};
  struct Resident {
    std::shared_ptr<core::Postbox> box;
    double distance_m;
  };
  std::vector<Resident> residents;
  int seed = 400;
  std::size_t near = 0;
  std::size_t anywhere = 0;
  while (near < 6 || anywhere < 6) {
    const auto b = static_cast<core::BuildingId>(rng.uniform_int(city.building_count()));
    const double d =
        geo::distance(city.building(b).centroid, city.building(landmark).centroid);
    const bool want_near = near < 6;
    if (want_near && d > 350.0) continue;   // recruit the first six downtown
    if (!want_near && d < 500.0) continue;  // and the rest well outside
    const auto keys = cryptox::KeyPair::from_seed(seed++);
    if (auto box = net.register_postbox(core::PostboxInfo::for_key(keys, b))) {
      residents.push_back({box, d});
      (want_near ? near : anywhere) += 1;
    }
  }

  // --- 1. A signed evacuation bulletin around the landmark. Residents
  // trusted the city authority's id (hash of its verify key) before the
  // outage; a rogue issuer signs convincingly but is rejected offline.
  constexpr double kRadius = 400.0;
  auto authority = apps::BulletinAuthority::from_seed(2026);
  auto rogue = apps::BulletinAuthority::from_seed(666);

  const auto bc = apps::publish_bulletin(
      net, authority, landmark, apps::Severity::kEvacuate, landmark,
      static_cast<std::uint32_t>(kRadius), "EVACUATION",
      "flooding expected, move to high ground");
  std::cout << "-- signed bulletin, radius " << kRadius << " m around the landmark --\n"
            << "  transmissions: " << bc.transmissions << '\n'
            << "  postboxes reached: " << bc.postboxes_reached << '\n';

  // A rogue authority floods a fake all-clear over the same region.
  apps::publish_bulletin(net, rogue, landmark, apps::Severity::kAdvisory, landmark,
                         static_cast<std::uint32_t>(kRadius), "all clear",
                         "return home (FAKE)");

  std::size_t inside = 0, inside_reached = 0, outside_reached = 0;
  std::size_t verified = 0, rejected = 0;
  for (const auto& r : residents) {
    // Every device runs its own verifier with its own replay floor.
    apps::BulletinVerifier verifier;
    verifier.trust(authority.id());
    const bool in = r.distance_m <= kRadius;
    const auto mail = r.box->retrieve();
    inside += in;
    inside_reached += (in && !mail.empty());
    outside_reached += (!in && !mail.empty());
    for (const auto& stored : mail) {
      const auto [result, bulletin] = verifier.accept(stored.sealed_payload);
      if (result == apps::BulletinVerifier::Result::kAccepted) {
        ++verified;
      } else {
        ++rejected;
      }
    }
  }
  std::cout << "  residents inside radius reached: " << inside_reached << "/" << inside
            << "; outside reached: " << outside_reached << " (should be 0)\n"
            << "  bulletins verified: " << verified << ", rejected (rogue/replay): "
            << rejected << "\n\n";

  // --- 2. Reliable supply request with ack + width escalation.
  const auto medic = cryptox::KeyPair::from_seed(777);
  const auto depot = cryptox::KeyPair::from_seed(778);
  // Medic near the landmark, depot across town.
  const core::BuildingId medic_home = landmark;
  core::BuildingId depot_home = 0;
  double far = 0.0;
  for (const auto& b : city.buildings()) {
    const double d = geo::distance(b.centroid, city.building(landmark).centroid);
    if (d > far && net.aps().representative_ap(city, b.id) &&
        net.aps().connected(*net.aps().representative_ap(city, landmark),
                            *net.aps().representative_ap(city, b.id))) {
      far = d;
      depot_home = b.id;
    }
  }
  const auto medic_info = core::PostboxInfo::for_key(medic, medic_home);
  const auto depot_info = core::PostboxInfo::for_key(depot, depot_home);
  net.register_postbox(medic_info);
  net.register_postbox(depot_info);

  const auto sealed = cryptox::seal(medic, depot_info.public_key,
                                    "need insulin + bandages at the landmark", 99);
  const auto blob = sealed.serialize();
  const auto reliable = net.send_reliable(medic_home, depot_info,
                                          {blob.data(), blob.size()}, medic_info);
  std::cout << "-- reliable supply request to the depot (" << viz::fmt(far, 0)
            << " m away) --\n"
            << "  attempts: " << reliable.attempts << '\n'
            << "  delivered: " << (reliable.delivered ? "yes" : "no") << '\n'
            << "  acknowledged: " << (reliable.acknowledged ? "yes" : "no") << '\n';
  for (std::size_t i = 0; i < reliable.tries.size(); ++i) {
    const auto& t = reliable.tries[i];
    std::cout << "    try " << i + 1 << ": W=" << t.route.conduit_width_m << " m, "
              << t.transmissions << " tx, delivered=" << t.delivered
              << ", ack=" << t.ack_received << '\n';
  }
  return reliable.acknowledged ? 0 : 1;
}
