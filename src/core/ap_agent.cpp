#include "core/ap_agent.hpp"

namespace citymesh::core {

bool should_rebroadcast(const wire::PacketHeader& header, const BuildingGraph& map,
                        BuildingId ap_building) {
  // A corrupt width is header corruption, not a programming error: drop the
  // packet instead of letting the ConduitPath ctor throw out of the event
  // loop (the compile path classifies it as a malformed reception).
  if (header.conduit_width_m <= 0.0) return false;
  if (ap_building >= map.building_count()) return false;
  for (const BuildingId wp : header.waypoints) {
    if (wp >= map.building_count()) return false;  // stale/foreign map
  }
  const ConduitPath path{header.waypoints, map, header.conduit_width_m};
  return path.contains(map.centroid(ap_building));
}

bool in_broadcast_region(const wire::PacketHeader& header, const BuildingGraph& map,
                         BuildingId ap_building) {
  if (!header.has_flag(wire::PacketFlag::kBroadcast)) return false;
  if (header.waypoints.empty()) return false;
  if (ap_building >= map.building_count()) return false;
  const BuildingId center = header.waypoints.back();
  if (center >= map.building_count()) return false;
  return geo::distance(map.centroid(ap_building), map.centroid(center)) <=
         static_cast<double>(header.broadcast_radius_m);
}

namespace {

/// Payload layout of a kLocationUpdate message: 4-byte little-endian
/// building id of the device's current location.
std::optional<BuildingId> parse_location_update(std::span<const std::uint8_t> payload) {
  if (payload.size() < 4) return std::nullopt;
  return static_cast<BuildingId>(payload[0]) |
         (static_cast<BuildingId>(payload[1]) << 8) |
         (static_cast<BuildingId>(payload[2]) << 16) |
         (static_cast<BuildingId>(payload[3]) << 24);
}

}  // namespace

AgentAction ApAgent::on_receive(const MeshPacket& packet, double now_s) {
  AgentAction action;
  // Read the shared compiled form through a raw pointer: copying the
  // shared_ptr would cost an atomic increment and decrement per reception
  // on a control block every tile's receptions share. Only a header this
  // reception compiles itself needs a local owner.
  std::shared_ptr<const CompiledMessage> compiled_here;
  const CompiledMessage* msg = packet.compiled.get();
  if (msg == nullptr) {
    try {
      compiled_here = compiler_->compile_bytes(packet.header_bytes);
    } catch (const wire::DecodeError&) {
      action.malformed = true;
      return action;
    }
    msg = compiled_here.get();
  }
  if (msg->malformed) {
    // Decodable bytes carrying a corrupt conduit width: same per-reception
    // malformed drop as undecodable bytes (count it — compile_bytes only
    // counts the decode failure case).
    compiler_->count_malformed();
    action.malformed = true;
    return action;
  }
  const wire::PacketHeader& header = msg->header;
  action.message_id = header.message_id;
  action.flags = header.flags;

  AgentStateSlab& st = *slab_;
  if (!st.mark_seen(slot_, header.message_id)) {
    action.duplicate = true;
    return action;
  }

  if (st.behavior(slot_) == AgentBehavior::kCompromisedDrop) {
    // A compromised node silently swallows traffic; the seen-set insert
    // above means it also poisons retries through itself, matching the
    // paper's threat model for routing resilience.
    return action;
  }

  const bool is_broadcast = header.has_flag(wire::PacketFlag::kBroadcast);

  // Delivery into hosted postboxes.
  const auto store_into = [&](const std::shared_ptr<Postbox>& box) {
    StoredMessage stored;
    stored.message_id = header.message_id;
    stored.urgent = header.has_flag(wire::PacketFlag::kUrgent);
    stored.flags = header.flags;
    stored.stored_at_s = now_s;
    stored.sealed_payload = packet.payload;
    if (box->store(std::move(stored))) {
      ++action.delivered_count;
      action.delivered = true;
    }
  };

  if (is_broadcast) {
    // Geo-broadcast: every postbox hosted inside the region receives a copy.
    if (msg->broadcast_member(building_)) {
      st.for_each_postbox(slot_, store_into);
    }
  } else if (!header.waypoints.empty() && building_ == header.waypoints.back()) {
    // Unicast: this AP sits in the destination building (last waypoint) and
    // hosts the addressed postbox.
    if (const auto box = postbox_for_tag(header.postbox_tag)) {
      store_into(box);
      // A location update refreshes the postbox's cache of where its owner
      // last checked in (§3 step 4, enabling push forwarding).
      if (header.has_flag(wire::PacketFlag::kLocationUpdate)) {
        if (const auto at = parse_location_update(packet.payload);
            at && *at < map_->building_count()) {
          box->update_owner_location(map_->centroid(*at), now_s);
        }
      }
    }
  }

  // The collapsed rebroadcast predicate: was decode + ConduitPath rebuild +
  // point-in-rect per reception, now bitmap loads from the compiled
  // member sets (bit-identical membership — see compile_message).
  action.rebroadcast = msg->conduit_member(building_) ||
                       (is_broadcast && msg->broadcast_member(building_));
  return action;
}

}  // namespace citymesh::core
