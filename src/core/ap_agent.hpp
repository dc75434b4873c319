// The per-AP software agent (§3 step 3).
//
// Each AP runs the same small state machine: on receiving a CityMesh packet
// it (1) suppresses duplicates by message id, (2) delivers to a hosted
// postbox when the packet addresses one, and (3) rebroadcasts iff its own
// position lies inside a conduit reconstructed from the header's waypoint
// buildings and its cached building map. No routing tables, no neighbor
// state — the seen-set is the agent's only mutable state, and it lives in a
// shared struct-of-arrays AgentStateSlab (core/ap_state) indexed by AP id.
// The agent object itself is a view: immutable identity plus references to
// the slab and the compile service, cheap enough that a network builds one
// per call instead of storing one per AP.
#pragma once

#include <memory>

#include "core/ap_state.hpp"
#include "core/building_graph.hpp"
#include "core/compiled_message.hpp"
#include "core/conduit.hpp"
#include "core/postbox.hpp"
#include "mesh/ap_network.hpp"
#include "wire/packet.hpp"

namespace citymesh::core {

/// The rebroadcast predicate in isolation (shared with benches/tests).
///
/// Per §3 step 3, the decision is keyed on the AP's *building*: "only APs in
/// buildings that fall within the geographic area of the conduits ...
/// rebroadcast", and §4 notes "currently all the APs within a building
/// rebroadcast". The AP therefore tests its building's map centroid against
/// the reconstructed conduits — it needs no GPS of its own, only the map and
/// the identity of the building it was installed in.
bool should_rebroadcast(const wire::PacketHeader& header, const BuildingGraph& map,
                        BuildingId ap_building);

/// Geo-broadcast membership: true when the AP's building lies within the
/// header's broadcast radius of the last waypoint's centroid. Only
/// meaningful for packets carrying PacketFlag::kBroadcast.
bool in_broadcast_region(const wire::PacketHeader& header, const BuildingGraph& map,
                         BuildingId ap_building);

/// A CityMesh packet on the wire: encoded header + opaque sealed payload.
struct MeshPacket {
  std::vector<std::uint8_t> header_bytes;
  std::vector<std::uint8_t> payload;
  /// Simulation-side copy of the header's message id so the medium can tag
  /// trace events (src/obsx) without decoding the header per hop. Not part
  /// of the wire format.
  std::uint32_t trace_id = 0;
  /// Compile-once state shared by every reception of this message
  /// (core/compiled_message). CityMeshNetwork attaches it to every packet
  /// it builds, acks included, on its coordinator thread, so a tile never
  /// compiles. When null (hand-built test packets, wire round-trips) the
  /// receiving agent compiles lazily through its MessageCompiler, so the
  /// work still happens once per distinct message, not per reception.
  std::shared_ptr<const CompiledMessage> compiled;
};

/// What the agent decided to do with one received packet.
struct AgentAction {
  bool duplicate = false;
  bool malformed = false;
  bool delivered = false;    ///< stored into at least one hosted postbox
  bool rebroadcast = false;  ///< agent wants the packet retransmitted
  /// Postboxes the packet was newly stored into (geo-broadcasts can hit
  /// several at one AP).
  std::size_t delivered_count = 0;
  /// Decoded header fields, valid whenever !malformed (set even for
  /// duplicates so the network layer can attribute the packet).
  std::uint32_t message_id = 0;
  std::uint8_t flags = 0;
};

class ApAgent {
 public:
  /// `compiler` is the compile service packets lacking a precompiled
  /// message go through (so they still compile exactly once); the agent's
  /// mutable state lives in `slab` at index `slot` (the AP id, for
  /// network-owned slabs). Both must outlive the agent.
  ApAgent(mesh::ApId id, geo::Point position, BuildingId building,
          const BuildingGraph& map, MessageCompiler& compiler, AgentStateSlab& slab,
          std::uint32_t slot)
      : id_(id), position_(position), building_(building), map_(&map),
        compiler_(&compiler), slab_(&slab), slot_(slot) {}

  mesh::ApId id() const { return id_; }
  geo::Point position() const { return position_; }
  BuildingId building() const { return building_; }

  void set_behavior(AgentBehavior b) { slab_->set_behavior(slot_, b); }
  AgentBehavior behavior() const { return slab_->behavior(slot_); }

  /// Host a postbox at this AP. The agent matches incoming packets against
  /// hosted postbox tags.
  void host_postbox(std::shared_ptr<Postbox> postbox) {
    slab_->host_postbox(slot_, std::move(postbox));
  }
  std::shared_ptr<Postbox> postbox_for_tag(std::uint32_t tag) const {
    return slab_->postbox_for_tag(slot_, tag);
  }

  /// Process one received packet at simulation time `now_s`.
  AgentAction on_receive(const MeshPacket& packet, double now_s);

  /// Number of distinct messages seen (diagnostics).
  std::size_t seen_count() const { return slab_->seen_count(slot_); }

 private:
  mesh::ApId id_;
  geo::Point position_;
  BuildingId building_;
  const BuildingGraph* map_;
  MessageCompiler* compiler_;
  AgentStateSlab* slab_;
  std::uint32_t slot_;  ///< this agent's index in the slab
};

}  // namespace citymesh::core
