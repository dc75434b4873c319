// Compile-once packet hot path (§3 step 3 at scale).
//
// A conduit flood pays the same work at every reception: decode the ~175-bit
// header, look up waypoint centroids, rebuild the ConduitPath rectangles, and
// point-test the AP's building centroid. None of that depends on the
// *receiver* — only on the message and the shared map — so a city-wide flood
// re-derives identical state thousands of times per packet.
//
// CompiledMessage is that per-message state, derived exactly once:
//   - the decoded PacketHeader,
//   - the reconstructed ConduitPath (per-conduit oriented rects + bounds),
//   - the *member-building set*: every building whose centroid lies inside
//     some conduit, found by querying the map's SpatialGrid over each
//     conduit's (slightly inflated) bounding box and refining candidates
//     with the exact ConduitPath::contains test — bit-identical to the
//     old per-reception predicate, computed once,
//   - for geo-broadcasts, the disc-membership set around the last waypoint.
//
// The per-reception rebroadcast predicate then collapses to a duplicate
// check plus one hash-set lookup of the AP's building id: no decode, no
// allocation, no geometry.
//
// MessageCompiler owns the map reference and a by-message-id memo so that
// packets which do not carry a precompiled message (hand-built test packets,
// wire round-trips) still compile once and share thereafter. A memo hit is
// only taken when the decoded header matches the memoized one, so a message-
// id collision degrades to a fresh compile, never to wrong geometry. A
// CompiledMessage is strictly immutable after compile; a
// shared_ptr<const CompiledMessage> travels inside core::MeshPacket through
// sim::BroadcastMedium fan-out, transmit queues, and backoff closures.
//
// Counters, read through the accessors of the same names:
//   header_decodes   full header decodes (scales with distinct messages on
//                    the network path, not receptions)
//   msg_compiles     CompiledMessages built
//   malformed_drops  malformed headers dropped (bad bytes or a corrupt
//                    conduit width)
// They live in no metrics registry, so run manifests and sweep digests are
// byte-identical to the pre-compile pipeline. A network compiles only on its
// coordinator thread (every packet it builds, acks included, carries its
// compiled message), so one compiler serves every tile of a tiled run and
// the counts do not depend on the tile count.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include <optional>

#include "core/building_graph.hpp"
#include "core/conduit.hpp"
#include "qfgeo/qfgeo.hpp"
#include "wire/packet.hpp"

namespace citymesh::core {

/// The shared immutable compiled form of one message. Read-only after
/// compile_message(); safe to share across agents, queued transmissions, and
/// (via runx) any number of concurrently simulated receptions.
struct CompiledMessage {
  wire::PacketHeader header;
  /// Reconstructed conduits; empty when the header is malformed or a
  /// waypoint id lies beyond the map.
  ConduitPath path;
  /// Header carries a corrupt conduit width (<= 0): the reception is a
  /// counted malformed drop, exactly like undecodable bytes.
  bool malformed = false;
  /// Every waypoint id resolves in the map. False = stale/foreign map: the
  /// message still delivers by exact building match but nobody rebroadcasts
  /// (the old per-reception predicate's behavior).
  bool waypoints_valid = false;
  /// Buildings whose centroid lies inside some conduit — the rebroadcast set.
  std::unordered_set<BuildingId> members;
  /// Geo-broadcast only: buildings within broadcast_radius_m of the last
  /// waypoint's centroid. Empty for non-broadcast messages.
  std::unordered_set<BuildingId> broadcast_members;

  /// The collapsed per-reception predicate: one hash lookup, no allocation.
  bool conduit_member(BuildingId b) const { return members.contains(b); }
  bool broadcast_member(BuildingId b) const { return broadcast_members.contains(b); }
};

/// Compile one header against a map. Pure: same header + same map => same
/// membership sets (the member set equals brute-force
/// ConduitPath::contains(centroid(b)) over every building b).
CompiledMessage compile_message(const wire::PacketHeader& header,
                                const BuildingGraph& map);

/// QF-Geo variant (src/qfgeo): `members` becomes the bounded forwarding
/// region — buildings whose centroid lies inside the ellipse between the
/// first and last waypoint's centroids — instead of the conduit corridor.
/// No ConduitPath is reconstructed (path stays empty); malformed/waypoint
/// validation and geo-broadcast disc membership are identical to the
/// conduit compile. Pure: equals brute-force Region::contains(centroid(b))
/// over every building b.
CompiledMessage compile_message_qfgeo(const wire::PacketHeader& header,
                                      const BuildingGraph& map,
                                      const qfgeo::RegionConfig& region);

/// Per-network compile service: decodes, compiles, memoizes by message id,
/// and counts. Not thread-safe — one per CityMeshNetwork, used only on its
/// coordinator thread (runx workers each own their network and therefore
/// their compiler; only the immutable CompiledMessages they produce are
/// shared).
class MessageCompiler {
 public:
  explicit MessageCompiler(const BuildingGraph& map);

  /// Decode + compile + memoize. Throws wire::DecodeError on undecodable
  /// bytes (counted under malformed_drops()); a decodable header with a
  /// corrupt width compiles into a CompiledMessage with malformed = true.
  std::shared_ptr<const CompiledMessage> compile_bytes(
      std::span<const std::uint8_t> header_bytes);

  /// Compile an already-decoded header (network send path: the header was
  /// just built, no bytes round-trip needed beyond the one compile_bytes
  /// performs). Memoized by message id with full-header verification.
  std::shared_ptr<const CompiledMessage> compile(const wire::PacketHeader& header);

  /// Switch this compiler to QF-Geo membership (src/qfgeo): every compile
  /// computes the bounded-region member set instead of the conduit one.
  /// Set once at network construction, before any compile — the memo is
  /// cleared so no conduit-shaped entry can leak into qfgeo lookups.
  void set_qfgeo(const qfgeo::RegionConfig& region) {
    qfgeo_ = region;
    memo_.clear();
  }

  /// One malformed reception was dropped.
  void count_malformed() { ++malformed_; }

  std::uint64_t header_decodes() const { return header_decodes_; }
  std::uint64_t msg_compiles() const { return msg_compiles_; }
  std::uint64_t malformed_drops() const { return malformed_; }

  const BuildingGraph& map() const { return *map_; }
  void clear_memo() { memo_.clear(); }

 private:
  /// Long workloads inject unbounded distinct messages; past this many memo
  /// entries the memo resets (deterministic, correctness-neutral — a miss
  /// just recompiles).
  static constexpr std::size_t kMemoCap = 1u << 16;

  const BuildingGraph* map_;
  /// Engaged = compile with QF-Geo bounded-region membership.
  std::optional<qfgeo::RegionConfig> qfgeo_;
  std::unordered_map<std::uint32_t, std::shared_ptr<const CompiledMessage>> memo_;
  std::uint64_t header_decodes_ = 0;
  std::uint64_t msg_compiles_ = 0;
  std::uint64_t malformed_ = 0;
};

}  // namespace citymesh::core
