#include "core/compiled_message.hpp"

#include "geo/spatial_grid.hpp"

namespace citymesh::core {

namespace {

/// Candidate inflation for the grid pre-filter. The exact OrientedRect
/// containment test decides membership; the bounding-box query only has to
/// be a superset, so a small margin absorbs any floating-point disagreement
/// between a rect's corner extremes and its dot-product contains() at the
/// boundary.
constexpr double kBoundsMargin = 1e-3;

}  // namespace

CompiledMessage compile_message(const wire::PacketHeader& header,
                                const BuildingGraph& map) {
  CompiledMessage msg;
  msg.header = header;

  // Satellite of the old should_rebroadcast bug: a corrupt width used to
  // escape as std::invalid_argument from the ConduitPath ctor *inside the
  // event loop*. Validated here instead, the reception becomes a counted
  // malformed drop like any other header corruption.
  if (header.conduit_width_m <= 0.0) {
    msg.malformed = true;
    return msg;
  }

  // Stale/foreign-map waypoints: the message is decodable but nobody can
  // reconstruct its conduits — deliverable by exact building match only,
  // never rebroadcast (identical to the old per-reception early-outs).
  msg.waypoints_valid = true;
  for (const BuildingId wp : header.waypoints) {
    if (wp >= map.building_count()) {
      msg.waypoints_valid = false;
      break;
    }
  }

  if (msg.waypoints_valid) {
    msg.path = ConduitPath{header.waypoints, map, header.conduit_width_m};

    // Member-building set: grid candidates per conduit bounding box, refined
    // by the exact whole-path containment test the old predicate ran — so
    // membership is bit-identical, just precomputed.
    const geo::SpatialGrid& grid = map.centroid_grid();
    for (const geo::OrientedRect& conduit : msg.path.conduits()) {
      for (const std::uint32_t b : grid.query_rect(conduit.bounds().expanded(kBoundsMargin))) {
        if (msg.members.contains(b)) continue;
        if (msg.path.contains(map.centroid(b))) msg.members.insert(b);
      }
    }
  }

  // Geo-broadcast disc membership around the last waypoint (the old
  // in_broadcast_region, precomputed). The radius query over-collects by the
  // margin; the exact distance predicate below decides.
  if (msg.header.has_flag(wire::PacketFlag::kBroadcast) && !header.waypoints.empty()) {
    const BuildingId center = header.waypoints.back();
    if (center < map.building_count()) {
      const geo::Point c = map.centroid(center);
      const auto radius = static_cast<double>(header.broadcast_radius_m);
      for (const std::uint32_t b :
           map.centroid_grid().query_radius(c, radius + kBoundsMargin)) {
        if (geo::distance(map.centroid(b), c) <= radius) {
          msg.broadcast_members.insert(b);
        }
      }
    }
  }
  return msg;
}

CompiledMessage compile_message_qfgeo(const wire::PacketHeader& header,
                                      const BuildingGraph& map,
                                      const qfgeo::RegionConfig& region) {
  CompiledMessage msg;
  msg.header = header;

  // Same validation ladder as the conduit compile: a corrupt width is a
  // counted malformed drop, and stale/foreign-map waypoints deliver by
  // exact building match only.
  if (header.conduit_width_m <= 0.0) {
    msg.malformed = true;
    return msg;
  }
  msg.waypoints_valid = !header.waypoints.empty();
  for (const BuildingId wp : header.waypoints) {
    if (wp >= map.building_count()) {
      msg.waypoints_valid = false;
      break;
    }
  }

  // The forwarding region: an ellipse between the source and destination
  // waypoints' centroids (acks reverse the waypoints; the ellipse is
  // symmetric, so both directions share one region). Membership is the
  // same grid-prefilter-then-exact-predicate shape as the conduit compile,
  // so the per-reception predicate stays one hash lookup.
  if (msg.waypoints_valid) {
    const qfgeo::Region shape = qfgeo::make_region(
        map.centroid(header.waypoints.front()),
        map.centroid(header.waypoints.back()), region);
    msg.members = qfgeo::region_members(shape, map.centroid_grid());
  }

  // Geo-broadcast disc membership, identical to the conduit compile.
  if (msg.header.has_flag(wire::PacketFlag::kBroadcast) && !header.waypoints.empty()) {
    const BuildingId center = header.waypoints.back();
    if (center < map.building_count()) {
      const geo::Point c = map.centroid(center);
      const auto radius = static_cast<double>(header.broadcast_radius_m);
      for (const std::uint32_t b :
           map.centroid_grid().query_radius(c, radius + kBoundsMargin)) {
        if (geo::distance(map.centroid(b), c) <= radius) {
          msg.broadcast_members.insert(b);
        }
      }
    }
  }
  return msg;
}

MessageCompiler::MessageCompiler(const BuildingGraph& map) : map_(&map) {}

std::shared_ptr<const CompiledMessage> MessageCompiler::compile_bytes(
    std::span<const std::uint8_t> header_bytes) {
  ++header_decodes_;
  wire::PacketHeader header;
  try {
    header = wire::decode_header(header_bytes);
  } catch (const wire::DecodeError&) {
    ++malformed_;
    throw;
  }
  return compile(header);
}

std::shared_ptr<const CompiledMessage> MessageCompiler::compile(
    const wire::PacketHeader& header) {
  if (const auto it = memo_.find(header.message_id); it != memo_.end()) {
    // Full-header verification: an id collision (or a retransmitted id with
    // different waypoints) must not inherit another message's geometry.
    if (it->second->header == header) return it->second;
  }
  ++msg_compiles_;
  auto compiled = std::make_shared<const CompiledMessage>(
      qfgeo_ ? compile_message_qfgeo(header, *map_, *qfgeo_)
             : compile_message(header, *map_));
  if (memo_.size() >= kMemoCap) memo_.clear();
  memo_[header.message_id] = compiled;
  return compiled;
}

}  // namespace citymesh::core
