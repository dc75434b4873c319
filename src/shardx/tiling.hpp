// Spatial tiling of one compiled city for intra-run parallelism (shardx).
//
// A run is partitioned into K tiles by laying a cols x rows grid over the
// building-centroid bounding box: every building falls in exactly one tile,
// and every AP inherits its building's tile (building-atomic tiling). That
// atomicity is what keeps the protocol's delivery semantics tile-local —
// unicast postbox stores, ack initiation, and ack-return delivery all happen
// at the addressed building (core/ap_agent), so they never span tiles.
//
// Each tile simulates only its internal topology edges; the edges the grid
// cuts are listed as directed CrossLinks and serviced by the owning network
// as handoff events (engine.hpp). The conservative-lookahead bound derives
// from those cut edges: a packet put on the air at time t cannot arrive
// across a cut edge before t + min(serialization + propagation), so tiles
// may run that far ahead of each other without ever receiving an event in
// their past.
//
// Tiles may be empty (a grid cell with no buildings); they cost one idle
// simulator per window and nothing else. shards larger than the building
// count therefore degrade gracefully.
#pragma once

#include <cstdint>
#include <vector>

#include "geo/spatial_grid.hpp"
#include "graphx/graph.hpp"
#include "mesh/ap_network.hpp"
#include "sim/simulator.hpp"

namespace citymesh::shardx {

using TileId = std::uint32_t;

/// One directed topology edge the tiling cut: `from` and `to` live in
/// different tiles. Both directions of an undirected edge appear.
/// `length_m` is the AP network's link_length(from, to).
struct CrossLink {
  mesh::ApId from;
  mesh::ApId to;
  double length_m;
};

struct TilePlan {
  std::size_t tile_count = 1;  ///< requested K, including empty tiles
  std::uint32_t grid_cols = 1;
  std::uint32_t grid_rows = 1;
  std::vector<TileId> building_tile;  ///< building id -> tile
  std::vector<TileId> ap_tile;        ///< AP id -> tile (its building's tile)
  std::vector<std::vector<mesh::ApId>> tile_aps;  ///< per tile, ascending AP ids
  std::vector<CrossLink> cross;       ///< every directed cut edge
  std::vector<bool> boundary_ap;      ///< AP has >= 1 cut edge (either direction)
};

/// How plan_tiles assigns buildings to tiles.
enum class TilingMode : std::uint8_t {
  /// Uniform cols x rows grid over the centroid bounding box. Simple, but
  /// downtown cells carry far more APs (and
  /// radio edges, and therefore events) than suburban ones, so the densest
  /// tile dominates every window barrier.
  kGrid,
  /// Weighted rectilinear partition: buildings are cut into `cols` columns
  /// of roughly equal total weight (by centroid x), then each column into
  /// `rows` tiles likewise (by centroid y), where a building's weight is
  /// 1 + its APs' radio degrees — a static proxy for the event rate its
  /// receptions generate. Same cols x rows topology as kGrid, boundaries
  /// placed where the load is. Deterministic for a given city + shards.
  /// The default.
  kAdaptive,
};

/// Partition the city into `shards` tiles. Deterministic for a given
/// city + shards + mode. Precondition: shards >= 1; building_count > 0 when
/// shards > 1.
TilePlan plan_tiles(const geo::SpatialGrid& centroid_grid, std::size_t building_count,
                    const mesh::ApNetwork& net, std::size_t shards,
                    TilingMode mode = TilingMode::kAdaptive);

/// The tile-internal subgraph over the FULL AP id space: vertices keep their
/// global ids (so one packet's node ids mean the same thing everywhere);
/// vertices owned by other tiles are simply isolated. Each link weighs its
/// link_length(). The engine does not build it (every tile walks the one
/// shared CSR with a tile filter); it is the reference that walk is tested
/// against.
graphx::Graph tile_subgraph(const mesh::ApNetwork& net, const std::vector<TileId>& ap_tile,
                            TileId tile);

/// Conservative lookahead window, seconds: the minimum over every cut edge
/// of (min_serialization_s + prop_delay_s_per_m * length). A transmission at
/// time t arrives across a cut edge no earlier than t + lookahead, so tiles
/// synchronized at window barriers of this width never see a handoff in
/// their past. Returns sim::kForever when there are no cut edges (single
/// tile, or tiles radio-isolated from each other): one window covers the
/// whole run.
double lookahead_s(const std::vector<CrossLink>& cross, double min_serialization_s,
                   double prop_delay_s_per_m);

}  // namespace citymesh::shardx
