// SCC mesh topology: 24 tiles in a 6x4 grid, 2 cores per tile, 4 on-die
// memory controllers on the mesh edges. Routing is dimension-ordered XY
// (first X, then Y), as on the real chip.
#pragma once

#include <cstdint>
#include <vector>

#include "common/contracts.hpp"

namespace scc::noc {

using CoreId = int;
using TileId = int;

struct TileCoord {
  int x = 0;
  int y = 0;
  friend bool operator==(TileCoord, TileCoord) = default;
};

/// A directed mesh link between two neighbouring routers, identified for
/// traffic accounting. Links to/from memory controllers use the MC's pseudo
/// tile coordinates.
struct LinkId {
  TileCoord from;
  TileCoord to;
  friend bool operator==(LinkId, LinkId) = default;
};

class Topology {
 public:
  /// Standard SCC: 6x4 tiles, 2 cores each, 4 MCs. Other shapes are allowed
  /// for testing scalability (cores = 2 * tiles_x * tiles_y).
  Topology(int tiles_x = 6, int tiles_y = 4, int cores_per_tile = 2);

  [[nodiscard]] int tiles_x() const { return tiles_x_; }
  [[nodiscard]] int tiles_y() const { return tiles_y_; }
  [[nodiscard]] int cores_per_tile() const { return cores_per_tile_; }
  [[nodiscard]] int num_tiles() const { return tiles_x_ * tiles_y_; }
  [[nodiscard]] int num_cores() const { return num_tiles() * cores_per_tile_; }

  [[nodiscard]] TileId tile_of(CoreId core) const {
    SCC_EXPECTS(core >= 0 && core < num_cores());
    return core / cores_per_tile_;
  }
  [[nodiscard]] TileCoord coord_of_tile(TileId tile) const {
    SCC_EXPECTS(tile >= 0 && tile < num_tiles());
    return {tile % tiles_x_, tile / tiles_x_};
  }
  [[nodiscard]] TileCoord coord_of(CoreId core) const {
    return coord_of_tile(tile_of(core));
  }

  /// Manhattan distance between the tiles of two cores (0 if same tile).
  [[nodiscard]] int hops(CoreId a, CoreId b) const;

  /// Hops from a core's tile to its assigned memory controller. The four
  /// MCs sit at the left/right edges of rows 0 and tiles_y-1 (the real SCC
  /// attaches them at routers (0,0), (5,0), (0,2), (5,2)); each core uses
  /// the controller of its quadrant, as in the default SCC LUT setup.
  [[nodiscard]] int hops_to_mc(CoreId core) const;

  /// Which of the four controllers serves this core (0..3).
  [[nodiscard]] int mc_of(CoreId core) const;

  [[nodiscard]] TileCoord mc_coord(int mc_index) const;

  /// XY route between two cores' routers as a sequence of directed links
  /// (empty when both cores share a tile). Used for traffic accounting.
  [[nodiscard]] std::vector<LinkId> route(CoreId a, CoreId b) const;

 private:
  int tiles_x_;
  int tiles_y_;
  int cores_per_tile_;
};

}  // namespace scc::noc
