// SCC mesh topology: 24 tiles in a 6x4 grid, 2 cores per tile, 4 on-die
// memory controllers on the mesh edges.
//
// The one model of the mesh. The constructor computes, once and flat, the
// route between every pair of tiles, the latency factor of every directed
// link and the factor-weighted length of every route and of every tile's
// path to its memory controller; every query afterwards is a table lookup.
// Routing is dimension-ordered XY (first X, then Y), as on the real chip;
// a FaultSpec's `deadlink` clauses make every route a minimal walk over the
// surviving links instead, chosen by a BFS with a fixed +x, -x, +y, -y
// neighbour preference. `slowlink` clauses set link factors. An empty
// FaultSpec is the healthy mesh (DESIGN.md §13).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/contracts.hpp"

namespace scc::faults {
struct FaultSpec;
}

namespace scc::noc {

using CoreId = int;
using TileId = int;

struct TileCoord {
  int x = 0;
  int y = 0;
  friend bool operator==(TileCoord, TileCoord) = default;
};

/// A directed mesh link between two neighbouring routers.
struct LinkId {
  TileCoord from;
  TileCoord to;
  friend bool operator==(LinkId, LinkId) = default;
};

class Topology {
 public:
  /// Standard SCC: 6x4 tiles, 2 cores each, 4 MCs, every link healthy.
  /// Other shapes are allowed for testing scalability (cores = 2 * tiles_x *
  /// tiles_y).
  Topology(int tiles_x = 6, int tiles_y = 4, int cores_per_tile = 2);

  /// The mesh as the link clauses of `faults` leave it: routes detour around
  /// dead links and slow links carry their factor. The core clauses are
  /// mem::LatencyCalculator's. Precondition (SCC_EXPECTS): check() finds
  /// nothing wrong with `faults` on this shape.
  Topology(int tiles_x, int tiles_y, int cores_per_tile,
           const faults::FaultSpec& faults);

  /// The first problem with `faults` on a tiles_x x tiles_y mesh of
  /// cores_per_tile-core tiles (a core or tile outside it, a factor or
  /// divisor below 1, a link clause naming tiles that are not neighbours,
  /// dead links that disconnect the mesh), or nullopt when the mesh can
  /// have these faults. The one validator: run_collective, the CLIs and the
  /// samplers call it; the constructors enforce it.
  [[nodiscard]] static std::optional<std::string> check(
      int tiles_x, int tiles_y, int cores_per_tile,
      const faults::FaultSpec& faults);

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

  /// The route between two cores' routers as a sequence of directed links,
  /// each by its link_index (empty when both cores share a tile): a view
  /// into the table built at construction, the same storage on every call.
  [[nodiscard]] std::span<const std::uint32_t> route(CoreId a,
                                                     CoreId b) const {
    const Route& r = routes_[pair_index(tile_of(a), tile_of(b))];
    return {links_.data() + r.begin, r.size};
  }

  /// Links on route(a, b): the Manhattan distance on a healthy mesh.
  [[nodiscard]] int hops(CoreId a, CoreId b) const {
    return static_cast<int>(route(a, b).size());
  }

  /// Sum of link_factor over route(a, b), in route order: the effective hop
  /// count of the path, equal to hops(a, b) when no link on it is slow.
  [[nodiscard]] double weighted_hops(CoreId a, CoreId b) const {
    return routes_[pair_index(tile_of(a), tile_of(b))].weight;
  }

  /// The same, from a core's tile to its memory controller's router.
  [[nodiscard]] double weighted_hops_to_mc(CoreId core) const {
    return mc_weight_[static_cast<std::size_t>(tile_of(core))];
  }

  /// Which of the four controllers serves this core (0..3). The four MCs
  /// sit at the left/right edges of rows 0 and tiles_y-2 (the real SCC
  /// attaches them at routers (0,0), (5,0), (0,2), (5,2)); each core uses
  /// the controller of its quadrant, as in the default SCC LUT setup.
  [[nodiscard]] int mc_of(CoreId core) const;

  [[nodiscard]] TileCoord mc_coord(int mc_index) const;

  /// Dense index of a directed link, below num_links(): four slots per
  /// tile, one per direction a link can leave it in.
  [[nodiscard]] std::size_t link_index(const LinkId& link) const;
  [[nodiscard]] std::size_t num_links() const {
    return 4 * static_cast<std::size_t>(num_tiles());
  }
  /// The directed link whose link_index is `index`. Precondition: the link
  /// is on the mesh (an edge tile's outward slots name no link).
  [[nodiscard]] LinkId link(std::size_t index) const;

  /// Latency multiplier of the directed link `index` (below num_links(),
  /// as every route entry is); 1.0 unless a slowlink clause names it.
  [[nodiscard]] double link_factor(std::size_t index) const {
    return link_factor_[index];
  }

 private:
  /// One (tile, tile) pair: its links in links_, and their summed factors.
  struct Route {
    std::uint32_t begin;
    std::uint32_t size;
    double weight;
  };

  [[nodiscard]] std::size_t pair_index(TileId a, TileId b) const {
    return static_cast<std::size_t>(a) *
               static_cast<std::size_t>(num_tiles()) +
           static_cast<std::size_t>(b);
  }

  int tiles_x_;
  int tiles_y_;
  int cores_per_tile_;
  std::vector<std::uint32_t> links_;  // every route's link indices, concatenated
  std::vector<Route> routes_;         // per (tile, tile) pair, row-major
  std::vector<double> link_factor_;   // per link_index
  std::vector<double> mc_weight_;     // per tile
};

}  // namespace scc::noc
