#include "noc/topology.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>

#include "common/string_util.hpp"
#include "faults/fault_spec.hpp"

namespace scc::noc {

namespace {

/// The tile grid alone: all that check() and the route BFS need.
struct Grid {
  int tiles_x;
  int tiles_y;

  [[nodiscard]] std::size_t tiles() const {
    return static_cast<std::size_t>(tiles_x) *
           static_cast<std::size_t>(tiles_y);
  }
  [[nodiscard]] bool contains(TileCoord c) const {
    return c.x >= 0 && c.x < tiles_x && c.y >= 0 && c.y < tiles_y;
  }
  [[nodiscard]] std::size_t tile(TileCoord c) const {
    return static_cast<std::size_t>(c.y * tiles_x + c.x);
  }
  /// Topology::link_index of the link from `from` to its neighbour `to`:
  /// the direction counts in neighbours() order.
  [[nodiscard]] std::size_t slot(TileCoord from, TileCoord to) const {
    const std::size_t direction = to.x > from.x   ? 0
                                  : to.x < from.x ? 1
                                  : to.y > from.y ? 2
                                                  : 3;
    return 4 * tile(from) + direction;
  }
};

bool adjacent(TileCoord a, TileCoord b) {
  return std::abs(a.x - b.x) + std::abs(a.y - b.y) == 1;
}

/// Neighbour enumeration order; fixed so BFS routing is deterministic.
std::array<TileCoord, 4> neighbours(TileCoord c) {
  return {TileCoord{c.x + 1, c.y}, TileCoord{c.x - 1, c.y},
          TileCoord{c.x, c.y + 1}, TileCoord{c.x, c.y - 1}};
}

/// Both directed links of every deadlink clause, by slot.
std::vector<bool> dead_slots(const Grid& grid, const faults::FaultSpec& spec) {
  std::vector<bool> dead(4 * grid.tiles(), false);
  for (const faults::LinkRef& link : spec.dead_links) {
    dead[grid.slot(link.a, link.b)] = true;
    dead[grid.slot(link.b, link.a)] = true;
  }
  return dead;
}

/// The XY router's next hop toward `dst`: along X until the column
/// matches, then along Y.
TileCoord xy_step(TileCoord cur, TileCoord dst) {
  if (cur.x != dst.x) return {cur.x + (dst.x > cur.x ? 1 : -1), cur.y};
  return {cur.x, cur.y + (dst.y > cur.y ? 1 : -1)};
}

/// BFS distances from `from` over the surviving (non-dead) links.
/// -1 = unreachable.
std::vector<int> bfs_dist(const Grid& grid, const std::vector<bool>& dead,
                          TileCoord from) {
  std::vector<int> dist(grid.tiles(), -1);
  std::vector<TileCoord> frontier;  // FIFO: each tile enters once
  frontier.reserve(grid.tiles());
  frontier.push_back(from);
  dist[grid.tile(from)] = 0;
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const TileCoord cur = frontier[head];
    const int d = dist[grid.tile(cur)];
    for (const TileCoord next : neighbours(cur)) {
      if (!grid.contains(next)) continue;
      if (dead[grid.slot(cur, next)]) continue;
      int& nd = dist[grid.tile(next)];
      if (nd < 0) {
        nd = d + 1;
        frontier.push_back(next);
      }
    }
  }
  return dist;
}

/// The detour's next hop from `cur` down the BFS distance field `dist` of
/// the destination: the first neighbour, in the fixed enumeration order,
/// over a surviving link and one hop closer.
TileCoord bfs_step(const Grid& grid, const std::vector<bool>& dead,
                   const std::vector<int>& dist, TileCoord cur) {
  const int d = dist[grid.tile(cur)];
  SCC_ASSERT(d > 0);  // connectivity was checked
  for (const TileCoord next : neighbours(cur)) {
    if (!grid.contains(next) || dead[grid.slot(cur, next)]) continue;
    if (dist[grid.tile(next)] == d - 1) return next;
  }
  SCC_ASSERT(false);  // a tile at distance d has a neighbour at d - 1
  return cur;
}

}  // namespace

std::optional<std::string> Topology::check(int tiles_x, int tiles_y,
                                           int cores_per_tile,
                                           const faults::FaultSpec& spec) {
  const Grid grid{tiles_x, tiles_y};
  const int cores = tiles_x * tiles_y * cores_per_tile;
  for (const faults::Straggler& f : spec.stragglers) {
    if (f.core < 0 || f.core >= cores) {
      return strprintf("straggler core %d out of range (0..%d)", f.core,
                       cores - 1);
    }
    if (!(f.factor >= 1.0)) {
      return strprintf("straggler factor %g must be >= 1", f.factor);
    }
  }
  for (const faults::Dvfs& f : spec.dvfs) {
    if (f.core < 0 || f.core >= cores) {
      return strprintf("dvfs core %d out of range (0..%d)", f.core,
                       cores - 1);
    }
    if (f.divisor < 1) {
      return strprintf("dvfs divisor %d must be >= 1", f.divisor);
    }
  }
  const auto check_link = [&](const faults::LinkRef& link,
                              const char* kind) -> std::optional<std::string> {
    if (!grid.contains(link.a) || !grid.contains(link.b)) {
      return strprintf("%s %d,%d-%d,%d names a tile outside the %dx%d mesh",
                       kind, link.a.x, link.a.y, link.b.x, link.b.y, tiles_x,
                       tiles_y);
    }
    if (!adjacent(link.a, link.b)) {
      return strprintf("%s %d,%d-%d,%d does not name adjacent tiles", kind,
                       link.a.x, link.a.y, link.b.x, link.b.y);
    }
    return std::nullopt;
  };
  for (const faults::SlowLink& f : spec.slow_links) {
    if (auto err = check_link(f.link, "slowlink")) return err;
    if (!(f.factor >= 1.0)) {
      return strprintf("slowlink factor %g must be >= 1", f.factor);
    }
  }
  for (const faults::LinkRef& link : spec.dead_links) {
    if (auto err = check_link(link, "deadlink")) return err;
  }
  if (!spec.dead_links.empty()) {
    const std::vector<int> dist =
        bfs_dist(grid, dead_slots(grid, spec), TileCoord{0, 0});
    if (std::any_of(dist.begin(), dist.end(),
                    [](int d) { return d < 0; })) {
      return std::string("dead links disconnect the mesh");
    }
  }
  return std::nullopt;
}

Topology::Topology(int tiles_x, int tiles_y, int cores_per_tile)
    : Topology(tiles_x, tiles_y, cores_per_tile, faults::FaultSpec{}) {}

Topology::Topology(int tiles_x, int tiles_y, int cores_per_tile,
                   const faults::FaultSpec& faults)
    : tiles_x_(tiles_x), tiles_y_(tiles_y), cores_per_tile_(cores_per_tile) {
  SCC_EXPECTS(tiles_x >= 1 && tiles_y >= 1 && cores_per_tile >= 1);
  SCC_EXPECTS(!check(tiles_x, tiles_y, cores_per_tile, faults).has_value());
  const Grid grid{tiles_x, tiles_y};

  link_factor_.assign(num_links(), 1.0);
  for (const faults::SlowLink& f : faults.slow_links) {
    // Both directions of the physical channel degrade; repeated clauses on
    // the same link compose multiplicatively.
    link_factor_[grid.slot(f.link.a, f.link.b)] *= f.factor;
    link_factor_[grid.slot(f.link.b, f.link.a)] *= f.factor;
  }

  // One static minimal route per (tile, tile) pair, with its factors
  // summed in route order. A healthy mesh routes X first, then Y; dead
  // links make every route walk the BFS distance field of its destination.
  const bool rerouted = !faults.dead_links.empty();
  const std::vector<bool> dead = dead_slots(grid, faults);
  const int tiles = num_tiles();
  routes_.resize(grid.tiles() * grid.tiles());
  for (TileId to = 0; to < tiles; ++to) {
    const TileCoord dst = coord_of_tile(to);
    std::vector<int> dist;
    if (rerouted) dist = bfs_dist(grid, dead, dst);
    for (TileId from = 0; from < tiles; ++from) {
      const std::size_t begin = links_.size();
      double weight = 0.0;
      for (TileCoord cur = coord_of_tile(from); cur != dst;) {
        const TileCoord next =
            rerouted ? bfs_step(grid, dead, dist, cur) : xy_step(cur, dst);
        links_.push_back({cur, next});
        weight += link_factor_[grid.slot(cur, next)];
        cur = next;
      }
      routes_[pair_index(from, to)] = {
          static_cast<std::uint32_t>(begin),
          static_cast<std::uint32_t>(links_.size() - begin), weight};
    }
  }

  mc_weight_.resize(grid.tiles());
  for (TileId tile = 0; tile < tiles; ++tile) {
    const auto mc = static_cast<TileId>(
        grid.tile(mc_coord(mc_of(tile * cores_per_tile))));
    mc_weight_[static_cast<std::size_t>(tile)] =
        routes_[pair_index(tile, mc)].weight;
  }
}

std::size_t Topology::link_index(const LinkId& link) const {
  const Grid grid{tiles_x_, tiles_y_};
  SCC_EXPECTS(grid.contains(link.from) && adjacent(link.from, link.to));
  return grid.slot(link.from, link.to);
}

TileCoord Topology::mc_coord(int mc_index) const {
  SCC_EXPECTS(mc_index >= 0 && mc_index < 4);
  // Row 0 holds MC0 (left) and MC1 (right); the top row holds MC2/MC3.
  // On the 6x4 SCC the documented router attachments are (0,0), (5,0),
  // (0,2), (5,2); we generalize to row tiles_y-2 (== 2 for the SCC) so
  // non-standard meshes still place controllers sensibly.
  const int hi_row = tiles_y_ >= 2 ? tiles_y_ - 2 : 0;
  switch (mc_index) {
    case 0: return {0, 0};
    case 1: return {tiles_x_ - 1, 0};
    case 2: return {0, hi_row};
    default: return {tiles_x_ - 1, hi_row};
  }
}

int Topology::mc_of(CoreId core) const {
  const TileCoord c = coord_of(core);
  const bool right_half = c.x >= (tiles_x_ + 1) / 2;
  const bool upper_half = c.y >= tiles_y_ / 2;
  return (upper_half ? 2 : 0) + (right_half ? 1 : 0);
}

}  // namespace scc::noc
