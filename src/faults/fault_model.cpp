#include "faults/fault_model.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <deque>
#include <set>

#include "common/string_util.hpp"

namespace scc::faults {

namespace {

using noc::LinkId;
using noc::TileCoord;
using noc::Topology;

using Key = std::tuple<int, int, int, int>;

Key key_of(TileCoord from, TileCoord to) {
  return {from.x, from.y, to.x, to.y};
}

bool in_mesh(const Topology& topo, TileCoord c) {
  return c.x >= 0 && c.x < topo.tiles_x() && c.y >= 0 && c.y < topo.tiles_y();
}

bool adjacent(TileCoord a, TileCoord b) {
  return std::abs(a.x - b.x) + std::abs(a.y - b.y) == 1;
}

noc::TileId tile_id(const Topology& topo, TileCoord c) {
  return c.y * topo.tiles_x() + c.x;
}

std::set<Key> dead_keys(const FaultSpec& spec) {
  std::set<Key> dead;
  for (const LinkRef& link : spec.dead_links) {
    dead.insert(key_of(link.a, link.b));
    dead.insert(key_of(link.b, link.a));
  }
  return dead;
}

/// Neighbour enumeration order; fixed so BFS routing is deterministic.
std::array<TileCoord, 4> neighbours(TileCoord c) {
  return {TileCoord{c.x + 1, c.y}, TileCoord{c.x - 1, c.y},
          TileCoord{c.x, c.y + 1}, TileCoord{c.x, c.y - 1}};
}

/// BFS distances from `from` over the surviving (non-dead) links.
/// -1 = unreachable.
std::vector<int> bfs_dist(const Topology& topo, const std::set<Key>& dead,
                          TileCoord from) {
  std::vector<int> dist(static_cast<std::size_t>(topo.num_tiles()), -1);
  std::deque<TileCoord> frontier{from};
  dist[static_cast<std::size_t>(tile_id(topo, from))] = 0;
  while (!frontier.empty()) {
    const TileCoord cur = frontier.front();
    frontier.pop_front();
    const int d = dist[static_cast<std::size_t>(tile_id(topo, cur))];
    for (const TileCoord next : neighbours(cur)) {
      if (!in_mesh(topo, next)) continue;
      if (dead.count(key_of(cur, next)) != 0) continue;
      int& nd = dist[static_cast<std::size_t>(tile_id(topo, next))];
      if (nd < 0) {
        nd = d + 1;
        frontier.push_back(next);
      }
    }
  }
  return dist;
}

}  // namespace

std::optional<std::string> FaultModel::check(const FaultSpec& spec,
                                             const Topology& topo) {
  for (const Straggler& f : spec.stragglers) {
    if (f.core < 0 || f.core >= topo.num_cores()) {
      return strprintf("straggler core %d out of range (0..%d)", f.core,
                       topo.num_cores() - 1);
    }
    if (!(f.factor >= 1.0)) {
      return strprintf("straggler factor %g must be >= 1", f.factor);
    }
  }
  for (const Dvfs& f : spec.dvfs) {
    if (f.core < 0 || f.core >= topo.num_cores()) {
      return strprintf("dvfs core %d out of range (0..%d)", f.core,
                       topo.num_cores() - 1);
    }
    if (f.divisor < 1) {
      return strprintf("dvfs divisor %d must be >= 1", f.divisor);
    }
  }
  const auto check_link = [&](const LinkRef& link,
                              const char* kind) -> std::optional<std::string> {
    if (!in_mesh(topo, link.a) || !in_mesh(topo, link.b)) {
      return strprintf("%s %d,%d-%d,%d names a tile outside the %dx%d mesh",
                       kind, link.a.x, link.a.y, link.b.x, link.b.y,
                       topo.tiles_x(), topo.tiles_y());
    }
    if (!adjacent(link.a, link.b)) {
      return strprintf("%s %d,%d-%d,%d does not name adjacent tiles", kind,
                       link.a.x, link.a.y, link.b.x, link.b.y);
    }
    return std::nullopt;
  };
  for (const SlowLink& f : spec.slow_links) {
    if (auto err = check_link(f.link, "slowlink")) return err;
    if (!(f.factor >= 1.0)) {
      return strprintf("slowlink factor %g must be >= 1", f.factor);
    }
  }
  for (const LinkRef& link : spec.dead_links) {
    if (auto err = check_link(link, "deadlink")) return err;
  }
  if (!spec.dead_links.empty()) {
    const std::vector<int> dist =
        bfs_dist(topo, dead_keys(spec), TileCoord{0, 0});
    if (std::any_of(dist.begin(), dist.end(),
                    [](int d) { return d < 0; })) {
      return std::string("dead links disconnect the mesh");
    }
  }
  return std::nullopt;
}

FaultModel::FaultModel(FaultSpec spec, const Topology& topo)
    : spec_(std::move(spec)), topo_(&topo) {
  // Semantic validation is a precondition: malformed specs must fail loudly
  // (the faults tier death-tests each clause of this check).
  SCC_EXPECTS(!FaultModel::check(spec_, topo).has_value());

  core_factor_.assign(static_cast<std::size_t>(topo.num_cores()), 1.0);
  for (const Straggler& f : spec_.stragglers) {
    core_factor_[static_cast<std::size_t>(f.core)] *= f.factor;
  }
  for (const Dvfs& f : spec_.dvfs) {
    core_factor_[static_cast<std::size_t>(f.core)] *= f.divisor;
  }
  for (const SlowLink& f : spec_.slow_links) {
    // Both directions of the physical channel degrade; repeated clauses on
    // the same link compose multiplicatively.
    for (const Key& key :
         {key_of(f.link.a, f.link.b), key_of(f.link.b, f.link.a)}) {
      auto [it, inserted] = link_factor_.emplace(key, f.factor);
      if (!inserted) it->second *= f.factor;
    }
  }

  // Route table: one static minimal route per (tile, tile) pair. Healthy
  // mesh: exactly the XY route (so hop counts, traffic accounting and the
  // committed baselines are unchanged by factor-only specs). Dead links:
  // walk the BFS distance field toward the destination, preferring
  // neighbours in the fixed enumeration order on ties.
  const std::set<Key> dead = dead_keys(spec_);
  const int tiles = topo.num_tiles();
  routes_.resize(static_cast<std::size_t>(tiles) *
                 static_cast<std::size_t>(tiles));
  weighted_hops_.assign(routes_.size(), 0.0);
  for (TileId to = 0; to < tiles; ++to) {
    const TileCoord dst = topo.coord_of_tile(to);
    std::vector<int> dist;
    if (!dead.empty()) dist = bfs_dist(topo, dead, dst);
    for (TileId from = 0; from < tiles; ++from) {
      std::vector<LinkId>& route = routes_[pair_index(from, to)];
      if (dead.empty()) {
        // Delegate to the XY router via any core on each tile.
        route = topo.route(from * topo.cores_per_tile(),
                           to * topo.cores_per_tile());
      } else {
        TileCoord cur = topo.coord_of_tile(from);
        while (tile_id(topo, cur) != to) {
          const int d = dist[static_cast<std::size_t>(tile_id(topo, cur))];
          SCC_ASSERT(d > 0);  // connectivity was checked above
          for (const TileCoord next : neighbours(cur)) {
            if (!in_mesh(topo, next) || dead.count(key_of(cur, next)) != 0) {
              continue;
            }
            if (dist[static_cast<std::size_t>(tile_id(topo, next))] == d - 1) {
              route.push_back({cur, next});
              cur = next;
              break;
            }
          }
        }
      }
      double weight = 0.0;
      for (const LinkId& link : route) weight += link_factor(link);
      weighted_hops_[pair_index(from, to)] = weight;
    }
  }
}

double FaultModel::link_factor(const LinkId& link) const {
  const auto it = link_factor_.find(key_of(link.from, link.to));
  return it == link_factor_.end() ? 1.0 : it->second;
}

const std::vector<LinkId>& FaultModel::route(noc::CoreId a,
                                             noc::CoreId b) const {
  return routes_[pair_index(topo_->tile_of(a), topo_->tile_of(b))];
}

double FaultModel::weighted_hops(noc::CoreId a, noc::CoreId b) const {
  return weighted_hops_[pair_index(topo_->tile_of(a), topo_->tile_of(b))];
}

double FaultModel::weighted_hops_to(noc::CoreId core,
                                    noc::TileCoord router) const {
  SCC_EXPECTS(in_mesh(*topo_, router));
  return weighted_hops_[pair_index(topo_->tile_of(core),
                                   tile_id(*topo_, router))];
}

}  // namespace scc::faults
