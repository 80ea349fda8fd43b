// Link-traffic accounting: counts cache-line flits crossing each directed
// mesh link. Purely observational (the paper's latency formulas are
// contention-free); used by the topology_explorer example and by tests that
// check the collectives' communication volume.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "noc/topology.hpp"

namespace scc::noc {

class TrafficMatrix {
 public:
  /// Route override (fault reroutes around dead links). Returns the static
  /// route between two cores' routers; must outlive the matrix.
  using RouteFn =
      std::function<const std::vector<LinkId>&(CoreId, CoreId)>;

  explicit TrafficMatrix(const Topology& topo) : topo_(&topo) {}

  /// Install a route override (empty resets to the topology's XY router).
  /// Set by SccMachine when a fault model kills links, so per-link traffic
  /// accounting follows the degraded paths.
  void set_route_fn(RouteFn fn) { route_fn_ = std::move(fn); }

  /// Records `lines` cache-line transfers from core a's router to core b's.
  void record_transfer(CoreId a, CoreId b, std::uint64_t lines);

  /// Total flits over all links.
  [[nodiscard]] std::uint64_t total_line_hops() const;

  /// Flits over the busiest single link (0 when no traffic).
  [[nodiscard]] std::uint64_t max_link_load() const;

  /// Flits sent core-to-core (end-to-end count, not per hop).
  [[nodiscard]] std::uint64_t total_lines_sent() const { return lines_sent_; }

  struct LinkLoad {
    LinkId link;
    std::uint64_t lines;
  };
  /// All links with nonzero traffic, heaviest first.
  [[nodiscard]] std::vector<LinkLoad> loads() const;

  void reset();

 private:
  struct CoordLess {
    bool operator()(const LinkId& a, const LinkId& b) const {
      const auto key = [](const LinkId& l) {
        return std::tuple(l.from.x, l.from.y, l.to.x, l.to.y);
      };
      return key(a) < key(b);
    }
  };

  const Topology* topo_;
  RouteFn route_fn_;
  std::map<LinkId, std::uint64_t, CoordLess> link_lines_;
  std::uint64_t lines_sent_ = 0;
};

}  // namespace scc::noc
