// Link-traffic accounting: counts cache-line flits crossing each directed
// mesh link along the topology's routes (rerouted ones included). Every MPB
// transfer between tiles is recorded here, so it is the source of every
// RunResult::lines_sent / line_hops, of the noc/* metrics and of the
// hostbench digests. It never feeds back into timing: the paper's latency
// formulas are contention-free (noc/contention.hpp is the opt-in queueing
// model).
#pragma once

#include <cstdint>
#include <vector>

#include "noc/topology.hpp"

namespace scc::noc {

class TrafficMatrix {
 public:
  explicit TrafficMatrix(const Topology& topo)
      : topo_(&topo), link_lines_(topo.num_links(), 0) {}

  /// Records `lines` cache-line transfers from core a's router to core b's.
  void record_transfer(CoreId a, CoreId b, std::uint64_t lines);

  /// Total flits over all links.
  [[nodiscard]] std::uint64_t total_line_hops() const;

  /// Flits over the busiest single link (0 when no traffic).
  [[nodiscard]] std::uint64_t max_link_load() const;

  /// Flits sent core-to-core (end-to-end count, not per hop).
  [[nodiscard]] std::uint64_t total_lines_sent() const { return lines_sent_; }

 private:
  const Topology* topo_;
  std::vector<std::uint64_t> link_lines_;  // per Topology::link_index
  std::uint64_t lines_sent_ = 0;
};

}  // namespace scc::noc
