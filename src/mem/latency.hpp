// LatencyCalculator: the timing half of the memory system.
//
// Maps memory-system operations (MPB reads/writes, flag writes, cacheable
// private-memory accesses) to virtual-time durations, composing the clock
// domains and the hop lengths of the mesh. Immutable after construction,
// so it can be unit-tested against the documented formulas directly.
//
// Mesh terms are table lookups into noc::Topology: the factor-weighted hop
// length of the (possibly rerouted) route between two tiles and of each
// tile's path to its memory controller, which is the plain hop count on a
// healthy mesh. The calculator owns one factor per core, the product of the
// straggler and DVFS clauses of a FaultSpec, and stretches every core-clock
// term of that core by it. A factor of 1.0 leaves the arithmetic exactly
// unscaled, so an empty FaultSpec is the healthy machine bit for bit
// (DESIGN.md §13).
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "faults/fault_spec.hpp"
#include "mem/cache.hpp"
#include "mem/cost_model.hpp"
#include "noc/topology.hpp"

namespace scc::mem {

[[nodiscard]] constexpr std::uint64_t lines_for(std::size_t bytes) {
  return (bytes + kCacheLineBytes - 1) / kCacheLineBytes;
}

/// True when a transfer of `bytes` ends in a partial cache line, which
/// costs RCCE an extra internal transfer call (the period-4 latency spikes
/// in Fig. 9 -- 4 doubles per 32-byte line).
[[nodiscard]] constexpr bool has_partial_line(std::size_t bytes) {
  return bytes % kCacheLineBytes != 0;
}

class LatencyCalculator {
 public:
  /// Cores slowed by the straggler and dvfs clauses of `faults` (clauses on
  /// one core compose multiplicatively). Precondition (SCC_EXPECTS):
  /// noc::Topology::check finds nothing wrong with `faults` on `topo`.
  LatencyCalculator(const HwCostModel& hw, const noc::Topology& topo,
                    const faults::FaultSpec& faults = {});

  /// Access by `accessor` to one line of `mpb_owner`'s MPB.
  /// Reads are mesh round trips; writes are posted (one-way cost at the
  /// issuing core). Local accesses honour the arbiter-bug workaround.
  [[nodiscard]] SimTime mpb_line_access(int accessor, int mpb_owner,
                                        bool is_read) const;

  /// Bulk transfer of `bytes` between a core and an MPB: first line pays
  /// the full access latency, subsequent lines pipeline.
  [[nodiscard]] SimTime mpb_bulk(int accessor, int mpb_owner,
                                 std::size_t bytes, bool is_read) const;

  /// Word-granular uncached MPB streaming (the MPB-direct Allreduce's data
  /// path): every 32-bit word pays the full access latency; no
  /// write-combining, no line pipelining.
  [[nodiscard]] SimTime mpb_word_stream(int accessor, int mpb_owner,
                                        std::size_t bytes, bool is_read) const;

  /// Cacheable private-memory access, costed from a cache classification.
  [[nodiscard]] SimTime priv_access(int core, const CacheAccessResult& r) const;

  /// Plain compute at a specific core: n core cycles, stretched by the
  /// core's fault factor (straggler / DVFS). Exactly n core cycles when the
  /// core is healthy.
  [[nodiscard]] SimTime core_cycles(std::uint64_t n, int core) const {
    return scale_core(hw_->core_clock().cycles(n), core);
  }

 private:
  [[nodiscard]] SimTime scale_core(SimTime t, int core) const {
    return scaled(t, core_factor_[static_cast<std::size_t>(core)]);
  }

  const HwCostModel* hw_;
  const noc::Topology* topo_;
  std::vector<double> core_factor_;  // straggler x DVFS, 1.0 when healthy
};

}  // namespace scc::mem
