// LatencyCalculator: the timing half of the memory system.
//
// Maps memory-system operations (MPB reads/writes, flag writes, cacheable
// private-memory accesses) to virtual-time durations, composing the clock
// domains and the hop distances of the mesh. Pure arithmetic -- no state --
// so it can be unit-tested against the documented formulas directly.
//
// An optional faults::FaultModel degrades the arithmetic (DESIGN.md §13):
// per-core factors multiply every core-clock term of the issuing core,
// per-link multipliers replace the flat hop count with the factor-weighted
// length of the (possibly rerouted) path. With no fault model attached --
// or one whose factors are all 1.0 and whose links are all alive -- every
// formula reduces bit-identically to the healthy machine.
#pragma once

#include <cstdint>

#include "common/time.hpp"
#include "faults/fault_model.hpp"
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
  LatencyCalculator(const HwCostModel& hw, const noc::Topology& topo,
                    const faults::FaultModel* faults = nullptr)
      : hw_(&hw), topo_(&topo), faults_(faults) {}

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

  /// Mesh transit delay from core a's router to core b's (used for the
  /// visibility delay of posted flag writes).
  [[nodiscard]] SimTime mesh_transit(int from, int to) const;

  /// Cacheable private-memory access, costed from a cache classification.
  [[nodiscard]] SimTime priv_access(int core, const CacheAccessResult& r) const;

  /// Plain compute: n core cycles (healthy machine; no core attribution).
  [[nodiscard]] SimTime core_cycles(std::uint64_t n) const {
    return hw_->core_clock().cycles(n);
  }

  /// Plain compute at a specific core: n core cycles, stretched by the
  /// core's fault factor (straggler / DVFS). Identical to core_cycles(n)
  /// when the core is healthy.
  [[nodiscard]] SimTime core_cycles(std::uint64_t n, int core) const {
    return scale_core(hw_->core_clock().cycles(n), core);
  }

  [[nodiscard]] const HwCostModel& hw() const { return *hw_; }
  [[nodiscard]] const faults::FaultModel* faults() const { return faults_; }

 private:
  /// t stretched by `factor`; exactly t when factor == 1 (the healthy-path
  /// bit-identity guarantee).
  [[nodiscard]] static SimTime scale(SimTime t, double factor);
  [[nodiscard]] SimTime scale_core(SimTime t, int core) const;
  /// Effective (factor-weighted, reroute-aware) hop count between two
  /// cores' routers; the plain Manhattan distance on a healthy mesh.
  [[nodiscard]] double effective_hops(int from, int to) const;

  const HwCostModel* hw_;
  const noc::Topology* topo_;
  const faults::FaultModel* faults_;
};

}  // namespace scc::mem
