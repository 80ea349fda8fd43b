// Machine-level configuration: topology shape + the cost model's
// per-machine settings (the calibrated costs are constants, see
// mem/cost_model.hpp).
#pragma once

#include <cstdint>
#include <optional>

#include "faults/fault_spec.hpp"
#include "mem/cost_model.hpp"

namespace scc::machine {

struct SccConfig {
  int tiles_x = 6;
  int tiles_y = 4;
  int cores_per_tile = 2;
  /// Note on cost.hw.mpb_bug_workaround: HwCostModel's default (true) is
  /// THE authoritative default -- the paper's evaluated chip has the
  /// tile-arbiter bug, so paper_default() inherits it unchanged, and
  /// bug_fixed() below is the one deliberate opt-out. Tests pin all three
  /// (tests/machine/test_config.cpp) so the sites cannot drift apart.
  mem::CostModel cost;
  /// Injected machine degradation (stragglers, DVFS, slow/dead links),
  /// built into the machine's noc::Topology (links) and
  /// mem::LatencyCalculator (cores), so every stack and algorithm sees the
  /// same degraded machine. Default-constructed (empty) = the healthy
  /// machine. Must pass noc::Topology::check on this mesh (run_collective
  /// checks it up front). DESIGN.md §13.
  faults::FaultSpec faults;
  /// Flags allocatable per core (one-byte flags in MPB space). The default
  /// leaves room for every layer: RCCE needs 2 per partner, RCKMPI one per
  /// partner, collectives a handful of extras.
  int flags_per_core = 256;
  /// Schedule perturbation (testing): when set, the machine's engine fires
  /// equal-time events in a seed-dependent pseudo-random permutation instead
  /// of scheduling order (sim::PerturbConfig). Deterministic per seed.
  std::optional<std::uint64_t> perturb_seed;
  /// With perturb_seed set and this nonzero, every event is additionally
  /// delayed by a uniform random duration in [0, perturb_max_delay_fs] fs.
  std::uint64_t perturb_max_delay_fs = 0;

  [[nodiscard]] int num_cores() const {
    return tiles_x * tiles_y * cores_per_tile;
  }

  /// The paper's machine: 48 cores, arbiter-bug workaround active.
  static SccConfig paper_default() { return SccConfig{}; }

  /// Hypothetical fixed-silicon SCC (Section IV-D: "with the hardware bug
  /// resolved, we expect to see significantly higher speedups").
  static SccConfig bug_fixed() {
    SccConfig c;
    c.cost.hw.mpb_bug_workaround = false;
    return c;
  }
};

}  // namespace scc::machine
