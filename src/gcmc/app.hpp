// The thermodynamics application of Section V-B: Grand Canonical Monte
// Carlo sampling of a molecular fluid, parallelized over the SCC's cores
// exactly as the paper describes:
//   - particles are distributed over cores; each core evaluates the energy
//     contribution of its local set;
//   - short-range energy is updated incrementally (scalar Allreduce);
//   - long-range energy is recomputed in Fourier space after every move:
//     each core accumulates its local structure factors, then a 552-double
//     Allreduce produces the global ones (Algorithm 2, line 14). The host
//     reuses a core's factors while its particles are unchanged (a move
//     changes one core's at most); the simulated core is charged the full
//     evaluation each time, so every simulated result is the same;
//   - the moved particle's state is broadcast from its owner
//     (BroadcastUpdate, Algorithm 1 line 13).
//
// Every core runs the identical move-selection RNG stream, so all cores
// agree on the move sequence and accept/reject decisions without extra
// communication -- only particle *state* needs broadcasting, since only
// the owner stores coordinates.
#pragma once

#include <vector>

#include "common/time.hpp"
#include "gcmc/system.hpp"
#include "harness/runner.hpp"  // PaperVariant
#include "machine/config.hpp"
#include "machine/profile.hpp"

namespace scc::gcmc {

struct AppParams {
  ModelParams model;
  /// Initial particles, distributed round-robin (paper setup scaled down;
  /// the compute/communication ratio is calibrated so the long-range
  /// evaluation dominates runtime as profiled in the paper).
  int particles_total = 240;
  /// Capacity per core (insertions beyond this are auto-rejected). A core
  /// allocates only the slots the run can fill (run_app).
  int max_local_particles = 12;
  int cycles = 40;  // GCMC moves
  std::uint64_t seed = 2012;
  /// Core cycles charged per (atom, k-vector) structure-factor evaluation
  /// (sin+cos+complex accumulate on a P54C).
  static constexpr std::uint32_t eval_cycles = 200;
  static constexpr std::uint32_t lj_pair_cycles = 60;
  static constexpr std::uint32_t energy_sum_cycles_per_k = 20;
};

struct AppResult {
  SimTime runtime;  // virtual time from start to the slowest core's finish
  double final_energy = 0.0;
  int accepted = 0;
  int attempted = 0;
  int final_particles = 0;
  std::vector<machine::CoreProfile> profiles;
};

/// Runs the full application on a fresh simulated SCC under the given
/// communication stack. Throws on internal inconsistency (cores are
/// cross-checked to agree on energies and particle counts).
[[nodiscard]] AppResult run_app(
    const AppParams& params, harness::PaperVariant variant,
    machine::SccConfig config = machine::SccConfig::paper_default());

}  // namespace scc::gcmc
