// Physical model of the thermodynamics application: a periodic box of
// small rigid molecules ("particles" of a few charged Lennard-Jones
// atoms), sampled with Grand Canonical Monte Carlo.
//
// Energy terms (paper Section V-B):
//  - short range: pairwise Lennard-Jones in real space, updated
//    incrementally (only the moved particle's contribution changes);
//  - long range: electrostatics in Fourier space -- a set of KMAXVECS
//    complex structure factors F[k] = sum_a q_a exp(i k . r_a) that must be
//    recomputed after every move and summed over all cores' local particle
//    sets via Allreduce (276 complex = 552 doubles in the paper's setup).
//
// This header is pure physics; it knows nothing about the simulator.
#pragma once

#include <array>
#include <complex>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace scc::gcmc {

using Vec3 = std::array<double, 3>;

struct Atom {
  Vec3 pos{};
  double charge = 0.0;
};

struct Particle {
  std::vector<Atom> atoms;
  bool alive = false;
};

/// The model's constants, and the one size runs vary.
struct ModelParams {
  static constexpr double box_length = 12.0;
  static constexpr int atoms_per_particle = 3;
  static constexpr double lj_epsilon = 1.0;
  static constexpr double lj_sigma = 1.0;
  static constexpr double lj_cutoff = 3.0;
  /// Number of reciprocal-space vectors; the paper's run uses 276
  /// complex-valued coefficients (552 doubles through Allreduce).
  int kmaxvecs = 276;
  /// Ewald-style damping for the reciprocal-space coefficients.
  static constexpr double ewald_eta = 0.08;
  static constexpr double beta = 1.5;  // 1/kT
  static constexpr double chemical_potential = -1.0;
  static constexpr double max_translation = 0.4;
};

/// Reciprocal-space basis: the first `kmaxvecs` nonzero integer vectors
/// ordered by |k|^2 (ties broken lexicographically) with their Ewald
/// coefficients coeff(k) = exp(-eta*|k|^2)/|k|^2.
struct KSpace {
  explicit KSpace(const ModelParams& params);
  std::vector<Vec3> kvecs;        // 2*pi*n/L components
  std::vector<double> coeff;
};

/// One core's slice of the particle system plus the replicated state every
/// core needs (the particle currently being moved).
class LocalSystem {
 public:
  explicit LocalSystem(int max_local_particles);

  [[nodiscard]] int capacity() const {
    return static_cast<int>(particles_.size());
  }
  [[nodiscard]] int alive_count() const;
  [[nodiscard]] Particle& slot(int index) { return particles_[static_cast<std::size_t>(index)]; }
  [[nodiscard]] const Particle& slot(int index) const {
    return particles_[static_cast<std::size_t>(index)];
  }
  /// First free slot, or -1.
  [[nodiscard]] int free_slot() const;

  /// Creates a randomly-placed particle (rigid triangle of atoms with
  /// charges summing to zero).
  [[nodiscard]] Particle make_particle(Xoshiro256& rng) const;

  /// Short-range LJ energy between `probe` and all local alive particles,
  /// with minimum-image convention; `skip_slot` excludes the probe's own
  /// slot when it is locally owned. Returns (energy, pair_count) -- the
  /// pair count drives the simulator's compute charge.
  struct ShortRange {
    double energy = 0.0;
    std::uint64_t pairs = 0;
  };
  [[nodiscard]] ShortRange short_range(const Particle& probe,
                                       int skip_slot) const;

  /// This core's contribution to the structure factors: F_local[k] =
  /// sum over local alive atoms of q * exp(i k.r). `flops` reports the
  /// number of (atom, k) evaluations for compute charging.
  void structure_factors(const KSpace& kspace,
                         std::vector<std::complex<double>>& f_local,
                         std::uint64_t& evaluations) const;

  /// Reciprocal-space energy from the GLOBAL structure factors.
  [[nodiscard]] double long_range_energy(
      const KSpace& kspace,
      const std::vector<std::complex<double>>& f_total) const;

 private:
  std::vector<Particle> particles_;
};

}  // namespace scc::gcmc
