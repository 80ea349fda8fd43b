#include "gcmc/system.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace scc::gcmc {
namespace {

ModelParams tiny_model() {
  ModelParams m;
  m.kmaxvecs = 26;
  return m;
}

TEST(KSpace, HasRequestedVectorCount) {
  const KSpace k(tiny_model());
  EXPECT_EQ(k.kvecs.size(), 26u);
  EXPECT_EQ(k.coeff.size(), 26u);
}

TEST(KSpace, PaperConfigurationGives276Vectors) {
  ModelParams m;
  m.kmaxvecs = 276;
  const KSpace k(m);
  EXPECT_EQ(k.kvecs.size(), 276u);  // 552 doubles through Allreduce
}

TEST(KSpace, NoZeroVector) {
  const KSpace k(tiny_model());
  for (const Vec3& kv : k.kvecs) {
    EXPECT_GT(kv[0] * kv[0] + kv[1] * kv[1] + kv[2] * kv[2], 0.0);
  }
}

TEST(KSpace, SortedByMagnitude) {
  const KSpace k(tiny_model());
  double prev = 0.0;
  for (const Vec3& kv : k.kvecs) {
    const double k2 = kv[0] * kv[0] + kv[1] * kv[1] + kv[2] * kv[2];
    EXPECT_GE(k2, prev - 1e-12);
    prev = k2;
  }
}

TEST(KSpace, CoefficientsPositiveAndDecayingInMagnitude) {
  const KSpace k(tiny_model());
  for (std::size_t i = 0; i < k.coeff.size(); ++i) EXPECT_GT(k.coeff[i], 0.0);
}

TEST(LocalSystem, MakeParticleIsNeutral) {
  LocalSystem sys(4);
  Xoshiro256 rng(3);
  for (int i = 0; i < 20; ++i) {
    const Particle p = sys.make_particle(rng);
    EXPECT_TRUE(p.alive);
    EXPECT_EQ(static_cast<int>(p.atoms.size()), ModelParams::atoms_per_particle);
    double q = 0.0;
    for (const Atom& a : p.atoms) q += a.charge;
    EXPECT_NEAR(q, 0.0, 1e-12);
  }
}

TEST(LocalSystem, AliveCountAndFreeSlots) {
  LocalSystem sys(3);
  EXPECT_EQ(sys.alive_count(), 0);
  EXPECT_EQ(sys.free_slot(), 0);
  Xoshiro256 rng(1);
  sys.slot(0) = sys.make_particle(rng);
  sys.slot(2) = sys.make_particle(rng);
  EXPECT_EQ(sys.alive_count(), 2);
  EXPECT_EQ(sys.free_slot(), 1);
  sys.slot(1) = sys.make_particle(rng);
  EXPECT_EQ(sys.free_slot(), -1);
}

TEST(LocalSystem, ShortRangeZeroWhenEmpty) {
  LocalSystem sys(4);
  Xoshiro256 rng(1);
  const Particle probe = sys.make_particle(rng);
  const auto sr = sys.short_range(probe, -1);
  EXPECT_EQ(sr.energy, 0.0);
  EXPECT_EQ(sr.pairs, 0u);
}

TEST(LocalSystem, ShortRangeSkipsOwnSlot) {
  LocalSystem sys(4);
  Xoshiro256 rng(1);
  sys.slot(0) = sys.make_particle(rng);
  const Particle& probe = sys.slot(0);
  const auto with_self = sys.short_range(probe, -1);
  const auto without_self = sys.short_range(probe, 0);
  EXPECT_EQ(without_self.pairs, 0u);
  EXPECT_GT(with_self.pairs, 0u);  // probe against its own copy
}

TEST(LocalSystem, ShortRangePairCountIsAtomProduct) {
  LocalSystem sys(4);
  Xoshiro256 rng(2);
  sys.slot(0) = sys.make_particle(rng);
  sys.slot(1) = sys.make_particle(rng);
  const Particle probe = sys.make_particle(rng);
  const auto sr = sys.short_range(probe, -1);
  constexpr auto atoms =
      static_cast<std::uint64_t>(ModelParams::atoms_per_particle);
  EXPECT_EQ(sr.pairs, atoms * 2 * atoms);
}

TEST(LocalSystem, LennardJonesRepulsiveAtShortDistance) {
  LocalSystem sys(2);
  // Two single-point "particles" placed very close.
  Particle a;
  a.alive = true;
  a.atoms = {Atom{{1.0, 1.0, 1.0}, 0.0}};
  Particle b;
  b.alive = true;
  b.atoms = {Atom{{1.0, 1.0, 1.5}, 0.0}};  // r = 0.5 < sigma
  sys.slot(0) = a;
  EXPECT_GT(sys.short_range(b, -1).energy, 0.0);
  // At the potential minimum (r = 2^(1/6) sigma) the energy is -epsilon.
  Particle c;
  c.alive = true;
  c.atoms = {Atom{{1.0, 1.0, 1.0 + std::pow(2.0, 1.0 / 6.0)}, 0.0}};
  EXPECT_NEAR(sys.short_range(c, -1).energy, -ModelParams::lj_epsilon, 1e-9);
}

TEST(LocalSystem, MinimumImageWrapsBox) {
  LocalSystem sys(2);
  Particle a;
  a.alive = true;
  a.atoms = {Atom{{0.2, 6.0, 6.0}, 0.0}};
  sys.slot(0) = a;
  Particle near_far_edge;
  near_far_edge.alive = true;
  near_far_edge.atoms = {Atom{{ModelParams::box_length - 0.2, 6.0, 6.0}, 0.0}};
  // Across the boundary the distance is 0.4, well inside the core.
  EXPECT_GT(sys.short_range(near_far_edge, -1).energy, 0.0);
}

TEST(LocalSystem, StructureFactorsMatchDirectSum) {
  const KSpace kspace(tiny_model());
  LocalSystem sys(3);
  Xoshiro256 rng(4);
  sys.slot(0) = sys.make_particle(rng);
  sys.slot(2) = sys.make_particle(rng);
  std::vector<std::complex<double>> f;
  std::uint64_t evals = 0;
  sys.structure_factors(kspace, f, evals);
  ASSERT_EQ(f.size(), kspace.kvecs.size());
  // Direct recomputation for a few k.
  for (const std::size_t k : {std::size_t{0}, std::size_t{10}, std::size_t{25}}) {
    std::complex<double> want{0.0, 0.0};
    for (const int slot : {0, 2}) {
      for (const Atom& atom : sys.slot(slot).atoms) {
        const double phase = kspace.kvecs[k][0] * atom.pos[0] +
                             kspace.kvecs[k][1] * atom.pos[1] +
                             kspace.kvecs[k][2] * atom.pos[2];
        want += atom.charge *
                std::complex<double>(std::cos(phase), std::sin(phase));
      }
    }
    EXPECT_NEAR(f[k].real(), want.real(), 1e-12);
    EXPECT_NEAR(f[k].imag(), want.imag(), 1e-12);
  }
  EXPECT_EQ(evals, 2u * 3u * 26u);
}

TEST(LocalSystem, LongRangeEnergyNonNegativeForRealFactors) {
  const KSpace kspace(tiny_model());
  const LocalSystem sys(1);
  std::vector<std::complex<double>> f(kspace.kvecs.size(), {1.0, -2.0});
  // |F|^2 weighted by positive coefficients -> strictly positive.
  EXPECT_GT(sys.long_range_energy(kspace, f), 0.0);
  std::vector<std::complex<double>> zero(kspace.kvecs.size(), {0.0, 0.0});
  EXPECT_EQ(sys.long_range_energy(kspace, zero), 0.0);
}

}  // namespace
}  // namespace scc::gcmc
