#include "gcmc/app.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string_view>

namespace scc::gcmc {
namespace {

AppParams tiny_app() {
  AppParams params;
  params.model.kmaxvecs = 26;  // 52-double Allreduce keeps tests fast
  params.particles_total = 16;
  params.max_local_particles = 6;
  params.cycles = 8;
  return params;
}

machine::SccConfig mesh8() {
  machine::SccConfig config;
  config.tiles_x = 2;
  config.tiles_y = 2;
  return config;
}

TEST(GcmcApp, RunsAndProducesFiniteEnergy) {
  const AppResult r = run_app(tiny_app(), harness::PaperVariant::kBlocking,
                              mesh8());
  EXPECT_TRUE(std::isfinite(r.final_energy));
  EXPECT_EQ(r.attempted, 8);
  EXPECT_GE(r.accepted, 0);
  EXPECT_LE(r.accepted, r.attempted);
  EXPECT_GT(r.runtime, SimTime::zero());
  EXPECT_EQ(r.profiles.size(), 8u);
}

TEST(GcmcApp, CapacityAboveWhatTheRunFillsChangesNothing) {
  // 16 cycles: a core could reach 2 + 16 particles, so capacity 12 caps
  // the slots and INT_MAX does not; no core fills 12, so every result must
  // agree. INT_MAX slots per core would not fit in memory.
  AppParams params = tiny_app();
  params.cycles = 16;
  for (const harness::PaperVariant v :
       {harness::PaperVariant::kBlocking, harness::PaperVariant::kLwBalanced}) {
    params.max_local_particles = 12;
    const AppResult a = run_app(params, v, mesh8());
    params.max_local_particles = std::numeric_limits<int>::max();
    const AppResult b = run_app(params, v, mesh8());
    EXPECT_EQ(a.runtime, b.runtime) << harness::variant_name(v);
    EXPECT_EQ(a.final_energy, b.final_energy) << harness::variant_name(v);
    EXPECT_EQ(a.accepted, b.accepted) << harness::variant_name(v);
    EXPECT_EQ(a.attempted, b.attempted) << harness::variant_name(v);
    EXPECT_EQ(a.final_particles, b.final_particles)
        << harness::variant_name(v);
    ASSERT_EQ(a.profiles.size(), b.profiles.size());
    for (std::size_t r = 0; r < a.profiles.size(); ++r) {
      for (int ph = 0; ph < static_cast<int>(machine::Phase::kCount); ++ph) {
        const auto phase = static_cast<machine::Phase>(ph);
        EXPECT_EQ(a.profiles[r].get(phase), b.profiles[r].get(phase))
            << harness::variant_name(v) << " core " << r;
      }
    }
  }
}

TEST(GcmcApp, DeterministicForSameSeed) {
  const AppResult a = run_app(tiny_app(), harness::PaperVariant::kLightweight,
                              mesh8());
  const AppResult b = run_app(tiny_app(), harness::PaperVariant::kLightweight,
                              mesh8());
  EXPECT_EQ(a.final_energy, b.final_energy);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.runtime, b.runtime);
  EXPECT_EQ(a.final_particles, b.final_particles);
}

TEST(GcmcApp, PhysicsIndependentOfCommunicationStack) {
  // All variants implement the same reduction semantics, so the sampled
  // trajectory must be identical; only the virtual runtime may differ.
  const AppParams params = tiny_app();
  const AppResult blocking =
      run_app(params, harness::PaperVariant::kBlocking, mesh8());
  for (const harness::PaperVariant v :
       {harness::PaperVariant::kIrcce, harness::PaperVariant::kLightweight,
        harness::PaperVariant::kLwBalanced, harness::PaperVariant::kMpb,
        harness::PaperVariant::kRckmpi}) {
    const AppResult r = run_app(params, v, mesh8());
    EXPECT_EQ(r.final_energy, blocking.final_energy)
        << harness::variant_name(v);
    EXPECT_EQ(r.accepted, blocking.accepted) << harness::variant_name(v);
    EXPECT_EQ(r.final_particles, blocking.final_particles)
        << harness::variant_name(v);
  }
}

TEST(GcmcApp, TrajectoryIsPinned) {
  // Exact results of tiny_app() on the 8-core mesh. The other tests here
  // compare runs with each other, so a fault that moves every variant the
  // same way (such as a core reusing its structure factors after its own
  // particles changed) passes them; it does not pass these values.
  struct Pin {
    harness::PaperVariant variant;
    std::uint64_t runtime_fs;
    std::uint64_t compute_fs;  // Phase::kCompute summed over the cores
  };
  constexpr Pin kPins[] = {
      {harness::PaperVariant::kRckmpi, 7'605'361'307'322, 8'594'258'911'326},
      {harness::PaperVariant::kBlocking, 5'994'451'153'476, 8'377'212'006'404},
      {harness::PaperVariant::kIrcce, 5'135'471'098'218, 8'377'212'006'404},
      {harness::PaperVariant::kLightweight, 3'931'430'722'924,
       8'377'212'006'404},
      {harness::PaperVariant::kLwBalanced, 3'913'971'632'758,
       8'377'212'006'642},
      {harness::PaperVariant::kMpb, 3'065'679'626'899, 8'337'407'128'706},
  };
  for (const Pin& pin : kPins) {
    const std::string_view name = harness::variant_name(pin.variant);
    const AppResult r = run_app(tiny_app(), pin.variant, mesh8());
    EXPECT_EQ(r.runtime.femtoseconds(), pin.runtime_fs) << name;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.final_energy),
              0xc12ed26d7f98e5c5u)
        << name;
    EXPECT_EQ(r.accepted, 7) << name;
    EXPECT_EQ(r.attempted, 8) << name;
    EXPECT_EQ(r.final_particles, 18) << name;
    SimTime compute;
    for (const auto& profile : r.profiles)
      compute += profile.get(machine::Phase::kCompute);
    EXPECT_EQ(compute.femtoseconds(), pin.compute_fs) << name;
  }
}

TEST(GcmcApp, OptimizedStacksAreFaster) {
  const AppParams params = tiny_app();
  const SimTime blocking =
      run_app(params, harness::PaperVariant::kBlocking, mesh8()).runtime;
  const SimTime lightweight =
      run_app(params, harness::PaperVariant::kLightweight, mesh8()).runtime;
  const SimTime balanced =
      run_app(params, harness::PaperVariant::kLwBalanced, mesh8()).runtime;
  EXPECT_LT(lightweight, blocking);
  EXPECT_LE(balanced, lightweight);
}

TEST(GcmcApp, MoveMixChangesParticleCount) {
  // With inserts and deletes in the mix, long runs should change N at
  // least once from the initial configuration (statistically certain for
  // this seed/length; the test pins the deterministic outcome).
  AppParams params = tiny_app();
  params.cycles = 30;
  const AppResult r = run_app(params, harness::PaperVariant::kLightweight,
                              mesh8());
  EXPECT_GE(r.final_particles, 0);
  EXPECT_LE(r.final_particles, 8 * params.max_local_particles);
}

TEST(GcmcApp, DifferentSeedsGiveDifferentTrajectories) {
  AppParams a = tiny_app();
  AppParams b = tiny_app();
  b.seed = a.seed + 1;
  const AppResult ra = run_app(a, harness::PaperVariant::kLightweight, mesh8());
  const AppResult rb = run_app(b, harness::PaperVariant::kLightweight, mesh8());
  EXPECT_NE(ra.final_energy, rb.final_energy);
}

TEST(GcmcApp, WaitTimeIsSignificantForBlockingStack) {
  // The paper's motivating profile: a large share of time sits in
  // rcce_wait_until with the blocking stack.
  const AppResult r = run_app(tiny_app(), harness::PaperVariant::kBlocking,
                              mesh8());
  SimTime max_wait;
  for (const auto& profile : r.profiles)
    max_wait = std::max(max_wait, profile.get(machine::Phase::kFlagWait));
  EXPECT_GT(max_wait.seconds(), 0.05 * r.runtime.seconds());
}

}  // namespace
}  // namespace scc::gcmc
