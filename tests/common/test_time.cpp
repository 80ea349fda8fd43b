#include "common/time.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace scc {
namespace {

TEST(SimTime, DefaultIsZero) {
  EXPECT_EQ(SimTime{}.femtoseconds(), 0u);
  EXPECT_EQ(SimTime::zero(), SimTime{});
}

TEST(SimTime, ConversionsRoundTrip) {
  const SimTime t = SimTime::from_us(12.5);
  EXPECT_DOUBLE_EQ(t.us(), 12.5);
  EXPECT_DOUBLE_EQ(t.ns(), 12500.0);
  EXPECT_DOUBLE_EQ(t.ms(), 0.0125);
  EXPECT_DOUBLE_EQ(t.seconds(), 12.5e-6);
}

TEST(SimTime, FromNs) {
  EXPECT_EQ(SimTime::from_ns(1.0).femtoseconds(), 1000000u);
}

TEST(SimTime, Arithmetic) {
  const SimTime a{100};
  const SimTime b{40};
  EXPECT_EQ((a + b).femtoseconds(), 140u);
  EXPECT_EQ((a - b).femtoseconds(), 60u);
  EXPECT_EQ((b * 3).femtoseconds(), 120u);
}

TEST(SimTime, Comparisons) {
  EXPECT_LT(SimTime{1}, SimTime{2});
  EXPECT_GE(SimTime{5}, SimTime{5});
  EXPECT_EQ(SimTime{7}, SimTime{7});
}

TEST(SimTime, CompoundAssignment) {
  SimTime t{10};
  t += SimTime{5};
  EXPECT_EQ(t.femtoseconds(), 15u);
  t -= SimTime{15};
  EXPECT_EQ(t, SimTime::zero());
}

TEST(SimTimeDeath, UnderflowAborts) {
  SimTime t{1};
  EXPECT_DEATH(t -= SimTime{2}, "invariant");
}

TEST(SimTime, RepresentableRange) {
  EXPECT_TRUE(SimTime::representable_us(0.0));
  EXPECT_TRUE(SimTime::representable_us(1.8e10));
  EXPECT_FALSE(SimTime::representable_us(1.9e10));  // > 2^64 fs
  EXPECT_FALSE(SimTime::representable_us(-5.0));
  EXPECT_FALSE(
      SimTime::representable_us(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_FALSE(
      SimTime::representable_ns(std::numeric_limits<double>::infinity()));
  EXPECT_TRUE(SimTime::representable_ns(1.8e13));
  EXPECT_FALSE(SimTime::representable_ns(1.9e13));
}

TEST(SimTimeDeath, ConversionRejectsNegativeNonFiniteAndHuge) {
  // Converting these to uint64_t is undefined behaviour; the contract
  // check turns it into a diagnosable abort.
  EXPECT_DEATH(static_cast<void>(SimTime::from_us(-5.0)), "precondition");
  EXPECT_DEATH(static_cast<void>(SimTime::from_us(
                   std::numeric_limits<double>::quiet_NaN())),
               "precondition");
  EXPECT_DEATH(static_cast<void>(SimTime::from_ns(
                   std::numeric_limits<double>::infinity())),
               "precondition");
  EXPECT_DEATH(static_cast<void>(SimTime::from_us(1e20)), "precondition");
}

TEST(Clock, CoreClockCycleDuration) {
  const Clock core{533e6};
  // One 533 MHz cycle is ~1.876 ns.
  EXPECT_NEAR(core.cycles(1).ns(), 1.876, 0.001);
  EXPECT_NEAR(core.cycles(1000).ns(), 1876.2, 0.2);
}

TEST(Clock, MeshClockCycleDuration) {
  const Clock mesh{800e6};
  EXPECT_NEAR(mesh.cycles(8).ns(), 10.0, 1e-9);
}

TEST(Clock, ZeroCyclesIsZeroTime) {
  EXPECT_EQ(Clock{533e6}.cycles(0), SimTime::zero());
}

TEST(Clock, CyclesInInvertsCycles) {
  const Clock core{533e6};
  for (const std::uint64_t n : {1ull, 7ull, 533ull, 1000000ull}) {
    const std::uint64_t back = core.cycles_in(core.cycles(n));
    // Rounding may lose at most one cycle.
    EXPECT_GE(back + 1, n);
    EXPECT_LE(back, n);
  }
}

TEST(Clock, LargeCycleCountsDoNotOverflow) {
  const Clock core{533e6};
  // 1e12 cycles ~ 31 minutes of virtual time; fits easily in SimTime.
  const SimTime t = core.cycles(1'000'000'000'000ull);
  EXPECT_NEAR(t.seconds(), 1e12 / 533e6, 1.0);
}

TEST(Clock, AdditivityOfCycles) {
  const Clock mesh{800e6};
  const SimTime sum = mesh.cycles(123) + mesh.cycles(456);
  const SimTime direct = mesh.cycles(579);
  // Conversion error is sub-femtosecond per call.
  EXPECT_NEAR(static_cast<double>(sum.femtoseconds()),
              static_cast<double>(direct.femtoseconds()), 2.0);
}

}  // namespace
}  // namespace scc
