// Differential conformance on a degraded machine (label: faults): all four
// cells (three RCCE stacks + the RCKMPI baseline), unperturbed baseline
// plus 16 perturbation seeds each, simulated on
// the SAME faulted machine. Faults move timings and therefore schedules --
// that is the point -- but results must stay element-wise identical across
// stacks and seeds, volume-type counters must stay schedule-invariant, and
// no interleaving on the degraded machine may deadlock. The dead-link cases
// double as a reroute deadlock-freedom check: 16 interleavings per stack
// all draining through detoured paths.
#include <gtest/gtest.h>

#include "harness/conformance.hpp"

namespace scc::harness {
namespace {

struct FaultCase {
  Collective collective;
  std::size_t elements;
  const char* faults;
  std::uint64_t max_delay_fs;
  const char* tag;
};

// 2x2 mesh throughout: big enough for real routes and detours, small enough
// that 3 stacks x 17 runs x 5 cases stays inside the tier budget. Delays of
// ~1 core cycle (1'876'173 fs) stress timing, not just equal-time ties.
constexpr FaultCase kCases[] = {
    {Collective::kAllreduce, 52, "straggler:3x2.5", 0, "straggler"},
    {Collective::kAllgather, 23, "dvfs:2/2;dvfs:3/2", 1'876'173,
     "dvfs_jitter"},
    {Collective::kReduceScatter, 53, "slowlink:0,0-1,0x8", 0, "slowlink"},
    {Collective::kAlltoall, 9, "deadlink:0,0-1,0", 1'876'173,
     "deadlink_jitter"},
    {Collective::kAllreduce, 40, "straggler:1x2;slowlink:0,0-0,1x4;deadlink:1,0-1,1",
     0, "combo"},
};

class FaultConformance : public ::testing::TestWithParam<FaultCase> {};

TEST_P(FaultConformance, AllStacksAgreeOnTheDegradedMachine) {
  const FaultCase& c = GetParam();
  ConformanceSpec spec;
  spec.run.collective = c.collective;
  spec.run.elements = c.elements;
  spec.run.config.tiles_x = 2;
  spec.run.config.tiles_y = 2;
  spec.perturb_seeds = 16;
  spec.run.config.perturb_max_delay_fs = c.max_delay_fs;
  spec.run.config.faults = faults::FaultSpec::parse(c.faults);
  const ConformanceReport report = run_conformance(spec);
  // Three RCCE stacks + the RCKMPI cell (every case here has an MPI
  // counterpart), baseline + 16 perturbation seeds each.
  EXPECT_EQ(report.runs, 4 * (16 + 1));
  EXPECT_TRUE(report.passed()) << report.summary();
  // The report names the degradation it ran under (soak-log greppability).
  EXPECT_NE(report.configuration.find("faults="), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Cases, FaultConformance, ::testing::ValuesIn(kCases),
                         [](const auto& param_info) {
                           return std::string(param_info.param.tag);
                         });

TEST(FaultConformance, SelectorResolvesOnceUnderFaults) {
  // Algo::kAuto with faults: the Selector's analytic pick is resolved once
  // per cell (it is blind to faults by design), and every stack runs that
  // same algorithm on the same degraded machine.
  ConformanceSpec spec;
  spec.run.collective = Collective::kAllreduce;
  spec.run.elements = 96;
  spec.run.config.tiles_x = 2;
  spec.run.config.tiles_y = 2;
  spec.run.algo = coll::Algo::kAuto;
  spec.perturb_seeds = 16;
  spec.run.config.faults =
      faults::FaultSpec::parse("straggler:0x4;deadlink:0,0-0,1");
  const ConformanceReport report = run_conformance(spec);
  EXPECT_TRUE(report.passed()) << report.summary();
}

}  // namespace
}  // namespace scc::harness
