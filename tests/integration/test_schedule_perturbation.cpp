// Schedule-perturbation race detection + differential conformance across
// the three message-passing stacks (label: perturb).
//
// The engine half checks the perturbation mechanism itself: seeded
// permutation of equal-time events, bounded delay injection, determinism
// per seed, and diversity across seeds. The conformance half runs every
// collective through RCCE / iRCCE / LWNB under 16 perturbation seeds per
// configuration and cross-checks element-wise results, traffic-volume
// invariants, and absence of deadlock -- any failure line carries the
// (engine seed, perturbation seed) pair needed for a deterministic replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "harness/conformance.hpp"
#include "machine/scc_machine.hpp"
#include "sim/engine.hpp"
#include "sim/wait_queue.hpp"

namespace scc {
namespace {

sim::Task<> sleep_then_record(sim::Engine* engine, SimTime delay, int id,
                              std::vector<int>* order) {
  co_await engine->sleep_for(delay);
  order->push_back(id);
}

std::vector<int> equal_time_order(std::optional<sim::PerturbConfig> config,
                                  int tasks = 12) {
  sim::Engine engine;
  if (config) engine.enable_perturbation(*config);
  std::vector<int> order;
  for (int i = 0; i < tasks; ++i) {
    engine.spawn(sleep_then_record(&engine, SimTime{100}, i, &order), "t");
  }
  engine.run();
  return order;
}

TEST(SchedulePerturbation, DisabledKeepsScheduleOrder) {
  const auto order = equal_time_order(std::nullopt);
  for (int i = 0; i < 12; ++i)
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SchedulePerturbation, PermutesEqualTimeEvents) {
  // Some seed among a handful must produce a non-identity permutation of a
  // 12-element equal-time batch (all-identity has probability ~(1/12!)^4).
  std::vector<int> identity(12);
  for (int i = 0; i < 12; ++i) identity[static_cast<std::size_t>(i)] = i;
  bool any_permuted = false;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    auto order = equal_time_order(sim::PerturbConfig{seed, SimTime::zero()});
    // Always a permutation of the same 12 tasks ...
    auto sorted = order;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, identity);
    // ... just not necessarily the identity one.
    if (order != identity) any_permuted = true;
  }
  EXPECT_TRUE(any_permuted);
}

TEST(SchedulePerturbation, DeterministicPerSeed) {
  for (std::uint64_t seed : {1ULL, 7ULL, 123456789ULL}) {
    const sim::PerturbConfig config{seed, SimTime{5000}};
    EXPECT_EQ(equal_time_order(config), equal_time_order(config))
        << "seed " << seed;
  }
}

TEST(SchedulePerturbation, DistinctSeedsExploreDistinctInterleavings) {
  std::set<std::vector<int>> seen;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    seen.insert(equal_time_order(sim::PerturbConfig{seed, SimTime::zero()}));
  }
  // 8 seeds over 12! interleavings: collisions are astronomically unlikely,
  // but all we need is evidence of genuine exploration.
  EXPECT_GE(seen.size(), 2u);
}

sim::Task<> record_fire_time(sim::Engine* engine, SimTime delay,
                             std::vector<std::uint64_t>* times) {
  co_await engine->sleep_for(delay);
  times->push_back(engine->now().femtoseconds());
}

TEST(SchedulePerturbation, InjectedDelaysAreBoundedAndDeterministic) {
  constexpr std::uint64_t kMaxDelay = 700;
  const auto run_once = [] {
    sim::Engine engine;
    engine.enable_perturbation(sim::PerturbConfig{9, SimTime{kMaxDelay}});
    std::vector<std::uint64_t> times;
    for (int i = 0; i < 20; ++i) {
      engine.spawn(record_fire_time(&engine, SimTime{1000}, &times), "t");
    }
    engine.run();
    return times;
  };
  const auto times = run_once();
  ASSERT_EQ(times.size(), 20u);
  bool any_delayed = false;
  for (const std::uint64_t t : times) {
    // Spawn kickoff (<= kMaxDelay late) plus the sleep's wakeup event
    // (<= kMaxDelay late again): at most 2x the bound after time 1000.
    EXPECT_GE(t, 1000u);
    EXPECT_LE(t, 1000u + 2 * kMaxDelay);
    if (t != 1000u) any_delayed = true;
  }
  EXPECT_TRUE(any_delayed);
  EXPECT_EQ(times, run_once());
}

TEST(SchedulePerturbation, EngineReportsSeed) {
  sim::Engine engine;
  EXPECT_FALSE(engine.perturbation_enabled());
  engine.enable_perturbation(sim::PerturbConfig{321, SimTime::zero()});
  EXPECT_TRUE(engine.perturbation_enabled());
  EXPECT_EQ(engine.perturbation_seed(), 321u);
}

TEST(SchedulePerturbation, MachineConfigFlowsToEngine) {
  machine::SccConfig config;
  config.tiles_x = 1;
  config.tiles_y = 1;
  config.perturb_seed = 55;
  config.perturb_max_delay_fs = 1000;
  machine::SccMachine machine(config);
  EXPECT_TRUE(machine.engine().perturbation_enabled());
  EXPECT_EQ(machine.engine().perturbation_seed(), 55u);
}

TEST(SchedulePerturbation, FailureReplayNamesBothSeeds) {
  const harness::ConformanceFailure failure{
      "ircce", 42, 7, "result mismatch: core 3 element 1"};
  const std::string line = failure.replay();
  EXPECT_NE(line.find("engine_seed=42"), std::string::npos);
  EXPECT_NE(line.find("perturb_seed=7"), std::string::npos);
  EXPECT_NE(line.find("ircce"), std::string::npos);

  const harness::ConformanceFailure baseline_failure{"blocking", 42,
                                                     std::nullopt, "deadlock"};
  EXPECT_NE(baseline_failure.replay().find("unperturbed"), std::string::npos);
}

// Guard against perturbation silently becoming a no-op in full-machine
// simulations: injected event delays must change the measured virtual-time
// latency of a collective (results stay identical -- that is the whole
// conformance claim -- but the schedule must genuinely move).
TEST(SchedulePerturbation, PerturbationIsLiveInMachineSimulations) {
  harness::RunSpec spec;
  spec.collective = harness::Collective::kAllreduce;
  spec.variant = harness::PaperVariant::kLightweight;
  spec.elements = 48;
  spec.repetitions = 1;
  spec.warmup = 0;
  spec.config.tiles_x = 2;
  spec.config.tiles_y = 2;
  const harness::RunResult base = harness::run_collective(spec);
  spec.config.perturb_seed = 3;
  spec.config.perturb_max_delay_fs = 10 * 1'876'173;  // ~10 core cycles
  const harness::RunResult jittered = harness::run_collective(spec);
  EXPECT_NE(base.mean_latency, jittered.mean_latency);
  EXPECT_EQ(base.lines_sent, jittered.lines_sent);  // volume is invariant
}

// ---------------------------------------------------------------------------
// Differential conformance: all three stacks, >= 16 perturbation seeds per
// configuration, element-wise identical results + schedule-invariant
// traffic + no deadlock.

struct ConformanceCase {
  harness::Collective collective;
  std::size_t elements;
  int tiles_x, tiles_y;
  coll::SplitPolicy split;
  std::uint64_t max_delay_fs;
  const char* tag;
};

// One configuration per collective, mesh shapes and sizes chosen to hit
// wraparound blocks, empty blocks (n < p for broadcast), and the long-vector
// broadcast path; two of them additionally inject event delays (~1 and ~10
// core cycles) so not only equal-time ties are explored.
constexpr ConformanceCase kCases[] = {
    {harness::Collective::kAllgather, 23, 2, 2, coll::SplitPolicy::kStandard,
     0, "allgather"},
    {harness::Collective::kAlltoall, 9, 3, 1, coll::SplitPolicy::kStandard, 0,
     "alltoall"},
    {harness::Collective::kReduceScatter, 53, 2, 2,
     coll::SplitPolicy::kBalanced, 0, "reducescatter"},
    {harness::Collective::kBroadcast, 140, 2, 2, coll::SplitPolicy::kBalanced,
     0, "broadcast_long"},
    {harness::Collective::kBroadcast, 5, 2, 2, coll::SplitPolicy::kStandard,
     0, "broadcast_short"},
    {harness::Collective::kReduce, 37, 3, 2, coll::SplitPolicy::kStandard, 0,
     "reduce"},
    {harness::Collective::kAllreduce, 52, 2, 2, coll::SplitPolicy::kBalanced,
     1'876'173, "allreduce_jitter"},
    {harness::Collective::kScatter, 16, 2, 2, coll::SplitPolicy::kStandard, 0,
     "scatter"},
    {harness::Collective::kGather, 11, 3, 1, coll::SplitPolicy::kStandard, 0,
     "gather"},
    {harness::Collective::kAllgatherv, 20, 2, 2, coll::SplitPolicy::kStandard,
     18'761'726, "allgatherv_jitter"},
};

class Conformance : public ::testing::TestWithParam<ConformanceCase> {};

TEST_P(Conformance, AllStacksAgreeUnderPerturbation) {
  const ConformanceCase& c = GetParam();
  harness::ConformanceSpec spec;
  spec.run.collective = c.collective;
  spec.run.elements = c.elements;
  spec.run.config.tiles_x = c.tiles_x;
  spec.run.config.tiles_y = c.tiles_y;
  spec.run.split_override = c.split;
  spec.perturb_seeds = 16;
  spec.run.config.perturb_max_delay_fs = c.max_delay_fs;
  const harness::ConformanceReport report = harness::run_conformance(spec);
  // Three RCCE stacks, plus the RCKMPI cell for the collectives that have
  // an MPI counterpart (scatter/gather/allgatherv do not).
  const bool has_rckmpi =
      c.collective != harness::Collective::kScatter &&
      c.collective != harness::Collective::kGather &&
      c.collective != harness::Collective::kAllgatherv;
  EXPECT_EQ(report.runs, (has_rckmpi ? 4 : 3) * (16 + 1));
  EXPECT_TRUE(report.passed()) << report.summary();
}

INSTANTIATE_TEST_SUITE_P(Cases, Conformance, ::testing::ValuesIn(kCases),
                         [](const auto& param_info) {
                           return std::string(param_info.param.tag);
                         });

TEST(Conformance, ContentionModelDoesNotBreakAgreement) {
  harness::ConformanceSpec spec;
  spec.run.collective = harness::Collective::kAllreduce;
  spec.run.elements = 40;
  spec.run.config.tiles_x = 2;
  spec.run.config.tiles_y = 2;
  spec.perturb_seeds = 16;
  spec.run.config.cost.hw.model_link_contention = true;
  const harness::ConformanceReport report = harness::run_conformance(spec);
  EXPECT_TRUE(report.passed()) << report.summary();
}

// perturb_soak round 149 of --master-seed=1 (replay: --rounds=1
// --master-seed=150 --seeds=4). The RCKMPI cell's flag sets and link
// windows follow the channel's credit-bounded bursts and move with the
// perturbation seed (flags/sets 834 unperturbed against 835, 825 and 833)
// while every output and lines_sent/line_hops match, so the round must
// pass: those counters are time-type in RCKMPI runs. They stay volume-type
// for the RCCE stacks.
TEST(Conformance, RckmpiBurstCountersMayFollowTheSchedule) {
  harness::ConformanceSpec spec;
  spec.run.collective = harness::Collective::kAlltoall;
  spec.run.elements = 100;
  spec.run.split_override = coll::SplitPolicy::kStandard;
  spec.run.seed = 16931721667695608013ULL;
  spec.run.config.tiles_x = 3;
  spec.run.config.tiles_y = 2;
  spec.run.config.cost.hw.model_link_contention = true;
  spec.perturb_seeds = 4;
  spec.perturb_seed_base = 5887874322078130698ULL;
  spec.check_nbc = true;
  const harness::ConformanceReport report = harness::run_conformance(spec);
  EXPECT_EQ(report.configuration,
            "alltoall n=100 mesh=3x2 split=standard delay=0fs");
  EXPECT_EQ(report.runs, 7 * (4 + 1));
  EXPECT_TRUE(report.passed()) << report.summary();
  ASSERT_TRUE(report.baseline_metrics.has_value());
  ASSERT_NE(report.baseline_metrics->find("flags/sets"), nullptr);
  EXPECT_TRUE(report.baseline_metrics->find("flags/sets")->invariant);
}

// A spec that no cell can run is harness misuse: run_conformance throws
// before simulating anything instead of filing a failure per run.
TEST(Conformance, BadSpecThrowsBeforeSimulating) {
  harness::ConformanceSpec spec;
  spec.run.collective = harness::Collective::kReduceScatter;
  spec.run.algo = coll::Algo::kBruck;  // Allgather and Alltoall only
  EXPECT_THROW(static_cast<void>(harness::run_conformance(spec)),
               std::runtime_error);
  spec.run.algo.reset();
  spec.run.config.faults = faults::FaultSpec::parse("straggler:99x2");
  EXPECT_THROW(static_cast<void>(harness::run_conformance(spec)),
               std::runtime_error);
}

// Every cell runs on the spec's whole machine: the matrix on the
// fixed-silicon SCC (no arbiter-bug workaround) passes, and every cell's
// latencies differ from the default machine's.
TEST(Conformance, EveryCellRunsTheSpecsMachine) {
  harness::ConformanceSpec spec;
  spec.perturb_seeds = 2;
  const harness::ConformanceReport workaround = harness::run_conformance(spec);
  spec.run.config = machine::SccConfig::bug_fixed();
  spec.run.config.tiles_x = 2;
  spec.run.config.tiles_y = 2;
  const harness::ConformanceReport fixed = harness::run_conformance(spec);
  EXPECT_TRUE(workaround.passed()) << workaround.summary();
  EXPECT_TRUE(fixed.passed()) << fixed.summary();
  ASSERT_EQ(fixed.cells, workaround.cells);
  ASSERT_EQ(fixed.cells.size(), 4u);  // three RCCE stacks + rckmpi
  for (std::size_t c = 0; c < fixed.cells.size(); ++c) {
    EXPECT_NE(fixed.latency_histograms[c].sum(),
              workaround.latency_histograms[c].sum())
        << fixed.cells[c];
  }
}

}  // namespace
}  // namespace scc
