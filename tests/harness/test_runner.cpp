#include "harness/runner.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "faults/fault_spec.hpp"
#include "harness/sweep.hpp"

namespace scc::harness {
namespace {

machine::SccConfig mesh8() {
  machine::SccConfig config;
  config.tiles_x = 2;
  config.tiles_y = 2;
  return config;
}

TEST(Runner, ReportsSaneLatencies) {
  RunSpec spec;
  spec.collective = Collective::kAllreduce;
  spec.variant = PaperVariant::kBlocking;
  spec.elements = 64;
  spec.repetitions = 3;
  spec.config = mesh8();
  const RunResult r = run_collective(spec);
  EXPECT_TRUE(r.verified);
  EXPECT_GT(r.mean_latency, SimTime::zero());
  EXPECT_LE(r.min_latency, r.mean_latency);
  EXPECT_GE(r.max_latency, r.mean_latency);
  EXPECT_GT(r.events, 0u);
}

TEST(Runner, WarmRepetitionsAreStable) {
  // The simulator is deterministic and caches are warm after the warmup
  // repetition: all measured samples must be nearly identical.
  RunSpec spec;
  spec.collective = Collective::kAllreduce;
  spec.variant = PaperVariant::kLightweight;
  spec.elements = 96;
  spec.repetitions = 4;
  spec.warmup = 2;
  spec.config = mesh8();
  const RunResult r = run_collective(spec);
  EXPECT_LT(r.max_latency.us() - r.min_latency.us(), r.mean_latency.us() * 0.02);
}

TEST(Runner, ProfilesCollectedOnRequest) {
  RunSpec spec;
  spec.collective = Collective::kAllreduce;
  spec.variant = PaperVariant::kBlocking;
  spec.elements = 64;
  spec.config = mesh8();
  spec.collect_profiles = true;
  const RunResult r = run_collective(spec);
  ASSERT_EQ(r.profiles.size(), 8u);
  // Blocking stacks spend real time waiting on flags.
  EXPECT_GT(r.profiles[0].get(machine::Phase::kFlagWait), SimTime::zero());
  EXPECT_GT(r.profiles[0].total(), SimTime::zero());
}

TEST(Runner, VariantNamesMatchFigureLegends) {
  EXPECT_EQ(variant_name(PaperVariant::kRckmpi), "rckmpi");
  EXPECT_EQ(variant_name(PaperVariant::kBlocking), "blocking");
  EXPECT_EQ(variant_name(PaperVariant::kIrcce), "ircce");
  EXPECT_EQ(variant_name(PaperVariant::kLightweight), "lightweight");
  EXPECT_EQ(variant_name(PaperVariant::kLwBalanced), "lw-balanced");
  EXPECT_EQ(variant_name(PaperVariant::kMpb), "mpb");
  // Every name round-trips through the shared CLI parsers.
  for (const PaperVariant v : variants_for(Collective::kAllreduce)) {
    EXPECT_EQ(parse_variant(variant_name(v)), v) << variant_name(v);
  }
  for (const Collective c : kAllCollectives) {
    EXPECT_EQ(parse_collective(collective_name(c)), c) << collective_name(c);
  }
  for (const std::string_view bad : {"", "all", "MPB", "lw_balanced", "?"}) {
    EXPECT_EQ(parse_variant(bad), std::nullopt) << bad;
    EXPECT_EQ(parse_collective(bad), std::nullopt) << bad;
  }
}

// Comm runs the MPB-direct Allreduce only when every core owns an element:
// below p, `mpb` is the balanced ring and matches lw-balanced exactly.
TEST(Runner, MpbBelowCoreCountRunsTheBalancedRing) {
  const auto run = [](PaperVariant v, std::size_t n) {
    RunSpec spec;
    spec.collective = Collective::kAllreduce;
    spec.variant = v;
    spec.elements = n;
    spec.repetitions = 2;
    spec.capture_outputs = true;
    spec.config = mesh8();
    return run_collective(spec);
  };
  const RunResult mpb = run(PaperVariant::kMpb, 3);
  const RunResult ring = run(PaperVariant::kLwBalanced, 3);
  EXPECT_TRUE(mpb.verified);
  EXPECT_EQ(mpb.mean_latency, ring.mean_latency);
  EXPECT_EQ(mpb.events, ring.events);
  EXPECT_EQ(mpb.outputs, ring.outputs);
  // From n = p on, the MPB-direct routine runs and the two differ.
  EXPECT_NE(run(PaperVariant::kMpb, 8).mean_latency,
            run(PaperVariant::kLwBalanced, 8).mean_latency);
}

// Sizes the 8 KB MPB cannot hold are rejected up front, at limits derived
// from the layout code; the largest size that fits still passes.
TEST(Runner, RejectsSizesTheMpbCannotHold) {
  machine::SccConfig mesh;
  EXPECT_NO_THROW(parse_mesh("127x1", mesh));  // 254 cores
  EXPECT_THROW(parse_mesh("16x8", mesh), std::runtime_error);
  EXPECT_THROW(parse_mesh("65536x65536", mesh), std::runtime_error);

  RunSpec spec;  // 48 cores
  spec.variant = PaperVariant::kMpb;
  spec.elements = 19968;
  EXPECT_NO_THROW(check_spec(spec));
  spec.elements = 19969;
  EXPECT_THROW(check_spec(spec), std::runtime_error);

  spec.variant = PaperVariant::kRckmpi;
  spec.config.tiles_x = 7;
  spec.config.tiles_y = 6;  // 84 cores
  EXPECT_NO_THROW(check_spec(spec));
  spec.config.tiles_y = 7;  // 98 cores
  EXPECT_THROW(check_spec(spec), std::runtime_error);
  spec.config = machine::SccConfig::paper_default();
  spec.collective = Collective::kScatter;  // no RCKMPI counterpart
  EXPECT_THROW(check_spec(spec), std::runtime_error);
}

// A fault spec the run's mesh cannot have is a std::runtime_error naming
// the clause, not a failed precondition in the machine's constructor.
TEST(Runner, RejectsFaultsTheMeshCannotHave) {
  const auto error_of = [](const char* faults) -> std::string {
    RunSpec spec;  // 48 cores on 6x4 tiles
    spec.elements = 8;
    spec.config.faults = faults::FaultSpec::parse(faults);
    try {
      (void)run_collective(spec);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(error_of("straggler:99x2").find("straggler core 99 out of range"),
            std::string::npos);
  // Killing both links of corner tile (0,0) cuts it off.
  EXPECT_NE(error_of("deadlink:0,0-1,0;deadlink:0,0-0,1").find("disconnect"),
            std::string::npos);
  EXPECT_EQ(error_of("straggler:47x2;deadlink:0,0-1,0"), "");
}

TEST(Sweep, ProducesOnePointPerSize) {
  SweepSpec spec;
  spec.run.collective = Collective::kAllreduce;
  spec.from = 60;
  spec.to = 72;
  spec.step = 4;
  spec.run.repetitions = 1;
  spec.run.warmup = 1;
  spec.run.config = mesh8();
  spec.variants = {PaperVariant::kBlocking, PaperVariant::kLightweight};
  const SweepResult r = run_sweep(spec);
  ASSERT_EQ(r.points.size(), 4u);  // 60, 64, 68, 72
  EXPECT_EQ(r.points.front().elements, 60u);
  EXPECT_EQ(r.points.back().elements, 72u);
  for (const SweepPoint& pt : r.points) {
    ASSERT_EQ(pt.latency_us.size(), 2u);
    EXPECT_GT(pt.latency_us[0], 0.0);
  }
}

TEST(Sweep, SpeedupStatistics) {
  SweepSpec spec;
  spec.run.collective = Collective::kAllreduce;
  spec.from = 60;
  spec.to = 68;
  spec.step = 4;
  spec.run.repetitions = 1;
  spec.run.warmup = 1;
  spec.run.config = mesh8();
  spec.variants = {PaperVariant::kBlocking, PaperVariant::kLightweight};
  const SweepResult r = run_sweep(spec);
  const double mean = r.mean_speedup_vs_blocking(PaperVariant::kLightweight);
  EXPECT_GT(mean, 1.0);
  const auto [best, at] = r.max_speedup_vs_blocking(PaperVariant::kLightweight);
  EXPECT_GE(best, mean * 0.99);
  EXPECT_GE(at, 60u);
  EXPECT_LE(at, 68u);
  EXPECT_DOUBLE_EQ(r.mean_speedup_vs_blocking(PaperVariant::kBlocking), 1.0);
}

TEST(Sweep, TableHasVariantColumns) {
  SweepSpec spec;
  spec.run.collective = Collective::kReduce;
  spec.from = 64;
  spec.to = 64;
  spec.run.repetitions = 1;
  spec.run.warmup = 0;
  spec.run.config = mesh8();
  spec.variants = {PaperVariant::kBlocking};
  const SweepResult r = run_sweep(spec);
  const Table table = r.to_table();
  EXPECT_EQ(table.columns(), 2u);  // elements + 1 variant
  EXPECT_EQ(table.rows(), 1u);
}

// SweepSpec::run.algo reaches the Stack-based variants only: RCKMPI and the
// MPB-direct Allreduce keep their own schedule (RunSpec::algo rejects
// them), so a panel compares the override against them.
TEST(Sweep, AlgoOverrideSkipsRckmpiAndMpb) {
  SweepSpec spec;
  spec.run.collective = Collective::kAllreduce;
  spec.from = 64;
  spec.to = 64;
  spec.run.repetitions = 1;
  spec.run.warmup = 1;
  spec.run.config = mesh8();
  spec.variants = {PaperVariant::kRckmpi, PaperVariant::kLightweight,
                   PaperVariant::kMpb};
  const SweepResult plain = run_sweep(spec);
  spec.run.algo = coll::Algo::kRecursiveDoubling;
  const SweepResult overridden = run_sweep(spec);

  RunSpec lightweight;
  lightweight.collective = Collective::kAllreduce;
  lightweight.variant = PaperVariant::kLightweight;
  lightweight.elements = 64;
  lightweight.repetitions = 1;
  lightweight.warmup = 1;
  lightweight.config = mesh8();
  lightweight.algo = coll::Algo::kRecursiveDoubling;
  const double lightweight_us = run_collective(lightweight).mean_latency.us();
  ASSERT_EQ(overridden.points.size(), 1u);
  const std::vector<double>& got = overridden.points[0].latency_us;
  const std::vector<double>& paper = plain.points[0].latency_us;
  EXPECT_EQ(got[1], lightweight_us);
  EXPECT_NE(got[1], paper[1]);  // the override changed the schedule
  EXPECT_EQ(got[0], paper[0]);  // rckmpi
  EXPECT_EQ(got[2], paper[2]);  // mpb
}

TEST(Runner, CustomSeedChangesDataNotShape) {
  RunSpec a;
  a.collective = Collective::kAllreduce;
  a.variant = PaperVariant::kLightweight;
  a.elements = 64;
  a.config = mesh8();
  a.seed = 1;
  RunSpec b = a;
  b.seed = 2;
  const auto ra = run_collective(a);
  const auto rb = run_collective(b);
  // Timing is data-independent in this model (same charge structure).
  EXPECT_EQ(ra.mean_latency, rb.mean_latency);
}

}  // namespace
}  // namespace scc::harness
