// Runner- and conformance-level checks of the non-blocking collective path
// (label: nbc).
//
// Three layers of the ISSUE-10 acceptance criteria live here:
//   1. blocking-vs-non-blocking element-wise equivalence per (collective,
//      stack, algorithm) cell through the harness runner -- one lane must
//      reproduce the blocking schedule's outputs bit-exactly AND its
//      measured latency (same wire schedule), extra lanes must still
//      reproduce the outputs;
//   2. the conformance matrix with check_nbc: every RCCE stack gains an
//      "<stack>-nbc" cell that is cross-checked against the shared
//      reference under 16 perturbation seeds;
//   3. the RCKMPI mod-256 sequence wraparound re-exercised under the new
//      traffic load (repetitions accumulate >256 lines per channel) with
//      the nbc cells riding the same matrix.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "coll/algos.hpp"
#include "harness/conformance.hpp"
#include "harness/runner.hpp"

namespace scc {
namespace {

using harness::Collective;
using harness::PaperVariant;

/// The collectives with an i*() entry point (coll/nbc.hpp).
constexpr Collective kNbcCollectives[] = {
    Collective::kAllgather,
    Collective::kAlltoall,
    Collective::kBroadcast,
    Collective::kAllreduce,
};

/// The RCCE-family stacks the non-blocking API runs on.
constexpr PaperVariant kNbcVariants[] = {
    PaperVariant::kBlocking,
    PaperVariant::kIrcce,
    PaperVariant::kLightweight,
    PaperVariant::kLwBalanced,
};

/// Paper algorithm (nullopt) plus every concrete variant the collective
/// implements; just the paper algorithm for the kinds without a dimension.
std::vector<std::optional<coll::Algo>> algo_axis(Collective c) {
  std::vector<std::optional<coll::Algo>> axis{std::nullopt};
  if (const auto kind = harness::algo_kind(c)) {
    for (const coll::Algo algo : coll::algos_for(*kind)) {
      axis.emplace_back(algo);
    }
  }
  return axis;
}

harness::RunSpec grid_spec(Collective c, PaperVariant v,
                           std::optional<coll::Algo> algo) {
  harness::RunSpec spec;
  spec.collective = c;
  spec.variant = v;
  spec.algo = algo;
  spec.elements = 48;
  spec.repetitions = 1;
  spec.warmup = 0;
  spec.capture_outputs = true;
  spec.config.tiles_x = 2;
  spec.config.tiles_y = 2;
  return spec;
}

std::string cell_name(Collective c, PaperVariant v,
                      std::optional<coll::Algo> algo) {
  std::string name{harness::collective_name(c)};
  name += '/';
  name += harness::variant_name(v);
  name += '/';
  name += algo ? coll::algo_name(*algo) : "paper";
  return name;
}

// Every (collective, stack, algorithm) cell: the one-lane non-blocking run
// must match the blocking run bit-exactly in outputs AND in measured
// latency (one lane replays the blocking wire schedule); a two-lane engine
// changes the flag/MPB partitioning, so only the outputs must match.
TEST(NbcRunnerGrid, OneLaneMatchesBlockingBitExactPerAlgorithm) {
  for (const Collective c : kNbcCollectives) {
    for (const PaperVariant v : kNbcVariants) {
      for (const auto algo : algo_axis(c)) {
        SCOPED_TRACE(cell_name(c, v, algo));
        const harness::RunSpec blocking = grid_spec(c, v, algo);
        const harness::RunResult want = harness::run_collective(blocking);

        harness::RunSpec nbc = blocking;
        nbc.nbc_lanes = 1;
        const harness::RunResult got = harness::run_collective(nbc);
        ASSERT_EQ(got.outputs.size(), want.outputs.size());
        for (std::size_t r = 0; r < want.outputs.size(); ++r) {
          ASSERT_EQ(got.outputs[r], want.outputs[r]) << "core " << r;
        }
        EXPECT_EQ(got.mean_latency, want.mean_latency)
            << "lanes=1 must replay the blocking wire schedule exactly";

        if (v == PaperVariant::kBlocking) continue;  // no poll-and-yield
        harness::RunSpec wide = nbc;
        wide.nbc_lanes = 2;
        const harness::RunResult wide_got = harness::run_collective(wide);
        ASSERT_EQ(wide_got.outputs.size(), want.outputs.size());
        for (std::size_t r = 0; r < want.outputs.size(); ++r) {
          ASSERT_EQ(wide_got.outputs[r], want.outputs[r])
              << "lanes=2 core " << r;
        }
      }
    }
  }
}

// The conformance matrix with check_nbc on: three RCCE stacks + the RCKMPI
// baseline + three "<stack>-nbc" cells, every cell cross-checked against
// the shared reference and diffed against its own baseline under 16
// perturbation seeds.
TEST(NbcConformance, SixteenSeedMatrixPasses) {
  struct Case {
    Collective collective;
    std::size_t elements;
    coll::SplitPolicy split;
    std::uint64_t max_delay_fs;
  };
  const Case cases[] = {
      {Collective::kAllreduce, 52, coll::SplitPolicy::kBalanced,
       1'876'173},  // ~1 core cycle of event jitter
      {Collective::kAlltoall, 9, coll::SplitPolicy::kStandard, 0},
  };
  for (const Case& c : cases) {
    harness::ConformanceSpec spec;
    spec.run.collective = c.collective;
    spec.run.elements = c.elements;
    spec.run.split_override = c.split;
    spec.perturb_seeds = 16;
    spec.run.config.perturb_max_delay_fs = c.max_delay_fs;
    spec.check_nbc = true;
    const harness::ConformanceReport report = harness::run_conformance(spec);
    // 3 RCCE stacks + rckmpi + 3 nbc cells, each (1 baseline + 16 seeds).
    EXPECT_EQ(report.runs, 7 * (16 + 1))
        << harness::collective_name(c.collective);
    ASSERT_EQ(report.cells.size(), 7u);
    EXPECT_EQ(report.cells[3], "rckmpi");
    EXPECT_EQ(report.cells[4], "blocking-nbc");
    EXPECT_EQ(report.cells[6], "lightweight-nbc");
    EXPECT_TRUE(report.passed()) << report.summary();
  }
}

// Collectives without an i*() entry point must not grow nbc cells even
// when asked -- the matrix silently stays at the blocking stacks.
TEST(NbcConformance, UnsupportedCollectiveGetsNoNbcCells) {
  harness::ConformanceSpec spec;
  spec.run.collective = Collective::kReduceScatter;
  spec.run.elements = 24;
  spec.perturb_seeds = 2;
  spec.check_nbc = true;
  const harness::ConformanceReport report = harness::run_conformance(spec);
  EXPECT_EQ(report.cells.size(), 4u);  // 3 stacks + rckmpi, no -nbc cells
  EXPECT_TRUE(report.passed()) << report.summary();
}

// RCKMPI's packetized channel sequences lines mod 256; an Alltoall at 512
// per-pair doubles moves 128 lines per channel per repetition, so three
// measured repetitions push every channel's cumulative counter past the
// wraparound (384 > 256) while the nbc cells ride the same matrix. Any
// sequencing bug shows up as a result mismatch or traffic drift.
TEST(NbcConformance, RckmpiSequenceWraparoundUnderTraffic) {
  harness::ConformanceSpec spec;
  spec.run.collective = Collective::kAlltoall;
  spec.run.elements = 512;
  spec.run.repetitions = 3;
  spec.perturb_seeds = 2;
  spec.check_nbc = true;
  const harness::ConformanceReport report = harness::run_conformance(spec);
  EXPECT_EQ(report.runs, 7 * (2 + 1));
  EXPECT_TRUE(report.passed()) << report.summary();
}

}  // namespace
}  // namespace scc
