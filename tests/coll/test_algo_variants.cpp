// Exhaustive small-grid differential coverage of the algorithm variants
// (coll/algos.hpp): every implemented algorithm of every collective that
// has an algorithm dimension -- plus the auto Selector -- must match the
// serial reference for all (n <= 64, p in {2,3,4,7,8,16,48}, stack,
// split-policy) cells. Odd core counts come from cores_per_tile = 1
// meshes, which the SCC hardware never had but the algorithms must still
// be correct on (the fold/unfold steps only trigger for non-power-of-two
// p). On top of the fixed-schedule grid, conformance cells re-check each
// (collective, algorithm) pair element-wise across all three stacks under
// 16 perturbation seeds, and a dedicated cell pins down the multi-chunk
// bidirectional-exchange regression (rcce::complete_exchange). Runs in its
// own ctest tier: `ctest -L algos` (preset "algos").
#include "coll/algos.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "harness/conformance.hpp"
#include "harness/runner.hpp"

namespace scc::coll {
namespace {

using harness::Collective;
using harness::PaperVariant;
using harness::RunResult;
using harness::RunSpec;

/// The four collectives with an algorithm dimension.
constexpr Collective kAlgoCollectives[] = {
    Collective::kAllgather, Collective::kAlltoall, Collective::kReduceScatter,
    Collective::kAllreduce};

constexpr PaperVariant kStacks[] = {PaperVariant::kBlocking,
                                    PaperVariant::kIrcce,
                                    PaperVariant::kLightweight};

struct Mesh {
  int tiles_x;
  int tiles_y;
  int cores_per_tile;
};

/// Mesh shapes for the grid's core counts. Odd p uses one core per tile;
/// the rest keep the SCC's two.
Mesh mesh_for(int p) {
  switch (p) {
    case 2: return {1, 1, 2};
    case 3: return {3, 1, 1};
    case 4: return {2, 1, 2};
    case 7: return {7, 1, 1};
    case 8: return {2, 2, 2};
    case 16: return {4, 2, 2};
    case 48: return {6, 4, 2};
    default: throw std::runtime_error("no mesh for p");
  }
}

machine::SccConfig config_for(int p) {
  const Mesh m = mesh_for(p);
  machine::SccConfig config;
  config.tiles_x = m.tiles_x;
  config.tiles_y = m.tiles_y;
  config.cores_per_tile = m.cores_per_tile;
  return config;
}

std::string sanitize(std::string name) {
  for (char& ch : name) {
    if (ch == '-') ch = '_';  // gtest parameter names must be identifiers
  }
  return name;
}

// --- fixed-schedule differential grid ------------------------------------

struct GridCase {
  Collective collective;
  Algo algo;
  PaperVariant variant;
  std::size_t n;
  int p;
  SplitPolicy split;
};

/// Whether the collective takes a split policy (the other two gather or
/// rotate fixed rank-major blocks; no split to vary).
bool algo_kind_splits(Collective c) {
  return c == Collective::kReduceScatter || c == Collective::kAllreduce;
}

std::string grid_case_name(const ::testing::TestParamInfo<GridCase>& info) {
  const GridCase& c = info.param;
  std::string name = std::string(collective_name(c.collective)) + "_" +
                     std::string(algo_name(c.algo)) + "_" +
                     std::string(variant_name(c.variant)) + "_n" +
                     std::to_string(c.n) + "_p" + std::to_string(c.p);
  if (algo_kind_splits(c.collective))
    name += c.split == SplitPolicy::kBalanced ? "_bal" : "_std";
  return sanitize(name);
}

class AlgoGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(AlgoGrid, MatchesSerialReference) {
  const GridCase& c = GetParam();
  RunSpec spec;
  spec.collective = c.collective;
  spec.variant = c.variant;
  spec.algo = c.algo;
  spec.elements = c.n;
  spec.repetitions = 1;
  spec.warmup = 0;
  spec.config = config_for(c.p);
  if (algo_kind_splits(c.collective)) spec.split_override = c.split;
  const RunResult result = harness::run_collective(spec);  // throws on error
  EXPECT_TRUE(result.verified);
  EXPECT_GT(result.mean_latency, SimTime::zero());
}

std::vector<GridCase> grid_cases() {
  std::vector<GridCase> cases;
  // Sizes <= 64 hitting: n < p (empty blocks for the splitters, the
  // zero-length exchange paths), remainder splits, and -- at p = 48 --
  // Bruck rounds whose aggregated payload spans several MPB chunks (the
  // interleaved-completion path of the non-blocking layers).
  const std::size_t sizes[] = {1, 5, 17, 64};
  const int cores[] = {2, 3, 4, 7, 8, 16, 48};
  for (const Collective coll : kAlgoCollectives) {
    const CollKind kind = *harness::algo_kind(coll);
    std::vector<Algo> algos = algos_for(kind);
    algos.push_back(Algo::kAuto);  // Selector path, end to end
    for (const Algo algo : algos) {
      for (const int p : cores) {
        for (const std::size_t n : sizes) {
          for (const PaperVariant v : kStacks) {
            if (algo_kind_splits(coll)) {
              cases.push_back({coll, algo, v, n, p, SplitPolicy::kStandard});
              cases.push_back({coll, algo, v, n, p, SplitPolicy::kBalanced});
            } else {
              cases.push_back({coll, algo, v, n, p, SplitPolicy::kStandard});
            }
          }
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(SmallGrid, AlgoGrid, ::testing::ValuesIn(grid_cases()),
                         grid_case_name);

// --- perturbed cross-stack conformance cells ------------------------------

struct ConfCase {
  Collective collective;
  Algo algo;
  int tiles_x;
  int tiles_y;
  int cores_per_tile;
  std::size_t n;
};

std::string conf_case_name(const ::testing::TestParamInfo<ConfCase>& info) {
  const ConfCase& c = info.param;
  return sanitize(std::string(collective_name(c.collective)) + "_" +
                  std::string(algo_name(c.algo)) + "_p" +
                  std::to_string(c.tiles_x * c.tiles_y * c.cores_per_tile) +
                  "_n" + std::to_string(c.n));
}

class AlgoConformance : public ::testing::TestWithParam<ConfCase> {};

TEST_P(AlgoConformance, IdenticalAcrossStacksAndSeeds) {
  const ConfCase& c = GetParam();
  harness::ConformanceSpec spec;
  spec.run.collective = c.collective;
  spec.run.algo = c.algo;
  spec.run.elements = c.n;
  spec.run.config.tiles_x = c.tiles_x;
  spec.run.config.tiles_y = c.tiles_y;
  spec.run.config.cores_per_tile = c.cores_per_tile;
  spec.perturb_seeds = 16;
  spec.jobs = 0;  // fan the stack x seed matrix out; report is jobs-invariant
  const harness::ConformanceReport report = harness::run_conformance(spec);
  EXPECT_TRUE(report.passed()) << report.summary();
  EXPECT_EQ(report.runs, 3 * (1 + 16));
}

std::vector<ConfCase> conformance_cases() {
  std::vector<ConfCase> cases;
  // Every non-paper algorithm plus the Selector, each on a power-of-two
  // mesh and on an odd-p fold/unfold mesh. (The paper algorithms' cells are
  // already the conformance suite's and soak driver's bread and butter.)
  for (const Collective coll : kAlgoCollectives) {
    const CollKind kind = *harness::algo_kind(coll);
    std::vector<Algo> algos(algos_for(kind).begin() + 1,
                            algos_for(kind).end());
    algos.push_back(Algo::kAuto);
    for (const Algo algo : algos) {
      cases.push_back({coll, algo, 2, 2, 2, 24});
      cases.push_back({coll, algo, 3, 1, 1, 10});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Cells, AlgoConformance,
                         ::testing::ValuesIn(conformance_cases()),
                         conf_case_name);

// The multi-chunk bidirectional-exchange regression: a Bruck round at
// p = 32 moves 16 blocks x 64 doubles = 8 KiB per direction, several MPB
// chunks, and the non-blocking layers' receive-before-restage completion
// used to deadlock on it (fixed by rcce::complete_exchange's interleaved
// progression). Perturbed, because the bug was an ordering bug.
TEST(AlgoConformance, MultiChunkBruckExchange) {
  harness::ConformanceSpec spec;
  spec.run.collective = Collective::kAllgather;
  spec.run.algo = Algo::kBruck;
  spec.run.elements = 64;
  spec.run.config.tiles_x = 4;
  spec.run.config.tiles_y = 4;
  spec.perturb_seeds = 4;
  spec.jobs = 0;
  const harness::ConformanceReport report = harness::run_conformance(spec);
  EXPECT_TRUE(report.passed()) << report.summary();
}

// --- Selector and metadata unit tests -------------------------------------

TEST(AlgoMeta, NamesRoundTrip) {
  for (const Algo a :
       {Algo::kAuto, Algo::kRing, Algo::kRecursiveHalving, Algo::kBruck,
        Algo::kRecursiveDoubling, Algo::kRingRS, Algo::kPairwise}) {
    const auto parsed = parse_algo(algo_name(a));
    ASSERT_TRUE(parsed.has_value()) << algo_name(a);
    EXPECT_EQ(*parsed, a);
  }
  EXPECT_FALSE(parse_algo("rng").has_value());
  EXPECT_FALSE(parse_algo("").has_value());
}

TEST(AlgoMeta, PaperAlgoHeadsEachList) {
  for (const CollKind kind :
       {CollKind::kAllgather, CollKind::kAlltoall, CollKind::kReduceScatter,
        CollKind::kAllreduce}) {
    const auto& algos = algos_for(kind);
    ASSERT_GE(algos.size(), 2u) << static_cast<int>(kind);
    EXPECT_EQ(paper_algo(kind), algos.front());
    for (const Algo a : algos) EXPECT_TRUE(algo_valid_for(kind, a));
    // kAuto is a request, not an implementation; it is resolved before
    // dispatch and never appears in a validity check.
    EXPECT_FALSE(algo_valid_for(kind, Algo::kAuto));
  }
  EXPECT_EQ(paper_algo(CollKind::kAllgather), Algo::kRing);
  EXPECT_EQ(paper_algo(CollKind::kAlltoall), Algo::kPairwise);
  EXPECT_EQ(paper_algo(CollKind::kReduceScatter), Algo::kRing);
  EXPECT_EQ(paper_algo(CollKind::kAllreduce), Algo::kRingRS);
  EXPECT_FALSE(algo_valid_for(CollKind::kReduceScatter, Algo::kBruck));
  EXPECT_FALSE(algo_valid_for(CollKind::kAllgather, Algo::kPairwise));
  EXPECT_FALSE(algo_valid_for(CollKind::kAlltoall, Algo::kRing));
}

TEST(AlgoMeta, HarnessKindMapping) {
  EXPECT_EQ(harness::algo_kind(Collective::kAllgather), CollKind::kAllgather);
  EXPECT_EQ(harness::algo_kind(Collective::kAlltoall), CollKind::kAlltoall);
  EXPECT_EQ(harness::algo_kind(Collective::kReduceScatter),
            CollKind::kReduceScatter);
  EXPECT_EQ(harness::algo_kind(Collective::kAllreduce), CollKind::kAllreduce);
  for (const Collective c :
       {Collective::kBroadcast, Collective::kReduce, Collective::kScatter,
        Collective::kGather, Collective::kAllgatherv}) {
    EXPECT_FALSE(harness::algo_kind(c).has_value());
  }
}

TEST(AlgoSelector, NeverReturnsAuto) {
  for (const CollKind kind :
       {CollKind::kAllgather, CollKind::kAlltoall, CollKind::kReduceScatter,
        CollKind::kAllreduce}) {
    for (const Prims prims : kAllPrims) {
      for (const std::size_t n : {std::size_t{1}, std::size_t{64},
                                  std::size_t{1000}, std::size_t{100000}}) {
        for (const int p : {2, 3, 8, 48}) {
          const Algo picked = select_algo(kind, n, p, prims);
          EXPECT_NE(picked, Algo::kAuto);
          EXPECT_TRUE(algo_valid_for(kind, picked));
        }
      }
    }
  }
}

// Pin the measured switch points (bench/tab_algo_select on the 48-core
// mesh; see DESIGN.md §12). A threshold recalibration must edit these in
// lockstep with the committed selection-table baseline.
TEST(AlgoSelector, MeasuredSwitchPoints) {
  const int p = 48;
  const Prims lw = Prims::kLightweight;
  const Prims blk = Prims::kBlocking;
  // Allgather: short vectors go log-round (Bruck for non-power-of-two p,
  // recursive doubling for power-of-two); long vectors ring.
  EXPECT_EQ(select_algo(CollKind::kAllgather, 8, p, lw), Algo::kBruck);
  EXPECT_EQ(select_algo(CollKind::kAllgather, 128, p, lw), Algo::kBruck);
  EXPECT_EQ(select_algo(CollKind::kAllgather, 129, p, lw), Algo::kRing);
  EXPECT_EQ(select_algo(CollKind::kAllgather, 8, 16, lw),
            Algo::kRecursiveDoubling);
  // Blocking serializes Bruck's shift cycles: only tiny vectors leave ring,
  // and then via recursive doubling.
  EXPECT_EQ(select_algo(CollKind::kAllgather, 8, p, blk),
            Algo::kRecursiveDoubling);
  EXPECT_EQ(select_algo(CollKind::kAllgather, 64, p, blk), Algo::kRing);
  // Two ranks: every algorithm degenerates to the same single exchange;
  // stay on the paper schedule.
  EXPECT_EQ(select_algo(CollKind::kAllgather, 8, 2, lw), Algo::kRing);
  // ReduceScatter: recursive halving wins through 2048 elements.
  EXPECT_EQ(select_algo(CollKind::kReduceScatter, 2048, p, lw),
            Algo::kRecursiveHalving);
  EXPECT_EQ(select_algo(CollKind::kReduceScatter, 2049, p, lw), Algo::kRing);
  EXPECT_EQ(select_algo(CollKind::kReduceScatter, 64, 2, lw), Algo::kRing);
  // Allreduce: recursive doubling up to 1024, ring RS+AG beyond.
  EXPECT_EQ(select_algo(CollKind::kAllreduce, 1024, p, lw),
            Algo::kRecursiveDoubling);
  EXPECT_EQ(select_algo(CollKind::kAllreduce, 1025, p, lw), Algo::kRingRS);
  EXPECT_EQ(select_algo(CollKind::kAllreduce, 64, 2, lw), Algo::kRingRS);
  // Alltoall: Bruck only pays off for short per-destination blocks on the
  // non-blocking layers (it moves log2(p)/2 times the volume).
  EXPECT_EQ(select_algo(CollKind::kAlltoall, 32, p, lw), Algo::kBruck);
  EXPECT_EQ(select_algo(CollKind::kAlltoall, 33, p, lw), Algo::kPairwise);
  EXPECT_EQ(select_algo(CollKind::kAlltoall, 8, p, blk), Algo::kPairwise);
}

// --- harness validation ----------------------------------------------------

RunSpec algo_spec(Collective c, PaperVariant v, Algo algo) {
  RunSpec spec;
  spec.collective = c;
  spec.variant = v;
  spec.algo = algo;
  spec.elements = 16;
  spec.repetitions = 1;
  spec.warmup = 0;
  spec.config = config_for(8);
  return spec;
}

TEST(AlgoHarness, RejectsVariantsWithoutStack) {
  // RCKMPI and the MPB-direct Allreduce do not go through coll::Stack; an
  // algorithm override cannot apply and must be refused loudly.
  EXPECT_THROW((void)harness::run_collective(algo_spec(
                   Collective::kAllgather, PaperVariant::kRckmpi,
                   Algo::kBruck)),
               std::runtime_error);
  EXPECT_THROW((void)harness::run_collective(algo_spec(
                   Collective::kAllreduce, PaperVariant::kMpb,
                   Algo::kRecursiveDoubling)),
               std::runtime_error);
}

TEST(AlgoHarness, RejectsCollectivesWithoutAlgorithms) {
  EXPECT_THROW((void)harness::run_collective(algo_spec(
                   Collective::kBroadcast, PaperVariant::kLightweight,
                   Algo::kAuto)),
               std::runtime_error);
}

TEST(AlgoHarness, RejectsMismatchedAlgorithm) {
  EXPECT_THROW((void)harness::run_collective(algo_spec(
                   Collective::kReduceScatter, PaperVariant::kLightweight,
                   Algo::kBruck)),
               std::runtime_error);
  EXPECT_THROW((void)harness::run_collective(algo_spec(
                   Collective::kAllgather, PaperVariant::kLightweight,
                   Algo::kPairwise)),
               std::runtime_error);
}

TEST(AlgoHarness, ExplicitPaperAlgorithmMatchesUnset) {
  // spec.algo = the paper algorithm must reproduce the Algo-less run
  // bit-for-bit (it dispatches into the identical schedule).
  RunSpec spec = algo_spec(Collective::kAllgather, PaperVariant::kLightweight,
                           Algo::kRing);
  spec.elements = 48;
  const RunResult with_algo = harness::run_collective(spec);
  spec.algo.reset();
  const RunResult without = harness::run_collective(spec);
  EXPECT_EQ(with_algo.mean_latency, without.mean_latency);
  EXPECT_EQ(with_algo.events, without.events);
  EXPECT_EQ(with_algo.lines_sent, without.lines_sent);
  EXPECT_EQ(with_algo.line_hops, without.line_hops);
}

}  // namespace
}  // namespace scc::coll
