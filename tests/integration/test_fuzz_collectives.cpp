// Seeded random fuzzing across the full (collective x variant x size x
// mesh x algorithm x fault) configuration space. Every sampled
// configuration runs on a fresh
// machine and is verified element-wise against the serial reference by the
// harness (which throws on any mismatch). Catches interaction bugs the
// hand-picked parameter grids miss -- wraparound block indices, degenerate
// splits, odd mesh shapes, chunk boundaries.
#include <gtest/gtest.h>

#include <iterator>

#include "common/rng.hpp"
#include "faults/fault_model.hpp"
#include "harness/runner.hpp"

namespace scc::harness {
namespace {

struct MeshShape {
  int x, y;
};

constexpr MeshShape kMeshes[] = {{1, 1}, {2, 1}, {3, 1}, {2, 2}, {3, 2}};

/// A random mesh link of the sampled shape (requires at least one link).
faults::LinkRef sample_link(Xoshiro256& rng, const MeshShape& mesh) {
  faults::LinkRef link;
  const bool horizontal =
      mesh.y == 1 || (mesh.x > 1 && rng.below(2) == 0);
  if (horizontal) {
    link.a.x = static_cast<int>(rng.below(static_cast<std::uint64_t>(mesh.x - 1)));
    link.a.y = static_cast<int>(rng.below(static_cast<std::uint64_t>(mesh.y)));
    link.b = {link.a.x + 1, link.a.y};
  } else {
    link.a.x = static_cast<int>(rng.below(static_cast<std::uint64_t>(mesh.x)));
    link.a.y = static_cast<int>(rng.below(static_cast<std::uint64_t>(mesh.y - 1)));
    link.b = {link.a.x, link.a.y + 1};
  }
  return link;
}

/// 1-2 random fault clauses valid for the sampled mesh: stragglers and DVFS
/// steps always; slow links when the mesh has links at all; dead links only
/// when both dimensions exceed 1 (one dead link then never disconnects).
faults::FaultSpec sample_faults(Xoshiro256& rng, const MeshShape& mesh,
                                int p) {
  faults::FaultSpec spec;
  const bool has_links = mesh.x > 1 || mesh.y > 1;
  const bool can_kill = mesh.x > 1 && mesh.y > 1;
  const int clauses = 1 + static_cast<int>(rng.below(2));
  for (int i = 0; i < clauses; ++i) {
    const std::uint64_t kinds = has_links ? (can_kill ? 4u : 3u) : 2u;
    switch (rng.below(kinds)) {
      case 0:
        spec.stragglers.push_back(
            {static_cast<int>(rng.below(static_cast<std::uint64_t>(p))),
             1.5 + 0.5 * static_cast<double>(rng.below(6))});
        break;
      case 1:
        spec.dvfs.push_back(
            {static_cast<int>(rng.below(static_cast<std::uint64_t>(p))),
             2 + static_cast<int>(rng.below(3))});
        break;
      case 2:
        spec.slow_links.push_back(
            {sample_link(rng, mesh),
             2.0 * static_cast<double>(1 + rng.below(4))});
        break;
      default:
        spec.dead_links.push_back(sample_link(rng, mesh));
        break;
    }
  }
  return spec;
}

constexpr Collective kCollectives[] = {
    Collective::kAllgather,     Collective::kAlltoall,
    Collective::kReduceScatter, Collective::kBroadcast,
    Collective::kReduce,        Collective::kAllreduce,
    Collective::kScatter,       Collective::kGather,
    Collective::kAllgatherv};

class FuzzCollectives : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzCollectives, RandomConfigurationVerifies) {
  Xoshiro256 rng(GetParam());
  // Several draws per gtest case keep the case count readable while still
  // covering a few hundred sampled configurations.
  for (int draw = 0; draw < 6; ++draw) {
    const Collective coll = kCollectives[rng.below(std::size(kCollectives))];
    const auto variants = variants_for(coll);
    const PaperVariant variant = variants[rng.below(variants.size())];
    const MeshShape mesh = kMeshes[rng.below(5)];
    const int p = mesh.x * mesh.y * 2;
    // Sizes biased toward the interesting boundaries: around multiples of
    // p and of 4 (cache lines), sub-p vectors (some cores' blocks are
    // empty, so zero-length messages flow through the stacks), plus a
    // uniform tail.
    std::size_t n = 0;
    switch (rng.below(4)) {
      case 0:
        n = static_cast<std::size_t>(p) * (1 + rng.below(12)) + rng.below(3);
        break;
      case 1:
        n = 4 * (1 + rng.below(40)) + rng.below(4);
        break;
      case 2:
        n = 1 + rng.below(static_cast<std::uint64_t>(p));
        break;
      default:
        n = 1 + rng.below(200);
        break;
    }
    // Below p, mpb runs the balanced ring (harness::Comm); keep its draws
    // on the MPB-direct routine.
    if (variant == PaperVariant::kMpb && n < static_cast<std::size_t>(p)) {
      n += static_cast<std::size_t>(p);
    }
    RunSpec spec;
    spec.collective = coll;
    spec.variant = variant;
    spec.elements = n;
    spec.repetitions = 1;
    spec.warmup = 1;
    spec.seed = rng();
    spec.config.tiles_x = mesh.x;
    spec.config.tiles_y = mesh.y;
    // A third of the draws also enable the contention model.
    spec.config.cost.hw.model_link_contention = rng.below(3) == 0;
    // ... and some run on hypothetical fixed silicon.
    spec.config.cost.hw.mpb_bug_workaround = rng.below(4) != 0;
    // Half the draws run under a perturbed schedule (seeded, reproducible),
    // so the fuzzer explores interleavings as well as configurations.
    if (rng.below(2) == 0) spec.config.perturb_seed = rng();
    // A third of the draws simulate on a degraded machine (src/faults):
    // random stragglers, DVFS steps, slow and dead links, cross-bred with
    // every other dimension. Faults move timings -- verification against
    // the serial reference must still pass on every degraded machine. A
    // rare invalid sample (e.g. two dead links isolating a tile) falls
    // back to the healthy machine instead of aborting the constructor.
    if (rng.below(3) == 0) {
      faults::FaultSpec faults = sample_faults(rng, mesh, p);
      const noc::Topology topo(mesh.x, mesh.y, 2);
      if (!faults::FaultModel::check(faults, topo)) {
        spec.config.faults = std::move(faults);
      }
    }
    // The algorithm dimension (coll/algos.hpp), for the collectives and
    // variants that have one: paper default, each implemented variant, or
    // the auto Selector.
    if (const auto kind = algo_kind(coll); kind && stack_based(variant)) {
      const auto& algos = coll::algos_for(*kind);
      const std::uint64_t pick = rng.below(algos.size() + 2);
      if (pick == algos.size() + 1) {
        spec.algo = coll::Algo::kAuto;
      } else if (pick >= 1) {
        spec.algo = algos[pick - 1];
      }
    }
    SCOPED_TRACE(std::string(collective_name(coll)) + "/" +
                 std::string(variant_name(variant)) + " n=" +
                 std::to_string(n) + " mesh=" + std::to_string(mesh.x) + "x" +
                 std::to_string(mesh.y) +
                 (spec.algo ? " algo=" + std::string(coll::algo_name(*spec.algo))
                            : std::string()) +
                 (spec.config.perturb_seed
                      ? " perturb=" + std::to_string(*spec.config.perturb_seed)
                      : std::string()) +
                 (spec.config.faults.empty()
                      ? std::string()
                      : " faults=" + spec.config.faults.to_string()));
    const RunResult result = run_collective(spec);  // throws on mismatch
    EXPECT_TRUE(result.verified);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzCollectives,
                         ::testing::Range<std::uint64_t>(1, 41),
                         [](const auto& param_info) {
                           return "seed" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace scc::harness
