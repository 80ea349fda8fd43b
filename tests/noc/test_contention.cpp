#include "noc/contention.hpp"

#include <gtest/gtest.h>

#include "harness/runner.hpp"

namespace scc::noc {
namespace {

TEST(Contention, FirstTransferIsNotDelayed) {
  const Topology topo;
  LinkContention model(topo, Clock{800e6}, 3, 4);
  EXPECT_EQ(model.occupy(0, 47, 100, SimTime::zero()), SimTime::zero());
  EXPECT_EQ(model.delayed_transfers(), 0u);
}

TEST(Contention, SecondTransferOnSameLinkQueues) {
  const Topology topo;
  LinkContention model(topo, Clock{800e6}, 3, 4);
  model.occupy(0, 4, 100, SimTime::zero());  // occupies (0,0)->(1,0)...
  const SimTime delay = model.occupy(0, 4, 100, SimTime::zero());
  EXPECT_GT(delay, SimTime::zero());
  EXPECT_EQ(model.delayed_transfers(), 1u);
}

TEST(Contention, DisjointRoutesDoNotInteract) {
  const Topology topo;
  LinkContention model(topo, Clock{800e6}, 3, 4);
  model.occupy(0, 2, 1000, SimTime::zero());   // row 0, eastbound
  const SimTime delay = model.occupy(47, 45, 1000, SimTime::zero());  // row 3, westbound
  EXPECT_EQ(delay, SimTime::zero());
}

TEST(Contention, OppositeDirectionsAreSeparateLinks) {
  const Topology topo;
  LinkContention model(topo, Clock{800e6}, 3, 4);
  model.occupy(0, 2, 1000, SimTime::zero());
  EXPECT_EQ(model.occupy(2, 0, 1000, SimTime::zero()), SimTime::zero());
}

TEST(Contention, BusyLinksDrainOverTime) {
  const Topology topo;
  LinkContention model(topo, Clock{800e6}, 3, 4);
  model.occupy(0, 2, 8, SimTime::zero());  // 8 lines * 3 mesh cycles
  const SimTime much_later = SimTime::from_us(1000.0);
  EXPECT_EQ(model.occupy(0, 2, 8, much_later), SimTime::zero());
}

TEST(Contention, SameTileTransferNeverQueues) {
  const Topology topo;
  LinkContention model(topo, Clock{800e6}, 3, 4);
  model.occupy(0, 1, 1000, SimTime::zero());
  EXPECT_EQ(model.occupy(0, 1, 1000, SimTime::zero()), SimTime::zero());
}

// --- hop-offset (wormhole) window timing ---------------------------------
//
// Link i of a route is occupied starting hop_latency * i after the
// transfer departs, not at departure. Both tests pin exact delays.

constexpr std::uint64_t kLines = 8;
const SimTime kService = Clock{800e6}.cycles(kLines * 3);  // per-link window
const SimTime kHop = Clock{800e6}.cycles(4);               // head hop latency

TEST(Contention, TrailingLinkOccupiedAfterHeadTraversal) {
  const Topology topo;
  LinkContention model(topo, Clock{800e6}, 3, 4);
  // Core 0 (tile (0,0)) -> core 14 (tile (1,1)): XY route is (0,0)->(1,0)
  // then (1,0)->(1,1); the second link's window is [kHop, kHop + kService].
  model.occupy(0, 14, kLines, SimTime::zero());
  // Core 2 (tile (1,0)) -> core 14 crosses only (1,0)->(1,1) -- the first
  // transfer's *second* hop. Entering at exactly kService would be free
  // under a start-everything-at-departure model; with the offset the link
  // is busy until kHop + kService, so the residual delay is exactly kHop.
  const SimTime delay = model.occupy(2, 14, kLines, kService);
  EXPECT_EQ(delay, kHop);
}

TEST(Contention, FarLinkFreeBeforeHeadArrives) {
  const Topology topo;
  LinkContention model(topo, Clock{800e6}, 3, 4);
  // Core 2 (tile (1,0)) -> core 14 (tile (1,1)): occupies (1,0)->(1,1) over
  // [0, kService].
  model.occupy(2, 14, kLines, SimTime::zero());
  // Core 0 -> core 14 departs at 0 but its head reaches (1,0)->(1,1) only
  // at kHop, so the residual busy time there is kService - kHop (a model
  // without the offset would charge the full kService).
  const SimTime delay = model.occupy(0, 14, kLines, SimTime::zero());
  EXPECT_EQ(delay, kService - kHop);
}

// --- integration with the full stack ------------------------------------

double alltoall_us(bool contention) {
  harness::RunSpec spec;
  spec.collective = harness::Collective::kAlltoall;
  spec.variant = harness::PaperVariant::kLightweight;
  spec.elements = 64;
  spec.repetitions = 2;
  spec.warmup = 1;
  spec.verify = false;
  spec.config.tiles_x = 2;
  spec.config.tiles_y = 2;
  spec.config.cost.hw.model_link_contention = contention;
  return harness::run_collective(spec).mean_latency.us();
}

TEST(Contention, AlltoallSlowerWithContentionModeled) {
  EXPECT_GT(alltoall_us(true), alltoall_us(false));
}

TEST(Contention, DeterministicWhenEnabled) {
  EXPECT_DOUBLE_EQ(alltoall_us(true), alltoall_us(true));
}

TEST(Contention, ResultsStillCorrectWithContention) {
  harness::RunSpec spec;
  spec.collective = harness::Collective::kAlltoall;
  spec.variant = harness::PaperVariant::kLightweight;
  spec.elements = 32;
  spec.config.tiles_x = 2;
  spec.config.tiles_y = 2;
  spec.config.cost.hw.model_link_contention = true;
  EXPECT_TRUE(harness::run_collective(spec).verified);
}

}  // namespace
}  // namespace scc::noc
