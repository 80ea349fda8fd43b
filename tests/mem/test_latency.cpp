// Checks the latency calculator against the documented SCC formulas
// (paper Section IV-D and the SCC Programmer's Guide values).
#include "mem/latency.hpp"

#include <gtest/gtest.h>

namespace scc::mem {
namespace {

class LatencyTest : public ::testing::Test {
 protected:
  noc::Topology topo_;
  HwCostModel hw_;
};

double core_cc_ns(const HwCostModel& hw, double cc) {
  return cc / hw.core_hz * 1e9;
}
double mesh_cc_ns(const HwCostModel& hw, double cc) {
  return cc / hw.mesh_hz * 1e9;
}

TEST_F(LatencyTest, LocalMpbWithBugWorkaround) {
  hw_.mpb_bug_workaround = true;
  const LatencyCalculator calc(hw_, topo_);
  // 45 core cycles + 8 mesh cycles (cores 0 and 1 share tile 0).
  const double want = core_cc_ns(hw_, 45) + mesh_cc_ns(hw_, 8);
  EXPECT_NEAR(calc.mpb_line_access(0, 1, true).ns(), want, 0.01);
  EXPECT_NEAR(calc.mpb_line_access(0, 0, true).ns(), want, 0.01);
}

TEST_F(LatencyTest, LocalMpbWithoutBug) {
  hw_.mpb_bug_workaround = false;
  const LatencyCalculator calc(hw_, topo_);
  EXPECT_NEAR(calc.mpb_line_access(0, 1, true).ns(), core_cc_ns(hw_, 15),
              0.01);
}

TEST_F(LatencyTest, RemoteReadIsRoundTrip) {
  const LatencyCalculator calc(hw_, topo_);
  // Core 0 (tile 0) -> core 47 (tile 23): 8 hops, 4 mesh cycles per hop,
  // both directions for a read.
  const double want = core_cc_ns(hw_, 45) + mesh_cc_ns(hw_, 2 * 8 * 4);
  EXPECT_NEAR(calc.mpb_line_access(0, 47, true).ns(), want, 0.01);
}

TEST_F(LatencyTest, RemoteWriteIsPosted) {
  const LatencyCalculator calc(hw_, topo_);
  const double want = core_cc_ns(hw_, 45) + mesh_cc_ns(hw_, 8 * 4);
  EXPECT_NEAR(calc.mpb_line_access(0, 47, false).ns(), want, 0.01);
}

TEST_F(LatencyTest, ReadCostsMoreThanWriteRemotely) {
  const LatencyCalculator calc(hw_, topo_);
  EXPECT_GT(calc.mpb_line_access(0, 47, true),
            calc.mpb_line_access(0, 47, false));
}

TEST_F(LatencyTest, FartherCoresCostMore) {
  const LatencyCalculator calc(hw_, topo_);
  EXPECT_LT(calc.mpb_line_access(0, 2, true),
            calc.mpb_line_access(0, 47, true));
}

TEST_F(LatencyTest, BulkPipelinesAfterFirstLine) {
  const LatencyCalculator calc(hw_, topo_);
  const SimTime one = calc.mpb_bulk(0, 47, 32, true);
  const SimTime four = calc.mpb_bulk(0, 47, 128, true);
  const double extra_ns = four.ns() - one.ns();
  EXPECT_NEAR(extra_ns, core_cc_ns(hw_, 3 * hw_.mpb_pipelined_line_core_cycles),
              0.01);
}

TEST_F(LatencyTest, BulkZeroBytesIsFree) {
  const LatencyCalculator calc(hw_, topo_);
  EXPECT_EQ(calc.mpb_bulk(0, 47, 0, true), SimTime::zero());
}

TEST_F(LatencyTest, BulkPartialLineRoundsUp) {
  const LatencyCalculator calc(hw_, topo_);
  EXPECT_EQ(calc.mpb_bulk(0, 47, 33, true), calc.mpb_bulk(0, 47, 64, true));
}

TEST_F(LatencyTest, WordStreamScalesPerWord) {
  const LatencyCalculator calc(hw_, topo_);
  const SimTime w1 = calc.mpb_word_stream(0, 0, 4, false);
  const SimTime w10 = calc.mpb_word_stream(0, 0, 40, false);
  EXPECT_NEAR(w10.ns(), 10 * w1.ns(), 0.01);
}

TEST_F(LatencyTest, WordStreamCheaperWithoutBug) {
  HwCostModel fixed = hw_;
  fixed.mpb_bug_workaround = false;
  const LatencyCalculator with_bug(hw_, topo_);
  const LatencyCalculator without(fixed, topo_);
  EXPECT_GT(with_bug.mpb_word_stream(0, 0, 96, false),
            without.mpb_word_stream(0, 0, 96, false));
}

TEST_F(LatencyTest, PrivAccessHitsAreCheap) {
  const LatencyCalculator calc(hw_, topo_);
  CacheAccessResult hits;
  hits.hits = 4;
  CacheAccessResult misses;
  misses.misses = 4;
  EXPECT_LT(calc.priv_access(0, hits), calc.priv_access(0, misses));
  EXPECT_NEAR(calc.priv_access(0, hits).ns(),
              core_cc_ns(hw_, 4 * hw_.cache_hit_core_cycles), 0.01);
}

TEST_F(LatencyTest, PrivMissIncludesDramAndMeshTerms) {
  const LatencyCalculator calc(hw_, topo_);
  CacheAccessResult one_miss;
  one_miss.misses = 1;
  const int d = topo_.hops_to_mc(0);
  const double want = core_cc_ns(hw_, hw_.dram_core_cycles) +
                      mesh_cc_ns(hw_, static_cast<double>(d) *
                                          hw_.dram_mesh_cycles_per_hop) +
                      hw_.dram_service_dram_cycles / hw_.dram_hz * 1e9;
  EXPECT_NEAR(calc.priv_access(0, one_miss).ns(), want, 0.01);
}

TEST(LatencyHelpers, LinesFor) {
  EXPECT_EQ(lines_for(0), 0u);
  EXPECT_EQ(lines_for(1), 1u);
  EXPECT_EQ(lines_for(32), 1u);
  EXPECT_EQ(lines_for(33), 2u);
  EXPECT_EQ(lines_for(5600), 175u);
}

TEST(LatencyHelpers, PartialLineDetection) {
  // 4 doubles (32 bytes) fill a line exactly -> no spike; 5 doubles spill.
  EXPECT_FALSE(has_partial_line(4 * sizeof(double)));
  EXPECT_TRUE(has_partial_line(5 * sizeof(double)));
  EXPECT_FALSE(has_partial_line(600 * sizeof(double)));
  EXPECT_TRUE(has_partial_line(601 * sizeof(double)));
}

}  // namespace
}  // namespace scc::mem
