// Checks the latency calculator against the documented SCC formulas
// (paper Section IV-D and the SCC Programmer's Guide values), and its
// per-machine tables against the per-call formulas they replaced.
#include "mem/latency.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

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
  // Core 47 sits on tile (5,3), one hop from its controller's router
  // (5,2); core 0's controller is on its own router, which would leave the
  // mesh term at zero.
  const double d = 1.0;
  const double want = core_cc_ns(hw_, hw_.dram_core_cycles) +
                      mesh_cc_ns(hw_, d * hw_.dram_mesh_cycles_per_hop) +
                      hw_.dram_service_dram_cycles / hw_.dram_hz * 1e9;
  EXPECT_NEAR(calc.priv_access(47, one_miss).ns(), want, 0.01);
}

// The per-call formulas that LatencyCalculator's tables replaced, kept as
// the reference the exhaustive test below holds it to: every term is
// computed on each call from the topology's weighted hop lengths and the
// core's straggler x DVFS factor.
class ReferenceLatency {
 public:
  ReferenceLatency(const HwCostModel& hw, const noc::Topology& topo,
                   const faults::FaultSpec& faults)
      : hw_(&hw),
        topo_(&topo),
        core_factor_(static_cast<std::size_t>(topo.num_cores()), 1.0) {
    for (const faults::Straggler& f : faults.stragglers) {
      core_factor_[static_cast<std::size_t>(f.core)] *= f.factor;
    }
    for (const faults::Dvfs& f : faults.dvfs) {
      core_factor_[static_cast<std::size_t>(f.core)] *= f.divisor;
    }
  }

  SimTime mpb_line_access(int accessor, int mpb_owner, bool is_read) const {
    const Clock core = hw_->core_clock();
    const Clock mesh = hw_->mesh_clock();
    if (topo_->tile_of(accessor) == topo_->tile_of(mpb_owner)) {
      if (hw_->mpb_bug_workaround) {
        return scale_core(core.cycles(hw_->mpb_local_bug_core_cycles),
                          accessor) +
               mesh.cycles(hw_->mpb_local_bug_mesh_cycles);
      }
      return scale_core(core.cycles(hw_->mpb_local_core_cycles), accessor);
    }
    const double hops = topo_->weighted_hops(accessor, mpb_owner);
    const double directions = is_read ? 2.0 : 1.0;
    return scale_core(core.cycles(hw_->mpb_remote_core_cycles), accessor) +
           fractional_cycles(mesh,
                             directions * hops * hw_->mesh_cycles_per_hop);
  }

  SimTime mpb_bulk(int accessor, int mpb_owner, std::size_t bytes,
                   bool is_read) const {
    if (bytes == 0) return SimTime::zero();
    const std::uint64_t lines = lines_for(bytes);
    SimTime t = mpb_line_access(accessor, mpb_owner, is_read);
    if (lines > 1) {
      t += scale_core(hw_->core_clock().cycles(
                          (lines - 1) * hw_->mpb_pipelined_line_core_cycles),
                      accessor);
    }
    return t;
  }

  SimTime mpb_word_stream(int accessor, int mpb_owner, std::size_t bytes,
                          bool is_read) const {
    if (bytes == 0) return SimTime::zero();
    const std::uint64_t words = (bytes + 3) / 4;
    const Clock core = hw_->core_clock();
    const Clock mesh = hw_->mesh_clock();
    if (topo_->tile_of(accessor) == topo_->tile_of(mpb_owner)) {
      if (hw_->mpb_bug_workaround) {
        return scale_core(
                   core.cycles(words * hw_->mpb_word_local_bug_core_cycles),
                   accessor) +
               mesh.cycles(words * hw_->mpb_local_bug_mesh_cycles);
      }
      return scale_core(core.cycles(words * hw_->mpb_word_local_core_cycles),
                        accessor);
    }
    const double hops = topo_->weighted_hops(accessor, mpb_owner);
    const double directions = is_read ? 2.0 : 1.0;
    return scale_core(core.cycles(words * hw_->mpb_word_remote_core_cycles),
                      accessor) +
           fractional_cycles(mesh, static_cast<double>(words) * directions *
                                       hops * hw_->mesh_cycles_per_hop);
  }

  SimTime priv_access(int core, const CacheAccessResult& r) const {
    const Clock core_clk = hw_->core_clock();
    const Clock mesh = hw_->mesh_clock();
    const Clock dram = hw_->dram_clock();
    const double mc_hops = topo_->weighted_hops_to_mc(core);
    SimTime t =
        scale_core(core_clk.cycles(r.hits * hw_->cache_hit_core_cycles), core);
    const std::uint64_t dram_lines = r.misses + r.uncached_writes;
    if (dram_lines > 0) {
      t += scale_core(core_clk.cycles(hw_->dram_core_cycles), core) +
           fractional_cycles(mesh, mc_hops * hw_->dram_mesh_cycles_per_hop) +
           dram.cycles(hw_->dram_service_dram_cycles);
      t += scale_core(core_clk.cycles((dram_lines - 1) *
                                      hw_->dram_pipelined_line_core_cycles),
                      core);
    }
    t += scale_core(
        core_clk.cycles(r.writebacks * hw_->cache_write_core_cycles), core);
    return t;
  }

 private:
  static SimTime fractional_cycles(const Clock& clock, double cycles) {
    const long double fs = static_cast<long double>(cycles) *
                           (1e15L / static_cast<long double>(clock.hz()));
    return SimTime{static_cast<std::uint64_t>(fs)};
  }
  SimTime scale_core(SimTime t, int core) const {
    return scaled(t, core_factor_[static_cast<std::size_t>(core)]);
  }

  const HwCostModel* hw_;
  const noc::Topology* topo_;
  std::vector<double> core_factor_;
};

/// Every query of the calculator against the reference, for every
/// (accessor, owner, is_read) of the mesh, to the femtosecond.
void expect_matches_reference(int tiles_x, int tiles_y, const char* faults,
                              const HwCostModel& hw) {
  SCOPED_TRACE(std::to_string(tiles_x) + "x" + std::to_string(tiles_y) +
               " faults='" + faults + "' bug_workaround=" +
               std::to_string(hw.mpb_bug_workaround));
  const faults::FaultSpec spec = faults::FaultSpec::parse(faults);
  const noc::Topology topo(tiles_x, tiles_y, 2, spec);
  const LatencyCalculator calc(hw, topo, spec);
  const ReferenceLatency ref(hw, topo, spec);
  const int p = topo.num_cores();
  const std::size_t kBulkBytes[] = {0, 1, 32, 33, 8192};
  const std::size_t kWordBytes[] = {0, 4, 5, 4416};
  const CacheAccessResult accesses[] = {
      {0, 0, 0, 0}, {7, 0, 0, 0}, {0, 1, 0, 0},
      {0, 0, 0, 1}, {3, 5, 2, 4}, {138, 138, 17, 0}};
  for (int core = 0; core < p; ++core) {
    for (const CacheAccessResult& r : accesses) {
      ASSERT_EQ(calc.priv_access(core, r).femtoseconds(),
                ref.priv_access(core, r).femtoseconds())
          << "core " << core;
    }
  }
  for (int a = 0; a < p; ++a) {
    for (int b = 0; b < p; ++b) {
      for (const bool is_read : {false, true}) {
        ASSERT_EQ(calc.mpb_line_access(a, b, is_read).femtoseconds(),
                  ref.mpb_line_access(a, b, is_read).femtoseconds())
            << a << " -> " << b << " read=" << is_read;
        for (const std::size_t bytes : kBulkBytes) {
          ASSERT_EQ(calc.mpb_bulk(a, b, bytes, is_read).femtoseconds(),
                    ref.mpb_bulk(a, b, bytes, is_read).femtoseconds())
              << a << " -> " << b << " read=" << is_read << " " << bytes
              << " B";
        }
        for (const std::size_t bytes : kWordBytes) {
          ASSERT_EQ(calc.mpb_word_stream(a, b, bytes, is_read).femtoseconds(),
                    ref.mpb_word_stream(a, b, bytes, is_read).femtoseconds())
              << a << " -> " << b << " read=" << is_read << " " << bytes
              << " B";
        }
      }
    }
  }
}

TEST(LatencyTables, MatchPerCallFormulasOnEveryMachine) {
  HwCostModel hw;
  HwCostModel fixed_mpb;
  fixed_mpb.mpb_bug_workaround = false;
  for (const HwCostModel* model : {&hw, &fixed_mpb}) {
    for (const char* faults :
         {"", "straggler:5x2.5;straggler:5x1.1", "dvfs:7/2;dvfs:46/3",
          "straggler:9x1.75;dvfs:9/2",
          "slowlink:1,0-2,0x3.5;slowlink:0,2-0,3x1.25",
          "deadlink:2,1-3,1;deadlink:0,0-1,0",
          "straggler:0x3;dvfs:47/4;slowlink:5,2-5,3x2.2;deadlink:2,2-2,3"}) {
      expect_matches_reference(6, 4, faults, *model);
    }
    expect_matches_reference(2, 2, "", *model);
    expect_matches_reference(2, 2, "straggler:1x1.5;slowlink:0,0-0,1x3",
                             *model);
    expect_matches_reference(127, 1, "", *model);
  }
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
