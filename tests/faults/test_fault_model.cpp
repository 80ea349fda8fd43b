// The fault model, i.e. how a FaultSpec degrades the machine, checked on
// its two owners (label: faults): noc::Topology's routes, link factors and
// weighted hop lengths under link clauses, mem::LatencyCalculator's
// per-core factors under core clauses, the one validator
// (Topology::check), and SCC_EXPECTS contract death of both constructors
// on specs it rejects.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <span>
#include <vector>

#include "faults/fault_spec.hpp"
#include "mem/latency.hpp"
#include "noc/topology.hpp"

namespace scc::faults {
namespace {

using noc::CoreId;
using noc::LinkId;
using noc::TileCoord;
using noc::Topology;

/// Dimension-ordered XY route between two tiles, built independently of
/// the topology's table.
std::vector<LinkId> xy_route(TileCoord cur, TileCoord dst) {
  std::vector<LinkId> links;
  while (cur.x != dst.x) {
    const TileCoord next{cur.x + (dst.x > cur.x ? 1 : -1), cur.y};
    links.push_back({cur, next});
    cur = next;
  }
  while (cur.y != dst.y) {
    const TileCoord next{cur.x, cur.y + (dst.y > cur.y ? 1 : -1)};
    links.push_back({cur, next});
    cur = next;
  }
  return links;
}

/// The links of a route, from their indices.
std::vector<LinkId> links_of(const Topology& topo,
                             std::span<const std::uint32_t> route) {
  std::vector<LinkId> links;
  for (const std::uint32_t link : route) links.push_back(topo.link(link));
  return links;
}

TEST(FaultModel, EmptySpecIsTheHealthyMachine) {
  const Topology topo(3, 2, 2, FaultSpec{});
  for (CoreId a = 0; a < topo.num_cores(); ++a) {
    for (CoreId b = 0; b < topo.num_cores(); ++b) {
      const TileCoord ca = topo.coord_of(a);
      const TileCoord cb = topo.coord_of(b);
      EXPECT_EQ(links_of(topo, topo.route(a, b)), xy_route(ca, cb));
      EXPECT_DOUBLE_EQ(topo.weighted_hops(a, b),
                       std::abs(ca.x - cb.x) + std::abs(ca.y - cb.y));
      for (const std::uint32_t link : topo.route(a, b)) {
        EXPECT_DOUBLE_EQ(topo.link_factor(link), 1.0);
      }
    }
  }
  const mem::HwCostModel hw;
  const mem::LatencyCalculator calc(hw, topo, FaultSpec{});
  for (CoreId core = 0; core < topo.num_cores(); ++core) {
    EXPECT_EQ(calc.core_cycles(1000, core), hw.core_clock().cycles(1000));
  }
}

TEST(FaultModel, StragglerAndDvfsComposeMultiplicatively) {
  const Topology topo(3, 2);
  const mem::HwCostModel hw;
  const mem::LatencyCalculator calc(
      hw, topo, FaultSpec::parse("straggler:5x2.5;dvfs:5/2;dvfs:3/3"));
  const SimTime base = hw.core_clock().cycles(1000);
  EXPECT_EQ(calc.core_cycles(1000, 5), scaled(base, 2.5 * 2.0));
  EXPECT_EQ(calc.core_cycles(1000, 3), scaled(base, 3.0));
  EXPECT_EQ(calc.core_cycles(1000, 0), base);
}

TEST(FaultModel, SlowLinkAppliesToBothDirectionsAndComposes) {
  const Topology topo(
      3, 2, 2, FaultSpec::parse("slowlink:0,0-1,0x4;slowlink:1,0-0,0x2"));
  // Either naming order targets the same physical channel; repeated clauses
  // compose multiplicatively on both directed links.
  const auto factor = [&](LinkId link) {
    return topo.link_factor(topo.link_index(link));
  };
  EXPECT_DOUBLE_EQ(factor({{0, 0}, {1, 0}}), 8.0);
  EXPECT_DOUBLE_EQ(factor({{1, 0}, {0, 0}}), 8.0);
  EXPECT_DOUBLE_EQ(factor({{1, 0}, {2, 0}}), 1.0);
  // Slow links never change paths, only their weight.
  EXPECT_EQ(links_of(topo, topo.route(0, 2)), xy_route({0, 0}, {1, 0}));
  EXPECT_DOUBLE_EQ(topo.weighted_hops(0, 2), 8.0);  // one hop at composed 8x
}

TEST(FaultModel, WeightedHopsSumLinkFactorsAlongTheRoute) {
  const Topology topo(3, 2, 2, FaultSpec::parse("slowlink:0,0-1,0x4"));
  // Core 0 (tile 0,0) to core 4 (tile 2,0): two hops, the first at 4x.
  EXPECT_DOUBLE_EQ(topo.weighted_hops(0, 4), 4.0 + 1.0);
  // Same tile: no hops.
  EXPECT_DOUBLE_EQ(topo.weighted_hops(0, 1), 0.0);
  // The paths to the memory controllers weigh the same way: tile (1,0)
  // reaches its controller at router (0,0) over the slow link, tile (0,1)
  // over a healthy one.
  EXPECT_DOUBLE_EQ(topo.weighted_hops_to_mc(2), 4.0);
  EXPECT_DOUBLE_EQ(topo.weighted_hops_to_mc(6), 1.0);
}

TEST(FaultModel, DeadLinkReroutesMinimallyAndDeterministically) {
  const Topology topo(2, 2, 2, FaultSpec::parse("deadlink:0,0-1,0"));
  // Tile (0,0) to tile (1,0): the direct hop is dead, so the minimal
  // surviving route detours through row 1 (3 hops), in both directions.
  const auto forward = links_of(topo, topo.route(0, 2));  // tiles 0 -> 1
  const auto backward = links_of(topo, topo.route(2, 0));
  ASSERT_EQ(forward.size(), 3u);
  ASSERT_EQ(backward.size(), 3u);
  const LinkId dead_fwd{{0, 0}, {1, 0}};
  const LinkId dead_bwd{{1, 0}, {0, 0}};
  for (const LinkId& l : forward) {
    EXPECT_FALSE(l == dead_fwd || l == dead_bwd);
  }
  // Routes are contiguous walks from source router to destination router.
  EXPECT_EQ(forward.front().from, (TileCoord{0, 0}));
  EXPECT_EQ(forward.back().to, (TileCoord{1, 0}));
  for (std::size_t i = 1; i < forward.size(); ++i) {
    EXPECT_EQ(forward[i].from, forward[i - 1].to);
  }
  EXPECT_DOUBLE_EQ(topo.weighted_hops(0, 2), 3.0);
  // Pairs with a surviving same-length alternative stay at Manhattan
  // distance: (0,0) -> (1,1) can route via (0,1).
  EXPECT_DOUBLE_EQ(topo.weighted_hops(0, 6), 2.0);

  // The table is a pure function of (shape, spec).
  const Topology again(2, 2, 2, FaultSpec::parse("deadlink:0,0-1,0"));
  for (CoreId a = 0; a < topo.num_cores(); ++a) {
    for (CoreId b = 0; b < topo.num_cores(); ++b) {
      EXPECT_EQ(links_of(topo, topo.route(a, b)),
                links_of(again, again.route(a, b)));
    }
  }
}

TEST(FaultModel, WeightedHopsToMatchesMcDistanceOnHealthyMesh) {
  const Topology topo(6, 4, 2, FaultSpec{});
  for (CoreId core = 0; core < topo.num_cores(); ++core) {
    const TileCoord c = topo.coord_of(core);
    const TileCoord mc = topo.mc_coord(topo.mc_of(core));
    EXPECT_DOUBLE_EQ(topo.weighted_hops_to_mc(core),
                     std::abs(c.x - mc.x) + std::abs(c.y - mc.y))
        << "core " << core;
  }
}

TEST(FaultModel, CheckReportsTheFirstProblem) {
  const auto check = [](const char* text) {
    return Topology::check(3, 2, 2, FaultSpec::parse(text));
  };
  EXPECT_FALSE(check("").has_value());
  EXPECT_FALSE(check("straggler:11x2").has_value());
  const struct {
    const char* text;
    const char* why;
  } bad[] = {
      {"straggler:12x2", "out of range"},     // cores are 0..11 on 3x2
      {"straggler:3x0.5", "factor"},          // speedups are not faults
      {"dvfs:3/0", "divisor"},                // zero frequency
      {"slowlink:0,0-2,0x2", "adjacent"},     // not neighbours
      {"slowlink:0,0-0,2x2", "mesh"},         // tile (0,2) off a 3x2 mesh
      {"deadlink:0,0-1,0;deadlink:0,1-1,1;deadlink:0,0-0,1", "disconnect"},
  };
  for (const auto& c : bad) {
    const auto err = check(c.text);
    ASSERT_TRUE(err.has_value()) << c.text;
    EXPECT_NE(err->find(c.why), std::string::npos)
        << c.text << " -> " << *err;
  }
}

using FaultModelDeathTest = ::testing::Test;

TEST(FaultModelDeathTest, ConstructorEnforcesCheckWithContracts) {
  // Every condition check() reports is an SCC_EXPECTS precondition of the
  // Topology constructor, and the core clauses of LatencyCalculator's:
  // malformed --faults= specs that slip past the CLI guard die loudly
  // instead of simulating a nonsense machine.
  const auto topology = [](const char* text) {
    return Topology(3, 2, 2, FaultSpec::parse(text));
  };
  EXPECT_DEATH(topology("straggler:99x2"), "precondition");
  EXPECT_DEATH(topology("straggler:0x0.5"), "precondition");
  EXPECT_DEATH(topology("dvfs:0/0"), "precondition");
  EXPECT_DEATH(topology("slowlink:0,0-2,0x2"), "precondition");
  EXPECT_DEATH(topology("deadlink:0,0-5,5"), "precondition");
  // A 2x1 mesh has a single link: killing it disconnects the tile graph.
  EXPECT_DEATH(Topology(2, 1, 2, FaultSpec::parse("deadlink:0,0-1,0")),
               "precondition");

  const Topology topo(3, 2);
  const mem::HwCostModel hw;
  const auto latency = [&](const char* text) {
    return mem::LatencyCalculator(hw, topo, FaultSpec::parse(text));
  };
  EXPECT_DEATH(latency("straggler:99x2"), "precondition");
  EXPECT_DEATH(latency("straggler:0x0.5"), "precondition");
  EXPECT_DEATH(latency("dvfs:0/0"), "precondition");
}

}  // namespace
}  // namespace scc::faults
