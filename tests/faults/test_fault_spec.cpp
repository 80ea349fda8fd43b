// FaultSpec clause grammar: parse round-trips, canonical rendering, and
// rejection of malformed text (label: faults). Semantic validation (ranges,
// adjacency, connectivity) is noc::Topology::check's job -- see
// test_fault_model.cpp.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "faults/fault_spec.hpp"

namespace scc::faults {
namespace {

TEST(FaultSpec, EmptyStringIsEmptySpec) {
  const FaultSpec spec = FaultSpec::parse("");
  EXPECT_TRUE(spec.empty());
  EXPECT_EQ(spec.to_string(), "");
  EXPECT_EQ(spec, FaultSpec{});
}

TEST(FaultSpec, ParsesStraggler) {
  const FaultSpec spec = FaultSpec::parse("straggler:5x2.5");
  ASSERT_EQ(spec.stragglers.size(), 1u);
  EXPECT_EQ(spec.stragglers[0].core, 5);
  EXPECT_DOUBLE_EQ(spec.stragglers[0].factor, 2.5);
  EXPECT_FALSE(spec.empty());
}

TEST(FaultSpec, ParsesDvfs) {
  const FaultSpec spec = FaultSpec::parse("dvfs:17/2");
  ASSERT_EQ(spec.dvfs.size(), 1u);
  EXPECT_EQ(spec.dvfs[0].core, 17);
  EXPECT_EQ(spec.dvfs[0].divisor, 2);
}

TEST(FaultSpec, ParsesSlowLink) {
  const FaultSpec spec = FaultSpec::parse("slowlink:2,1-3,1x4");
  ASSERT_EQ(spec.slow_links.size(), 1u);
  EXPECT_EQ(spec.slow_links[0].link.a, (noc::TileCoord{2, 1}));
  EXPECT_EQ(spec.slow_links[0].link.b, (noc::TileCoord{3, 1}));
  EXPECT_DOUBLE_EQ(spec.slow_links[0].factor, 4.0);
}

TEST(FaultSpec, ParsesDeadLink) {
  const FaultSpec spec = FaultSpec::parse("deadlink:0,0-0,1");
  ASSERT_EQ(spec.dead_links.size(), 1u);
  EXPECT_EQ(spec.dead_links[0].a, (noc::TileCoord{0, 0}));
  EXPECT_EQ(spec.dead_links[0].b, (noc::TileCoord{0, 1}));
}

TEST(FaultSpec, ParsesCompoundSpecAndEmptyClausesAreSkipped) {
  const FaultSpec spec =
      FaultSpec::parse(";straggler:1x2;;dvfs:2/3;slowlink:0,0-1,0x8;");
  EXPECT_EQ(spec.stragglers.size(), 1u);
  EXPECT_EQ(spec.dvfs.size(), 1u);
  EXPECT_EQ(spec.slow_links.size(), 1u);
  EXPECT_TRUE(spec.dead_links.empty());
}

TEST(FaultSpec, ToStringRoundTripsExactly) {
  const char* texts[] = {
      "straggler:5x2.5",
      "dvfs:17/2",
      "slowlink:2,1-3,1x4",
      "deadlink:2,1-3,1",
      "straggler:14x2;dvfs:15/3;slowlink:2,1-3,1x4;deadlink:3,2-3,3",
  };
  for (const char* text : texts) {
    const FaultSpec spec = FaultSpec::parse(text);
    EXPECT_EQ(spec.to_string(), text);
    EXPECT_EQ(FaultSpec::parse(spec.to_string()), spec) << text;
  }
}

TEST(FaultSpec, RepeatedClausesOnOneTargetAreKept) {
  // Composition (multiplicative) is the topology's and the latency
  // calculator's semantics; the spec just records every clause in order.
  const FaultSpec spec = FaultSpec::parse("straggler:3x2;straggler:3x1.5");
  ASSERT_EQ(spec.stragglers.size(), 2u);
  EXPECT_DOUBLE_EQ(spec.stragglers[0].factor, 2.0);
  EXPECT_DOUBLE_EQ(spec.stragglers[1].factor, 1.5);
}

TEST(FaultSpec, RejectsMalformedText) {
  const std::string huge_factor = "straggler:3x" + std::string(400, '9');
  const std::string bad[] = {
      "bogus",                   // no kind separator
      "warp:1x2",                // unknown kind
      "straggler:x2",            // missing core
      "straggler:5",             // missing factor
      "straggler:5x2garbage",    // trailing junk
      "dvfs:5x2",                // wrong separator
      "dvfs:5/",                 // missing divisor
      "slowlink:2,1-3,1",        // missing factor
      "slowlink:2,1x4",          // missing second tile
      "deadlink:2,1-3",          // truncated coordinate
      "deadlink:2,1-3,1x2",      // factor on a dead link
      "straggler:5 x2",          // embedded whitespace
      "straggler:99999999999x2",     // core id overflows an int
      "dvfs:1/99999999999",          // divisor overflows an int
      "deadlink:2,1-99999999999,1",  // coordinate overflows an int
      "straggler:3x.",               // factor without digits
      "straggler:3x-",               // factor without digits
      huge_factor,                   // factor overflows a double
      "slowlink:2,1-3,1x.",          // factor without digits
  };
  for (const std::string& text : bad) {
    EXPECT_THROW((void)FaultSpec::parse(text), std::runtime_error) << text;
  }
}

}  // namespace
}  // namespace scc::faults
