// Open-loop traffic generator (harness/traffic.hpp), label: nbc.
//
// The schedule must be a pure function of the spec; every request's result
// is verified against the host reference inside run_traffic; and the whole
// point of the exercise -- the open-loop non-blocking drain finishing the
// same offered load sooner than the serialized blocking drain -- is pinned
// as a strict inequality.
#include <gtest/gtest.h>

#include <algorithm>

#include "harness/traffic.hpp"

namespace scc::harness {
namespace {

TrafficSpec small_spec() {
  TrafficSpec spec;
  spec.streams = 3;
  spec.requests_per_stream = 4;
  spec.elements = 24;
  spec.mean_interarrival = SimTime::from_us(30.0);
  spec.variant = PaperVariant::kLightweight;
  spec.lanes = 2;
  return spec;
}

TEST(TrafficSchedule, PureFunctionOfSpecAndSorted) {
  const TrafficSpec spec = small_spec();
  const auto a = traffic_schedule(spec, 8);
  const auto b = traffic_schedule(spec, 8);
  ASSERT_EQ(a.size(), 12u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].stream, b[i].stream);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].root, b[i].root);
  }
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end(),
                             [](const TrafficRequest& x,
                                const TrafficRequest& y) {
                               return x.arrival < y.arrival;
                             }));
  // Broadcast roots are per-stream, so concurrent broadcasts from
  // different tenants genuinely fan out from different cores.
  for (const TrafficRequest& r : a) {
    if (r.kind == Collective::kBroadcast) {
      EXPECT_EQ(r.root, r.stream % 8);
    }
  }
}

TEST(TrafficSchedule, DistinctSeedsDistinctSchedules) {
  TrafficSpec spec = small_spec();
  const auto a = traffic_schedule(spec, 8);
  spec.seed = 43;
  const auto b = traffic_schedule(spec, 8);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].arrival != b[i].arrival || a[i].kind != b[i].kind) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

class TrafficStacks : public ::testing::TestWithParam<PaperVariant> {};

// run_traffic verifies every request element-wise internally; this test's
// job is that the run completes (no cross-lane deadlock) and the probe is
// fully populated for every stack that can drive the open loop.
TEST_P(TrafficStacks, OpenLoopCompletesAndVerifies) {
  TrafficSpec spec = small_spec();
  spec.variant = GetParam();
  spec.lanes = spec.variant == PaperVariant::kBlocking ? 1 : 2;
  const TrafficResult result = run_traffic(spec);
  EXPECT_EQ(result.requests, 12u);
  EXPECT_EQ(result.latency.count(), 12u);
  EXPECT_EQ(result.latencies.size(), 12u);
  EXPECT_GT(result.makespan, SimTime::zero());
  EXPECT_GT(result.lines_sent, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Stacks, TrafficStacks,
    ::testing::Values(PaperVariant::kBlocking, PaperVariant::kIrcce,
                      PaperVariant::kLightweight,
                      PaperVariant::kLwBalanced),
    [](const auto& param_info) {
      std::string name(variant_name(param_info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(TrafficGen, SerializedBaselineCompletesAndVerifies) {
  TrafficSpec spec = small_spec();
  spec.serialize = true;
  const TrafficResult result = run_traffic(spec);
  EXPECT_EQ(result.latency.count(), 12u);
  EXPECT_GT(result.makespan, SimTime::zero());
}

// The headline claim: under a backlogged open-loop arrival process, the
// non-blocking engine overlaps queued collectives and finishes the offered
// load strictly sooner than the serialized blocking drain -- with lower
// mean sojourn latency, since queued requests stop paying full
// head-of-line blocking.
TEST(TrafficGen, OpenLoopBeatsSerializedDrain) {
  TrafficSpec spec;
  spec.streams = 4;
  spec.requests_per_stream = 6;
  spec.elements = 32;
  // Aggressive rate: mean interarrival well below one collective's service
  // time, so the queue genuinely builds up.
  spec.mean_interarrival = SimTime::from_us(20.0);
  spec.variant = PaperVariant::kLightweight;
  spec.lanes = 2;
  const TrafficResult nbc = run_traffic(spec);
  spec.serialize = true;
  const TrafficResult serial = run_traffic(spec);
  ASSERT_EQ(nbc.requests, serial.requests);
  EXPECT_LT(nbc.makespan, serial.makespan);
}

TEST(TrafficGen, RejectsOversizedMessagesForLaneChunk) {
  TrafficSpec spec = small_spec();
  spec.elements = 4096;  // 32 KiB/message >> any lane chunk
  spec.lanes = 4;
  EXPECT_THROW((void)run_traffic(spec), std::runtime_error);
}

TEST(TrafficGen, RejectsMultiLaneBlocking) {
  TrafficSpec spec = small_spec();
  spec.variant = PaperVariant::kBlocking;
  spec.lanes = 2;
  EXPECT_THROW((void)run_traffic(spec), std::runtime_error);
}

TEST(TrafficGen, RejectsNonRcceVariants) {
  TrafficSpec spec = small_spec();
  spec.variant = PaperVariant::kRckmpi;
  EXPECT_THROW((void)run_traffic(spec), std::runtime_error);
  spec.variant = PaperVariant::kMpb;
  EXPECT_THROW((void)run_traffic(spec), std::runtime_error);
}

}  // namespace
}  // namespace scc::harness
