// End-to-end observability invariants:
//   1. enabling the flight recorder / histograms changes NO simulated
//      result byte (sampling on vs off, same machine);
//   2. every exported observability artifact -- timeseries CSV/JSON,
//      histogram JSON, bench-table JSON with its histogram block -- is
//      byte-identical for any host --jobs value.
// These are the contracts that keep the instrumentation safe to leave on
// in CI: it can never perturb a baseline and never makes output depend on
// the host's parallelism.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "harness/conformance.hpp"
#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "metrics/histogram.hpp"
#include "trace/recorder.hpp"

namespace scc::harness {
namespace {

RunSpec small_run() {
  RunSpec spec;
  spec.collective = Collective::kAllreduce;
  spec.variant = PaperVariant::kLwBalanced;
  spec.elements = 96;
  spec.repetitions = 3;
  spec.warmup = 1;
  spec.capture_outputs = true;
  spec.collect_metrics = true;
  return spec;
}

std::string metrics_json_of(const RunResult& result) {
  std::ostringstream os;
  result.metrics->write_json(os);
  return os.str();
}

TEST(ObsIdentical, SamplingChangesNoSimulatedResultByte) {
  const RunResult off = run_collective(small_run());

  RunSpec sampled = small_run();
  sampled.sample_interval = SimTime::from_us(1.0);
  const RunResult on = run_collective(sampled);

  EXPECT_EQ(off.mean_latency, on.mean_latency);
  EXPECT_EQ(off.latencies, on.latencies);
  EXPECT_EQ(off.events, on.events);
  EXPECT_EQ(off.lines_sent, on.lines_sent);
  EXPECT_EQ(off.line_hops, on.line_hops);
  EXPECT_EQ(off.outputs, on.outputs);
  EXPECT_EQ(metrics_json_of(off), metrics_json_of(on));
  // And the sampled run actually produced a series.
  ASSERT_TRUE(on.timeseries.has_value());
  EXPECT_FALSE(off.timeseries.has_value());
  EXPECT_GT(on.timeseries->rows.size(), 0u);
}

TEST(ObsIdentical, SweepHistogramsAreByteIdenticalAcrossJobs) {
  const auto run = [](int jobs) {
    SweepSpec spec;
    spec.collective = Collective::kAllreduce;
    spec.from = 64;
    spec.to = 96;
    spec.step = 16;
    spec.repetitions = 2;
    spec.warmup = 0;
    spec.jobs = jobs;
    return run_sweep(spec);
  };
  const SweepResult serial = run(1);
  ASSERT_FALSE(serial.histograms.empty());
  EXPECT_GT(serial.histograms.front().count(), 0u);

  const SweepResult parallel = run(8);
  ASSERT_EQ(serial.histograms.size(), parallel.histograms.size());
  for (std::size_t v = 0; v < serial.histograms.size(); ++v) {
    std::ostringstream a;
    std::ostringstream b;
    serial.histograms[v].write_json_us(a);
    parallel.histograms[v].write_json_us(b);
    EXPECT_EQ(a.str(), b.str()) << "variant index " << v;
  }
  // The bench table itself stays identical too (histograms ride along).
  std::ostringstream ta;
  std::ostringstream tb;
  serial.to_table().write_json(ta, "sweep");
  parallel.to_table().write_json(tb, "sweep");
  EXPECT_EQ(ta.str(), tb.str());
}

TEST(ObsIdentical, ConformanceHistogramsAreByteIdenticalAcrossJobs) {
  const auto run = [](int jobs) {
    ConformanceSpec spec;
    spec.collective = Collective::kAllreduce;
    spec.elements = 64;
    spec.perturb_seeds = 4;
    spec.jobs = jobs;
    return run_conformance(spec);
  };
  const ConformanceReport serial = run(1);
  const ConformanceReport parallel = run(8);
  ASSERT_EQ(serial.latency_histograms.size(),
            parallel.latency_histograms.size());
  ASSERT_FALSE(serial.latency_histograms.empty());
  for (std::size_t s = 0; s < serial.latency_histograms.size(); ++s) {
    EXPECT_GT(serial.latency_histograms[s].count(), 0u);
    std::ostringstream a;
    std::ostringstream b;
    serial.latency_histograms[s].write_json_us(a);
    parallel.latency_histograms[s].write_json_us(b);
    EXPECT_EQ(a.str(), b.str()) << "stack index " << s;
  }
}

TEST(ObsIdentical, TraceDropCountSurfacesInMetricsSnapshot) {
  // Satellite: a recorder at capacity must not fail silently -- the drop
  // count lands in the metrics snapshot under trace/dropped_events.
  trace::Recorder tiny(/*capacity=*/16);
  RunSpec spec = small_run();
  spec.trace = &tiny;
  const RunResult result = run_collective(spec);
  ASSERT_TRUE(result.metrics.has_value());
  EXPECT_GT(tiny.dropped(), 0u);
  const std::string json = metrics_json_of(result);
  EXPECT_NE(json.find("trace/dropped_events"), std::string::npos);
}

}  // namespace
}  // namespace scc::harness
