// Determinism-by-merge-order, end to end: every artifact a parallel run
// produces -- sweep CSV/JSON bytes, conformance verdicts, scc-metrics-v1
// snapshots -- must be byte-identical between --jobs=1 and --jobs=8. This
// is the contract that makes host parallelism invisible to baselines,
// regression gates and paper figures (src/exec/executor.hpp).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "harness/conformance.hpp"
#include "harness/sweep.hpp"

namespace scc::harness {
namespace {

std::string csv_of(const SweepResult& result) {
  std::ostringstream os;
  result.to_table().write_csv(os);
  return os.str();
}

std::string json_of(const SweepResult& result) {
  std::ostringstream os;
  result.to_table().write_json(os, "sweep");
  return os.str();
}

std::string metrics_json_of(const metrics::MetricsRegistry& registry) {
  std::ostringstream os;
  registry.write_json(os);
  return os.str();
}

SweepSpec small_sweep(int jobs) {
  SweepSpec spec;
  spec.run.collective = Collective::kAllreduce;
  spec.from = 48;
  spec.to = 96;
  spec.step = 24;
  spec.run.repetitions = 1;
  spec.run.warmup = 0;
  spec.run.verify = false;
  spec.run.collect_metrics = true;
  spec.jobs = jobs;
  return spec;
}

TEST(ParallelIdentical, SweepArtifactsAreByteIdenticalAcrossJobs) {
  const SweepResult serial = run_sweep(small_sweep(1));
  const SweepResult parallel = run_sweep(small_sweep(8));

  EXPECT_EQ(csv_of(serial), csv_of(parallel));
  EXPECT_EQ(json_of(serial), json_of(parallel));
  // The absorbed per-point metrics snapshot (counter paths AND values,
  // including absorption order) must match too -- it feeds --metrics files.
  EXPECT_EQ(metrics_json_of(serial.metrics),
            metrics_json_of(parallel.metrics));
  ASSERT_EQ(serial.variants.size(), parallel.variants.size());
  EXPECT_EQ(serial.mean_speedup_vs_blocking(PaperVariant::kLwBalanced),
            parallel.mean_speedup_vs_blocking(PaperVariant::kLwBalanced));
}

TEST(ParallelIdentical, SweepAutoJobsMatchesSerial) {
  // jobs=0 resolves to hardware concurrency -- whatever that is on the
  // host, the bytes must not change.
  const SweepResult serial = run_sweep(small_sweep(1));
  const SweepResult auto_jobs = run_sweep(small_sweep(0));
  EXPECT_EQ(csv_of(serial), csv_of(auto_jobs));
}

ConformanceSpec small_conformance(int jobs) {
  ConformanceSpec spec;
  spec.run.collective = Collective::kAllreduce;
  spec.run.elements = 48;
  spec.run.config.tiles_x = 2;
  spec.run.config.tiles_y = 1;
  spec.perturb_seeds = 4;
  spec.jobs = jobs;
  return spec;
}

TEST(ParallelIdentical, ConformanceReportIsIdenticalAcrossJobs) {
  const ConformanceReport serial = run_conformance(small_conformance(1));
  const ConformanceReport parallel = run_conformance(small_conformance(8));

  EXPECT_EQ(serial.runs, parallel.runs);
  EXPECT_EQ(serial.summary(), parallel.summary());
  ASSERT_EQ(serial.failures.size(), parallel.failures.size());
  for (std::size_t i = 0; i < serial.failures.size(); ++i)
    EXPECT_EQ(serial.failures[i].replay(), parallel.failures[i].replay());
  ASSERT_TRUE(serial.baseline_metrics.has_value());
  ASSERT_TRUE(parallel.baseline_metrics.has_value());
  EXPECT_EQ(metrics_json_of(*serial.baseline_metrics),
            metrics_json_of(*parallel.baseline_metrics));
}

}  // namespace
}  // namespace scc::harness
