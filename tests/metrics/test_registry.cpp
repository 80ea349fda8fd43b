#include "metrics/registry.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "harness/runner.hpp"
#include "machine/scc_machine.hpp"
#include "metrics/collect.hpp"

namespace scc::metrics {
namespace {

TEST(Registry, SetOverwritesAndLooksUp) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  reg.set("a/b", 7, Unit::kBytes, /*invariant=*/true);
  reg.set("a/b", 9, Unit::kBytes, /*invariant=*/true);  // overwrite
  reg.set("a/c", 1);
  EXPECT_EQ(reg.size(), 2u);
  ASSERT_NE(reg.find("a/b"), nullptr);
  EXPECT_EQ(reg.find("a/b")->value, 9u);
  EXPECT_EQ(reg.find("a/b")->unit, Unit::kBytes);
  EXPECT_TRUE(reg.find("a/b")->invariant);
  EXPECT_EQ(reg.find("missing"), nullptr);
  EXPECT_EQ(reg.value_or("a/c"), 1u);
  EXPECT_EQ(reg.value_or("missing", 42), 42u);
}

TEST(Registry, SetTimeStoresFemtoseconds) {
  MetricsRegistry reg;
  reg.set_time("t", SimTime::from_ns(2));
  ASSERT_NE(reg.find("t"), nullptr);
  EXPECT_EQ(reg.find("t")->value, 2'000'000u);
  EXPECT_EQ(reg.find("t")->unit, Unit::kFemtoseconds);
}

TEST(Registry, AbsorbPrefixesEveryEntry) {
  MetricsRegistry point;
  point.set("run/lines", 5, Unit::kCount, /*invariant=*/true);
  point.set("run/latency_fs", 99, Unit::kFemtoseconds);
  MetricsRegistry sweep;
  sweep.set("points", 1);
  sweep.absorb(point, "point/552/");
  EXPECT_EQ(sweep.size(), 3u);
  EXPECT_EQ(sweep.value_or("point/552/run/lines"), 5u);
  ASSERT_NE(sweep.find("point/552/run/lines"), nullptr);
  EXPECT_TRUE(sweep.find("point/552/run/lines")->invariant);
}

TEST(Registry, DiffInvariantIgnoresVariantEntries) {
  MetricsRegistry a, b;
  a.set("vol", 10, Unit::kCount, /*invariant=*/true);
  b.set("vol", 10, Unit::kCount, /*invariant=*/true);
  a.set("time", 123, Unit::kFemtoseconds, /*invariant=*/false);
  b.set("time", 456, Unit::kFemtoseconds, /*invariant=*/false);
  EXPECT_TRUE(MetricsRegistry::diff_invariant(a, b).empty());
}

TEST(Registry, DiffInvariantReportsDriftAndMissingBothWays) {
  MetricsRegistry a, b;
  a.set("vol", 10, Unit::kCount, /*invariant=*/true);
  b.set("vol", 11, Unit::kCount, /*invariant=*/true);
  a.set("only_a", 1, Unit::kCount, /*invariant=*/true);
  b.set("only_b", 1, Unit::kCount, /*invariant=*/true);
  const std::vector<std::string> diff = MetricsRegistry::diff_invariant(a, b);
  EXPECT_EQ(diff.size(), 3u);
}

TEST(Registry, JsonRoundTripsThroughParser) {
  // The whole document, byte for byte: the escaped label, the schema tag,
  // and the entries in path order with unit, class and exact value.
  MetricsRegistry reg;
  reg.set_label("test \"label\"");
  reg.set("run/lines_sent", 1234, Unit::kCount, /*invariant=*/true);
  reg.set_time("run/mean_latency_fs", SimTime::from_ns(3));
  std::ostringstream os;
  reg.write_json(os);
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"schema\": \"scc-metrics-v1\",\n"
            "  \"label\": \"test \\\"label\\\"\",\n"
            "  \"metrics\": {\n"
            "    \"run/lines_sent\": {\"unit\": \"count\", "
            "\"invariant\": true, \"value\": 1234},\n"
            "    \"run/mean_latency_fs\": {\"unit\": \"fs\", "
            "\"invariant\": false, \"value\": 3000000}\n"
            "  }\n"
            "}\n");
}

// --- machine snapshot: cache counters -----------------------------------

sim::Task<> sweep_program(machine::CoreApi& api, const std::vector<double>* buf) {
  co_await api.priv_read(buf->data(), buf->size() * sizeof(double));
  co_await api.priv_read(buf->data(), buf->size() * sizeof(double));
}

TEST(Collect, PinsColdFootprintMissCountsForKnownSweep) {
  machine::SccConfig config;
  config.tiles_x = 2;
  config.tiles_y = 2;  // 8 cores
  machine::SccMachine machine(config);
  // 256 doubles = 2048 bytes = exactly 64 cache lines. The first sweep
  // misses once per line (cold footprint); the second hits every line.
  std::vector<double> buf(256);
  machine.launch(0, sweep_program(machine.core(0), &buf));
  machine.run();

  MetricsRegistry reg;
  collect_machine(machine, reg);
  EXPECT_EQ(reg.value_or("core/0/cache/misses"), 64u);
  EXPECT_EQ(reg.value_or("core/0/cache/hits"), 64u);
  EXPECT_EQ(reg.value_or("core/1/cache/misses"), 0u);
  // Volume-type counters are classified invariant (seed-independent).
  ASSERT_NE(reg.find("core/0/cache/misses"), nullptr);
  EXPECT_TRUE(reg.find("core/0/cache/misses")->invariant);
  // Reads only: no dirty lines, no writebacks.
  EXPECT_EQ(reg.value_or("core/0/cache/writebacks"), 0u);
}

// The RCKMPI channel moves each message in bursts bounded by its
// flow-control credits, one flag set and one window per crossed link per
// burst, so those two counters are time-type in RCKMPI runs only.
TEST(Collect, FlagSetsAndLinkWindowsAreTimeTypeForRckmpiOnly) {
  harness::RunSpec spec;
  spec.collective = harness::Collective::kAlltoall;
  spec.elements = 100;
  spec.repetitions = 1;
  spec.warmup = 0;
  spec.collect_metrics = true;
  spec.config.tiles_x = 3;
  spec.config.tiles_y = 2;
  spec.config.cost.hw.model_link_contention = true;
  for (const harness::PaperVariant v :
       {harness::PaperVariant::kRckmpi, harness::PaperVariant::kLightweight}) {
    spec.variant = v;
    const harness::RunResult r = harness::run_collective(spec);
    ASSERT_TRUE(r.metrics.has_value());
    const bool rckmpi = v == harness::PaperVariant::kRckmpi;
    int windows = 0;
    for (const auto& [path, metric] : r.metrics->entries()) {
      if (path == "flags/sets" ||
          (path.starts_with("noc/link/") && path.ends_with("/windows"))) {
        EXPECT_EQ(metric.invariant, !rckmpi) << path;
        windows += path.ends_with("/windows") ? 1 : 0;
      }
    }
    EXPECT_GT(windows, 0);
    ASSERT_NE(r.metrics->find("flags/sets"), nullptr);
    ASSERT_NE(r.metrics->find("noc/lines_sent"), nullptr);
    EXPECT_TRUE(r.metrics->find("noc/lines_sent")->invariant);
  }
}

}  // namespace
}  // namespace scc::metrics
