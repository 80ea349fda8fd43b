// Shared scaffolding for the figure/table benchmark binaries.
//
// Each bench binary regenerates one figure or table of the paper. Points
// are registered as google-benchmark instances whose *manual* time is the
// simulated (virtual) latency -- the number the paper's y-axes show -- so
// the standard benchmark output IS the figure data. After the benchmark
// run, the collected series are also written as CSV and as an
// "scc-bench-v1" JSON file (bench_results/) -- the JSON is what the
// bench/compare regression gate diffs against a committed baseline -- and
// printed as an aligned summary table.
//
// Environment knobs (the defaults keep every binary under ~a minute):
//   SCC_BENCH_STEP  -- sweep step in elements (default: per-figure)
//   SCC_BENCH_REPS  -- measured repetitions per point (default 2)
//   SCC_BENCH_FROM / SCC_BENCH_TO -- sweep bounds (default 500..700)
// Values must be well-formed non-negative integers; empty, trailing-garbage
// or overflowing values abort with a clear error instead of being silently
// read as 0 (a mistyped SCC_BENCH_TO=6OO must not quietly shrink a sweep).
//
// Instrumentation flags (stripped before google-benchmark sees argv):
//   --metrics=<path> -- write a metrics snapshot of every point (prefixed
//                       "point/<elements>/<variant>/") as scc-metrics-v1
//   --blame          -- per variant, print the critical-path blame report
//                       of the last swept point's final repetition
//   --jobs=N         -- host worker threads for the sweep's independent
//                       simulations (default: hardware concurrency; N >= 1).
//                       Points are precomputed in parallel and merged in
//                       registration order, so every output byte -- tables,
//                       CSV, JSON, metrics -- is identical to --jobs=1.
//                       --blame shares one trace recorder and forces serial.
//   --algo=<name|auto> -- run the swept collective under this algorithm
//                       (coll/algos.hpp) on the Stack-based variants;
//                       RCKMPI and MPB keep their own schedule, so the
//                       figure compares the override against them. Errors
//                       out for collectives without algorithm variants.
//   --hist           -- per variant, aggregate every measured repetition of
//                       every swept point into a metrics::Histogram and add
//                       a "histograms" block (count/min/mean/p50/p90/p99/
//                       p999/max, microseconds) to the scc-bench-v1 JSON.
//                       Observational: row bytes are unchanged, and the
//                       block is byte-identical for any --jobs value.
//                       bench/compare gates it two-sided when the baseline
//                       carries one.
#pragma once

#include <benchmark/benchmark.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/string_util.hpp"
#include "common/table.hpp"
#include "exec/executor.hpp"
#include "harness/runner.hpp"
#include "metrics/blame.hpp"
#include "metrics/collect.hpp"
#include "metrics/histogram.hpp"
#include "metrics/registry.hpp"
#include "trace/recorder.hpp"

namespace scc::bench {

[[noreturn]] inline void env_fail(const char* name, const char* value,
                                  const char* expected) {
  std::fprintf(stderr, "error: %s='%s' is not %s\n", name, value, expected);
  std::exit(2);
}

/// Strict environment size parse: the whole value must be one non-negative
/// decimal integer that fits std::size_t. Anything else (empty string,
/// trailing garbage, sign, overflow) aborts with exit code 2.
inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  if (value[0] == '\0' || value[0] == '-' || value[0] == '+') {
    env_fail(name, value, "a non-negative integer");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE ||
      parsed > std::numeric_limits<std::size_t>::max()) {
    env_fail(name, value, "a non-negative integer");
  }
  return static_cast<std::size_t>(parsed);
}

/// Strict environment double parse: the whole value must be one finite
/// number; otherwise aborts with exit code 2.
inline double env_double(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (end == value || *end != '\0' || errno == ERANGE ||
      !std::isfinite(parsed)) {
    env_fail(name, value, "a finite number");
  }
  return parsed;
}

/// Instrumentation requested on the command line (see header comment).
struct BenchOptions {
  std::string metrics_path;  // empty: metrics collection off
  bool blame = false;
  bool hist = false;  // --hist: per-variant latency histograms in the JSON
  int jobs = 0;  // 0: exec::default_jobs() (hardware concurrency)
  std::optional<coll::Algo> algo;  // --algo: unset = paper algorithm
};

inline BenchOptions& options() {
  static BenchOptions instance;
  return instance;
}

/// Merged per-point snapshots for --metrics.
inline metrics::MetricsRegistry& merged_metrics() {
  static metrics::MetricsRegistry instance;
  return instance;
}

/// Last blame report per variant for --blame (the sweep's final point).
inline std::map<std::string, std::string>& blame_reports() {
  static std::map<std::string, std::string> instance;
  return instance;
}

/// Per-variant tail-latency histograms for --hist (every measured
/// repetition of every swept point; std::map keeps the JSON block in sorted
/// variant order -- one deterministic byte stream).
inline std::map<std::string, metrics::Histogram>& histograms() {
  static std::map<std::string, metrics::Histogram> instance;
  return instance;
}

/// The "histograms" top-level member for Table::write_json, or "" when
/// --hist is off (which keeps the document bytes exactly historical).
inline std::string histogram_members() {
  if (histograms().empty()) return {};
  std::ostringstream ss;
  ss << "\"histograms\": {";
  bool first = true;
  for (auto& [name, hist] : histograms()) {
    ss << (first ? "" : ", ") << '"' << name << "\": ";
    hist.write_json_us(ss);
    first = false;
  }
  ss << '}';
  return ss.str();
}

/// Strict --jobs value parse: one positive decimal integer; 0, signs,
/// garbage or overflow abort with exit code 2 (the hardened get_int
/// discipline -- a mistyped --jobs=1O must not silently serialize or fork
/// wildly).
inline int parse_jobs_value(std::string_view value) {
  const std::string v(value);
  const auto fail = [&] {
    std::fprintf(stderr, "error: --jobs='%s' is not a positive integer\n",
                 v.c_str());
    std::exit(2);
  };
  if (v.empty() || v[0] == '-' || v[0] == '+') fail();
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0' || errno == ERANGE || parsed == 0 ||
      parsed > static_cast<unsigned long long>(
                   std::numeric_limits<int>::max())) {
    fail();
  }
  return static_cast<int>(parsed);
}

/// Strips --metrics=<path>, --blame and --jobs=N from argv
/// (google-benchmark rejects unknown flags) and records them in options().
inline void parse_instrumentation_flags(int& argc, char** argv) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--metrics=", 0) == 0) {
      options().metrics_path = std::string(arg.substr(10));
      if (options().metrics_path.empty()) {
        std::fprintf(stderr, "error: --metrics= needs a path\n");
        std::exit(2);
      }
      continue;
    }
    if (arg == "--blame") {
      options().blame = true;
      continue;
    }
    if (arg == "--hist") {
      options().hist = true;
      continue;
    }
    if (arg.rfind("--jobs=", 0) == 0) {
      options().jobs = parse_jobs_value(arg.substr(7));
      continue;
    }
    if (arg.rfind("--algo=", 0) == 0) {
      const auto algo = coll::parse_algo(arg.substr(7));
      if (!algo) {
        std::fprintf(stderr, "error: unknown --algo '%s'\n",
                     std::string(arg.substr(7)).c_str());
        std::exit(2);
      }
      options().algo = *algo;
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
}

/// Collects (variant, size) -> latency points as benchmarks run, for the
/// CSV/table dump after the benchmark pass.
class SeriesCollector {
 public:
  void add(harness::PaperVariant variant, std::size_t elements, double us) {
    data_[elements][variant] = us;
  }

  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] Table to_table(
      const std::vector<harness::PaperVariant>& variants) const {
    std::vector<std::string> header{"elements"};
    for (const auto v : variants)
      header.emplace_back(std::string(harness::variant_name(v)) + "_us");
    Table table(std::move(header));
    for (const auto& [elements, row] : data_) {
      std::vector<std::string> cells{strprintf("%zu", elements)};
      for (const auto v : variants) {
        const auto it = row.find(v);
        cells.push_back(it == row.end() ? "" : strprintf("%.2f", it->second));
      }
      table.add_row(std::move(cells));
    }
    return table;
  }

  /// Mean over the collected sweep of blocking/variant.
  [[nodiscard]] double mean_speedup(harness::PaperVariant v) const {
    double sum = 0.0;
    int count = 0;
    for (const auto& [elements, row] : data_) {
      const auto base = row.find(harness::PaperVariant::kBlocking);
      const auto it = row.find(v);
      if (base == row.end() || it == row.end()) continue;
      sum += base->second / it->second;
      ++count;
    }
    return count > 0 ? sum / count : 0.0;
  }

 private:
  std::map<std::size_t, std::map<harness::PaperVariant, double>> data_;
};

inline SeriesCollector& collector() {
  static SeriesCollector instance;
  return instance;
}

/// One registered figure point (registration order is preserved).
struct PointKey {
  harness::Collective coll;
  harness::PaperVariant variant;
  std::size_t elements;
};

inline std::vector<PointKey>& registered_points() {
  static std::vector<PointKey> instance;
  return instance;
}

/// Results simulated ahead of the google-benchmark pass by the parallel
/// executor, keyed by (variant, elements); run_point consumes them so the
/// serially-executed benchmark loop only merges. Only touched from the
/// main thread (filled after the pool joins).
inline std::map<std::pair<int, std::size_t>, harness::RunResult>&
point_cache() {
  static std::map<std::pair<int, std::size_t>, harness::RunResult> instance;
  return instance;
}

inline harness::RunSpec point_spec(harness::Collective coll,
                                   harness::PaperVariant variant,
                                   std::size_t elements) {
  harness::RunSpec spec;
  spec.collective = coll;
  spec.variant = variant;
  spec.elements = elements;
  spec.repetitions = static_cast<int>(env_size("SCC_BENCH_REPS", 2));
  spec.warmup = 1;
  spec.verify = false;
  spec.collect_metrics = !options().metrics_path.empty();
  // --algo targets the Stack-based variants; RCKMPI and the MPB-direct
  // path have no algorithm dimension and keep their own schedule.
  if (options().algo && variant != harness::PaperVariant::kRckmpi &&
      variant != harness::PaperVariant::kMpb) {
    spec.algo = options().algo;
  }
  return spec;
}

/// Fans the registered points out over --jobs host threads (each point
/// simulates on its own machine) and fills point_cache(). The benchmark
/// pass then reports the cached latencies in registration order, so all
/// output bytes match the serial run. No-op for --jobs=1 and under
/// --blame (whose shared trace recorder requires serial execution).
inline void precompute_points() {
  const auto& points = registered_points();
  if (points.empty() || options().blame) return;
  if (exec::resolve_jobs(options().jobs) <= 1) return;
  std::vector<harness::RunResult> results =
      exec::parallel_map<harness::RunResult>(
          points.size(), options().jobs, [&](std::size_t i) {
            const PointKey& p = points[i];
            return harness::run_collective(
                point_spec(p.coll, p.variant, p.elements));
          });
  for (std::size_t i = 0; i < points.size(); ++i) {
    point_cache().emplace(std::make_pair(static_cast<int>(points[i].variant),
                                         points[i].elements),
                          std::move(results[i]));
  }
}

/// One measured figure point; SetIterationTime feeds the virtual latency
/// to google-benchmark (binaries register with UseManualTime).
inline void run_point(benchmark::State& state, harness::Collective coll,
                      harness::PaperVariant variant, std::size_t elements) {
  harness::RunSpec spec = point_spec(coll, variant, elements);
  std::optional<trace::Recorder> recorder;
  if (options().blame) {
    recorder.emplace(/*capacity=*/std::size_t{1} << 20);
    spec.trace = &*recorder;
  }
  for (auto _ : state) {
    harness::RunResult result;
    const auto cached =
        point_cache().find({static_cast<int>(variant), elements});
    if (cached != point_cache().end()) {
      result = std::move(cached->second);
      point_cache().erase(cached);
    } else {
      result = harness::run_collective(spec);
    }
    state.SetIterationTime(result.mean_latency.seconds());
    collector().add(variant, elements, result.mean_latency.us());
    if (options().hist) {
      // Merged here, in registration order on the serial benchmark pass, so
      // the aggregate is identical no matter how --jobs precomputed.
      metrics::Histogram& h =
          histograms()[std::string(harness::variant_name(variant))];
      for (const SimTime s : result.latencies) h.record_time(s);
    }
    if (result.metrics) {
      merged_metrics().absorb(
          *result.metrics,
          strprintf("point/%zu/%s/", elements,
                    std::string(harness::variant_name(variant)).c_str()));
    }
    if (recorder && !result.sample_windows.empty()) {
      const auto [begin, end] = result.sample_windows.back();
      const metrics::BlameReport report = metrics::analyze_blame(
          *recorder, recorder->current_run(), /*terminal_core=*/0, begin,
          end);
      std::ostringstream ss;
      ss << "--- " << harness::variant_name(variant) << " n=" << elements;
      if (recorder->dropped() > 0) {
        ss << " (trace dropped " << recorder->dropped()
           << " events; attribution partial)";
      }
      ss << " ---\n";
      report.print(ss);
      blame_reports()[std::string(harness::variant_name(variant))] = ss.str();
    }
  }
  state.counters["virtual_us"] =
      benchmark::Counter(collector().empty() ? 0.0 : 0.0);
}

/// Registers the full Fig. 9 panel for `coll`.
inline void register_figure(const char* figure, harness::Collective coll,
                            std::size_t default_step) {
  const std::size_t from = env_size("SCC_BENCH_FROM", 500);
  const std::size_t to = env_size("SCC_BENCH_TO", 700);
  const std::size_t step = env_size("SCC_BENCH_STEP", default_step);
  if (step == 0) env_fail("SCC_BENCH_STEP", "0", "a positive integer");
  for (const harness::PaperVariant v : harness::variants_for(coll)) {
    for (std::size_t n = from; n <= to; n += step) {
      registered_points().push_back(PointKey{coll, v, n});
      const std::string name =
          strprintf("%s/%s/%zu", figure,
                    std::string(harness::variant_name(v)).c_str(), n);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [coll, v, n](benchmark::State& state) {
            run_point(state, coll, v, n);
          })
          ->UseManualTime()
          ->Unit(benchmark::kMicrosecond)
          ->Iterations(1);
    }
  }
}

/// Writes the collected series as CSV + scc-bench-v1 JSON under
/// bench_results/ and dumps the requested instrumentation.
inline void write_outputs(const char* figure, const Table& table) {
  std::filesystem::create_directories("bench_results");
  const std::string csv = std::string("bench_results/") + figure + ".csv";
  table.write_csv_file(csv);
  const std::string json = std::string("bench_results/") + figure + ".json";
  table.write_json_file(json, figure, histogram_members());
  std::cout << "\nseries written to " << csv << " and " << json << '\n';
  if (!options().metrics_path.empty()) {
    merged_metrics().set_label(figure);
    merged_metrics().write_json_file(options().metrics_path);
    std::cout << "metrics snapshot written to " << options().metrics_path
              << '\n';
  }
  for (const auto& [variant, report] : blame_reports()) {
    std::cout << '\n' << report;
  }
}

/// Runs the registered benchmarks, then dumps the series as a table, a CSV
/// and a JSON under bench_results/.
inline int figure_main(int argc, char** argv, const char* figure,
                       harness::Collective coll) {
  parse_instrumentation_flags(argc, argv);
  benchmark::Initialize(&argc, argv);
  // Anything neither we nor google-benchmark consumed is a typo: fail
  // before the sweep runs instead of silently ignoring it.
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  precompute_points();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const auto variants = harness::variants_for(coll);
  const Table table = collector().to_table(variants);
  std::cout << "\n=== " << figure << " (" << harness::collective_name(coll)
            << ", 48 cores; latency in virtual microseconds) ===\n";
  table.print(std::cout);
  std::cout << "\nAverage speedup vs blocking over the sweep:\n";
  for (const auto v : variants) {
    if (v == harness::PaperVariant::kBlocking) continue;
    std::cout << "  " << harness::variant_name(v) << ": "
              << strprintf("%.2fx", collector().mean_speedup(v)) << '\n';
  }
  write_outputs(figure, table);
  return 0;
}

}  // namespace scc::bench
