// Sweep driver: regenerates one Fig. 9 panel (latency vs. vector size for
// every variant of a collective) and derives the paper's summary speedup
// statistics from it.
#pragma once

#include <string>
#include <vector>

#include "common/table.hpp"
#include "harness/runner.hpp"
#include "metrics/histogram.hpp"

namespace scc::harness {

struct SweepSpec {
  Collective collective = Collective::kAllreduce;
  std::size_t from = 500;
  std::size_t to = 700;
  std::size_t step = 4;
  int repetitions = 3;
  int warmup = 1;
  std::uint64_t seed = 42;
  bool verify = true;  // verify every point (slower; benches verify once)
  machine::SccConfig config = machine::SccConfig::paper_default();
  /// Empty = the paper's variant set for this collective.
  std::vector<PaperVariant> variants;
  /// When non-null, every (size, variant) run is traced into this recorder
  /// as its own run scope (one trace file can hold the whole sweep).
  trace::Recorder* trace = nullptr;
  /// When true, SweepResult::metrics holds every point's counter snapshot,
  /// each under the prefix "point/<elements>/<variant>/".
  bool collect_metrics = false;
  /// Host worker threads for the (size x variant) grid: 1 = serial, 0 =
  /// exec::default_jobs(). Each grid cell simulates on its own machine and
  /// results are merged in spec order, so the output -- tables, CSV bytes,
  /// absorbed metrics -- is identical for every jobs value. A non-null
  /// `trace` recorder is shared mutable state and forces serial execution.
  int jobs = 1;
};

struct SweepPoint {
  std::size_t elements = 0;
  std::vector<double> latency_us;  // one per variant, in sweep order
};

struct SweepResult {
  std::vector<PaperVariant> variants;
  std::vector<SweepPoint> points;
  /// All points' snapshots (when SweepSpec::collect_metrics), prefixed
  /// "point/<elements>/<variant>/".
  metrics::MetricsRegistry metrics;
  /// Per-variant tail-latency histogram over EVERY measured repetition of
  /// EVERY size in the sweep (femtosecond values), merged in spec order --
  /// byte-identical output for any jobs value (Histogram::merge is exact).
  std::vector<metrics::Histogram> histograms;  // one per variant, same order

  /// Mean over the sweep of (blocking latency / variant latency) -- the
  /// paper's "average speedup relative to the RCCE_comm baseline".
  [[nodiscard]] double mean_speedup_vs_blocking(PaperVariant v) const;
  /// Maximum pointwise speedup and where it occurs.
  [[nodiscard]] std::pair<double, std::size_t> max_speedup_vs_blocking(
      PaperVariant v) const;
  [[nodiscard]] double mean_latency_us(PaperVariant v) const;

  /// size column + one latency column per variant (microseconds).
  [[nodiscard]] Table to_table() const;
};

[[nodiscard]] SweepResult run_sweep(const SweepSpec& spec);

}  // namespace scc::harness
