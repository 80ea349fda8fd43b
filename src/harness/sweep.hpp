// Sweep driver: regenerates one Fig. 9 panel (latency vs. vector size for
// every variant of a collective) and derives the paper's summary speedup
// statistics from it.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/table.hpp"
#include "harness/runner.hpp"
#include "metrics/histogram.hpp"

namespace scc::harness {

struct SweepSpec {
  /// What every (size, variant) cell runs: a copy of `run` with `variant`
  /// and `elements` set and, on the RCKMPI and MPB-direct variants (their
  /// own schedules, which a panel compares an override against), `algo`
  /// dropped. A non-null `run.trace` records each cell as its own run
  /// scope; `run.collect_metrics` fills SweepResult::metrics.
  RunSpec run;
  std::size_t from = 500;
  std::size_t to = 700;
  std::size_t step = 4;
  /// Empty = the paper's variant set for run.collective.
  std::vector<PaperVariant> variants;
  /// Host worker threads for the (size x variant) grid: 1 = serial, 0 =
  /// exec::default_jobs(). Each grid cell simulates on its own machine and
  /// results are merged in spec order, so the output -- tables, CSV bytes,
  /// absorbed metrics -- is identical for every jobs value. A non-null
  /// `run.trace` recorder is shared mutable state and forces serial
  /// execution.
  int jobs = 1;
};

struct SweepPoint {
  std::size_t elements = 0;
  std::vector<double> latency_us;  // one per variant, in sweep order
};

struct SweepResult {
  std::vector<PaperVariant> variants;
  std::vector<SweepPoint> points;
  /// All points' snapshots (when SweepSpec::run.collect_metrics), prefixed
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

  /// size column + one latency column per variant (microseconds).
  [[nodiscard]] Table to_table() const;
};

/// The RunSpec run_sweep simulates for one (variant, size) cell.
[[nodiscard]] RunSpec cell_spec(const SweepSpec& spec, PaperVariant variant,
                                std::size_t elements);

[[nodiscard]] SweepResult run_sweep(const SweepSpec& spec);

}  // namespace scc::harness
