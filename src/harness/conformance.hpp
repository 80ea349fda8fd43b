// Differential conformance checking across the three message-passing
// stacks (RCCE blocking / iRCCE / lightweight non-blocking) under schedule
// perturbation.
//
// The paper's optimizations (relaxed synchronization IV-A, lightweight
// primitives IV-B) work by *removing* synchronization, which is exactly
// where ordering bugs hide -- and the default engine explores only one
// interleaving per program. This checker runs one (collective, size, mesh,
// split-policy) configuration through every stack, first unperturbed and
// then under K perturbation seeds (sim::PerturbConfig), and cross-checks:
//
//   1. element-wise results: every perturbed run must match the stack's
//      unperturbed baseline, and the three stacks' baselines must match
//      each other bit-for-bit (plus the harness's serial-reference check);
//   2. volume-type counter invariants: total cache-line transfers and
//      line-hops (noc::TrafficMatrix), and -- via the full metrics snapshot
//      (metrics/collect.hpp) -- cache hits/misses/writebacks, MPB footprint
//      high-water marks, flag deposits and per-link window counts are
//      properties of the algorithm, not of the schedule, so they must be
//      identical across perturbation seeds (time-type counters like queue
//      delays and poll counts may legitimately drift; RCKMPI's credit-
//      bounded bursts make its flag deposits and link windows time-type);
//   3. absence of deadlock: a perturbed interleaving that wedges the
//      protocol is reported, not hung (the engine detects queue drain).
//
// Every failure record carries the (engine seed, perturbation seed) pair
// needed to replay the exact interleaving deterministically.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "coll/block_split.hpp"
#include "harness/runner.hpp"
#include "metrics/histogram.hpp"

namespace scc::harness {

struct ConformanceSpec {
  /// The configuration every cell runs: a cell is a copy of `run` whose
  /// `variant`, `verify`, `capture_outputs`, `collect_metrics` and
  /// `nbc_lanes` the matrix sets itself, as it sets `config.perturb_seed`
  /// on the perturbed replays only. `seed` is the failure records'
  /// engine_seed; a nonzero `config.perturb_max_delay_fs` adds uniform
  /// random event delays in [0, max] fs to the perturbed replays;
  /// `config.faults` may change timings and schedules, never results; a
  /// non-null `trace` records every run as its own run scope and forces
  /// serial execution. Algo::kAuto is resolved *once*, from (collective,
  /// n, p) with the lightweight prims, so all three stacks run the same
  /// algorithm: the full-buffer diff in check (1) needs one schedule per
  /// cell (algorithms leave different, equally valid garbage outside the
  /// owned ReduceScatter block). Default: 96 elements on a 2x2 mesh,
  /// balanced split, one measured repetition, no warmup.
  RunSpec run = [] {
    RunSpec r;
    r.elements = 96;
    r.repetitions = 1;
    r.warmup = 0;
    r.split_override = coll::SplitPolicy::kBalanced;
    r.config.tiles_x = r.config.tiles_y = 2;
    return r;
  }();
  /// Number of perturbation seeds per stack (K). The seeds used are
  /// perturb_seed_base .. perturb_seed_base + K - 1.
  int perturb_seeds = 16;
  std::uint64_t perturb_seed_base = 1;
  /// Host worker threads for the stack x (baseline + K seeds) matrix: 1 =
  /// serial, 0 = exec::default_jobs(). Every run simulates on its own
  /// machine; verdicts are derived in a deterministic merge pass in spec
  /// order, so the report (runs, failures, summary) is identical for every
  /// jobs value.
  int jobs = 1;
  /// Adds one non-blocking cell per RCCE stack (RunSpec::nbc_lanes = 1)
  /// for the collectives with an i*() entry point (coll/nbc.hpp). One lane
  /// replays the blocking wire schedule exactly, so these cells
  /// cross-check bit-for-bit against the shared reference and must show
  /// zero traffic drift under every perturbation seed.
  bool check_nbc = false;
};

struct ConformanceFailure {
  std::string stack;  // prims_name of the stack that failed
  std::uint64_t engine_seed = 0;
  /// Empty for a failure of the unperturbed baseline run itself.
  std::optional<std::uint64_t> perturb_seed;
  std::string what;

  /// "collective/stack engine_seed=S perturb_seed=P: what" -- everything
  /// needed to replay the failing interleaving.
  [[nodiscard]] std::string replay() const;
};

struct ConformanceReport {
  /// The configuration line this report describes (for log output).
  std::string configuration;
  int runs = 0;  // simulations executed (3 stacks x (1 baseline + K))
  std::vector<ConformanceFailure> failures;
  /// Full metrics snapshot of the first stack's unperturbed baseline (the
  /// run every other run is diffed against). Lets soak drivers export what
  /// was checked.
  std::optional<metrics::MetricsRegistry> baseline_metrics;
  /// Name of every conformance cell of this configuration, in matrix order:
  /// the three RCCE stacks, then "rckmpi" (when present), then the
  /// "<stack>-nbc" cells (when requested). Parallel to latency_histograms.
  std::vector<std::string> cells;
  /// Per-cell latency histogram over every completed simulation of the
  /// matrix (baseline and all perturbed seeds, every measured repetition;
  /// femtosecond values), indexed like `cells` and merged in spec order --
  /// byte-identical for every jobs value.
  std::vector<metrics::Histogram> latency_histograms;

  [[nodiscard]] bool passed() const { return failures.empty(); }
  /// Human-readable multi-line summary; lists every failure's replay line.
  [[nodiscard]] std::string summary() const;
};

/// Runs the full differential check for one configuration. Throws only on
/// harness misuse: a cell check_spec rejects (checked before anything is
/// simulated); protocol failures -- mismatches, deadlocks, traffic drift --
/// are collected in the report.
[[nodiscard]] ConformanceReport run_conformance(const ConformanceSpec& spec);

}  // namespace scc::harness
