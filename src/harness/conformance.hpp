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
//      delays and poll counts may legitimately drift);
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
  Collective collective = Collective::kAllreduce;
  std::size_t elements = 96;
  int tiles_x = 2;  // mesh shape; cores = tiles_x * tiles_y * 2
  int tiles_y = 2;
  coll::SplitPolicy split = coll::SplitPolicy::kBalanced;
  /// Cores per tile (cores = tiles_x * tiles_y * cores_per_tile). The SCC's
  /// value is 2; 1 enables odd core counts for the algorithm-variant grid.
  int cores_per_tile = 2;
  /// Algorithm override for the collectives with variants (coll/algos.hpp).
  /// Unset = the paper's algorithm. Algo::kAuto is resolved *once*, from
  /// (collective, n, p) with the lightweight prims, so all three stacks run
  /// the same algorithm -- the full-buffer diff in check (1) requires the
  /// same schedule per cell (different algorithms leave different, equally
  /// valid garbage outside the owned ReduceScatter block).
  std::optional<coll::Algo> algo;
  /// Seeds the input data and the engine's deterministic base trace.
  std::uint64_t engine_seed = 42;
  /// Number of perturbation seeds per stack (K). The seeds used are
  /// perturb_seed_base .. perturb_seed_base + K - 1.
  int perturb_seeds = 16;
  std::uint64_t perturb_seed_base = 1;
  /// When nonzero, perturbed runs also inject uniform random event delays
  /// in [0, max_delay_fs] femtoseconds (stresses timing assumptions, not
  /// just equal-time ordering).
  std::uint64_t max_delay_fs = 0;
  bool model_contention = false;
  /// Injected machine degradation (src/faults): every run of the matrix --
  /// all three stacks, baseline and perturbed -- simulates on the same
  /// degraded machine, so faults may change timings and schedules but
  /// never results. Empty = healthy machine (historical behavior).
  faults::FaultSpec faults;
  int repetitions = 1;
  int warmup = 0;
  /// Diffs the seed-invariant (volume-type) half of every perturbed run's
  /// metrics snapshot against the stack's unperturbed baseline. On by
  /// default: it subsumes the traffic-drift check and costs one snapshot
  /// per run.
  bool compare_metrics = true;
  /// When non-null, every run (baselines and perturbed replays) is traced
  /// into this recorder, each as its own run scope -- useful to visually
  /// compare the interleaving a failing perturbation seed produced.
  trace::Recorder* trace = nullptr;
  /// Host worker threads for the stack x (baseline + K seeds) matrix: 1 =
  /// serial, 0 = exec::default_jobs(). Every run simulates on its own
  /// machine; verdicts are derived in a deterministic merge pass in spec
  /// order, so the report (runs, failures, summary) is identical for every
  /// jobs value. A non-null `trace` recorder forces serial execution.
  int jobs = 1;
  /// Adds the RCKMPI baseline as a fourth conformance cell whenever the
  /// collective has an MPI counterpart and no algorithm override is set
  /// (RCKMPI runs MPICH's own schedules, so per-algorithm cells make no
  /// sense there). The cell gets the full per-cell treatment -- serial-
  /// reference verify, perturbed-vs-baseline result diff, traffic and
  /// metric drift -- and its outputs are additionally cross-checked against
  /// the RCCE stacks' shared reference for the value-deterministic
  /// collectives (allgather/alltoall/broadcast/allreduce; integer inputs
  /// make every reduction order bit-equal). Reduce and ReduceScatter leave
  /// schedule-dependent garbage outside the owned regions, so their RCKMPI
  /// cells skip only the cross-stack diff. Long conformance runs also
  /// re-exercise the channel's mod-256 sequence wraparound under real
  /// collective traffic (cumulative line counters persist across
  /// repetitions).
  bool check_rckmpi = true;
  /// Adds one non-blocking cell per RCCE stack (RunSpec::nonblocking at one
  /// lane) for the collectives with an i*() entry point (coll/nbc.hpp).
  /// One lane replays the blocking wire schedule exactly, so these cells
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
  /// run every other run is diffed against); populated when
  /// spec.compare_metrics. Lets soak drivers export what was checked.
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
/// harness misuse (bad spec); protocol failures -- mismatches, deadlocks,
/// traffic drift -- are collected in the report.
[[nodiscard]] ConformanceReport run_conformance(const ConformanceSpec& spec);

}  // namespace scc::harness
