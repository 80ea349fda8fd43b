#include "harness/conformance.hpp"

#include <algorithm>
#include <exception>
#include <vector>

#include "common/string_util.hpp"
#include "exec/executor.hpp"

namespace scc::harness {

namespace {

/// The concrete algorithm every run of this configuration uses, or nullopt
/// for the paper default. kAuto is resolved here, once, prims-independently
/// (with the lightweight layer's selector inputs), so the three stacks run
/// the same schedule and their full output buffers stay comparable; on a
/// collective without algorithms it stays kAuto, which check_spec rejects.
std::optional<coll::Algo> resolved_algo(const RunSpec& run) {
  const auto kind = algo_kind(run.collective);
  if (run.algo != coll::Algo::kAuto || !kind) return run.algo;
  return coll::select_algo(*kind, run.elements, run.config.num_cores(),
                           coll::Prims::kLightweight);
}

/// The baseline RunSpec of one cell: `run` plus what the matrix owns.
RunSpec cell_run(const RunSpec& run, PaperVariant variant,
                 int nbc_lanes = 0) {
  RunSpec cell = run;
  cell.variant = variant;
  cell.nbc_lanes = nbc_lanes;
  cell.verify = true;  // every run is also checked against the serial model
  cell.capture_outputs = true;
  // Snapshot every run: the seed-invariant (volume-type) half of each
  // perturbed run's metrics is diffed against its cell's baseline.
  cell.collect_metrics = true;
  cell.config.perturb_seed.reset();  // set on the perturbed replays only
  return cell;
}

/// Collectives whose full output buffers are value-deterministic across
/// DIFFERENT schedules (every element is defined, and integer inputs make
/// all reduction orders bit-equal), so cells running foreign schedules
/// (RCKMPI) can still be cross-checked against the RCCE reference.
bool value_deterministic(Collective c) {
  switch (c) {
    case Collective::kAllgather:
    case Collective::kAlltoall:
    case Collective::kBroadcast:
    case Collective::kAllreduce:
      return true;
    default:
      return false;
  }
}

/// One column of the conformance matrix: a named base RunSpec plus whether
/// its baseline outputs join the cross-stack full-buffer diff.
struct Cell {
  std::string name;
  RunSpec run;
  bool cross_check;
};

/// The cells of a matrix over `run`, whose algorithm is already resolved.
std::vector<Cell> build_cells(const RunSpec& run, bool check_nbc) {
  // One cell per message-passing stack, named after it (coll::kAllPrims).
  constexpr PaperVariant kStacks[] = {PaperVariant::kBlocking,
                                      PaperVariant::kIrcce,
                                      PaperVariant::kLightweight};
  std::vector<Cell> cells;
  for (const PaperVariant v : kStacks) {
    cells.push_back(Cell{std::string(variant_name(v)), cell_run(run, v),
                         /*cross_check=*/true});
  }
  // RCKMPI joins as a fourth cell when the collective has an MPI
  // counterpart and no algorithm override is set (it runs MPICH's own
  // schedules). Its outputs join the cross-stack diff only for the value-
  // deterministic collectives: Reduce and ReduceScatter leave schedule-
  // dependent garbage outside the owned regions.
  const std::vector<PaperVariant> plotted = variants_for(run.collective);
  if (!run.algo &&
      std::find(plotted.begin(), plotted.end(), PaperVariant::kRckmpi) !=
          plotted.end()) {
    cells.push_back(Cell{"rckmpi", cell_run(run, PaperVariant::kRckmpi),
                         value_deterministic(run.collective)});
  }
  if (check_nbc && nbc_supported(run.collective)) {
    for (const PaperVariant v : kStacks) {
      cells.push_back(Cell{std::string(variant_name(v)) + "-nbc",
                           cell_run(run, v, /*nbc_lanes=*/1),
                           /*cross_check=*/true});
    }
  }
  return cells;
}

/// First differing (core, element) pair, or empty when identical.
std::string diff_outputs(const std::vector<std::vector<double>>& got,
                         const std::vector<std::vector<double>>& want) {
  if (got.size() != want.size())
    return strprintf("output core count %zu != baseline %zu", got.size(),
                     want.size());
  for (std::size_t r = 0; r < got.size(); ++r) {
    if (got[r].size() != want[r].size())
      return strprintf("core %zu output size %zu != baseline %zu", r,
                       got[r].size(), want[r].size());
    for (std::size_t i = 0; i < got[r].size(); ++i) {
      if (got[r][i] != want[r][i])
        return strprintf("core %zu element %zu: got %.17g baseline %.17g", r,
                         i, got[r][i], want[r][i]);
    }
  }
  return {};
}

}  // namespace

std::string ConformanceFailure::replay() const {
  std::string where = stack + " engine_seed=" + std::to_string(engine_seed);
  where += perturb_seed
               ? " perturb_seed=" + std::to_string(*perturb_seed)
               : std::string(" unperturbed");
  return where + ": " + what;
}

std::string ConformanceReport::summary() const {
  std::string s = configuration + ": " + std::to_string(runs) + " runs, ";
  if (passed()) return s + "all conformant";
  s += std::to_string(failures.size()) + " failure(s)";
  for (const ConformanceFailure& f : failures) s += "\n  " + f.replay();
  return s;
}

ConformanceReport run_conformance(const ConformanceSpec& spec) {
  RunSpec run = spec.run;
  run.algo = resolved_algo(spec.run);
  const machine::SccConfig& config = run.config;
  SCC_EXPECTS(spec.perturb_seeds >= 1);
  SCC_EXPECTS(config.tiles_x >= 1 && config.tiles_y >= 1);
  SCC_EXPECTS(config.cores_per_tile >= 1);
  SCC_EXPECTS(spec.jobs >= 0);
  const std::vector<Cell> cells = build_cells(run, spec.check_nbc);
  // A bad spec is harness misuse, not a protocol failure: reject it before
  // anything is simulated.
  for (const Cell& cell : cells) check_spec(cell.run);

  ConformanceReport report;
  // The mesh's "x<cores_per_tile>" and the " algo=" suffix only appear for
  // non-default values, keeping historical configuration lines unchanged.
  report.configuration = strprintf(
      "%s n=%zu mesh=%dx%d%s split=%s delay=%llufs",
      std::string(collective_name(run.collective)).c_str(), run.elements,
      config.tiles_x, config.tiles_y,
      config.cores_per_tile == 2
          ? ""
          : strprintf("x%d", config.cores_per_tile).c_str(),
      run.split_override == coll::SplitPolicy::kBalanced ? "balanced"
                                                         : "standard",
      static_cast<unsigned long long>(config.perturb_max_delay_fs));
  if (run.algo) {
    report.configuration += strprintf(
        " algo=%s", std::string(coll::algo_name(*run.algo)).c_str());
  }
  if (!config.faults.empty()) {
    report.configuration +=
        strprintf(" faults=%s", config.faults.to_string().c_str());
  }

  // Execution phase: the whole cell x (1 baseline + K perturbed) matrix
  // is one flat job list of independent simulations (each on its own
  // machine). Outcomes -- results or thrown messages -- are captured per
  // job; no verdict is derived here, so execution order cannot influence
  // the report.
  struct Outcome {
    std::optional<RunResult> result;
    std::string error;
  };
  const std::size_t runs_per_stack =
      1 + static_cast<std::size_t>(spec.perturb_seeds);
  const std::size_t stacks = cells.size();
  const auto job_spec = [&](std::size_t job) {
    const std::size_t r = job % runs_per_stack;
    RunSpec job_run = cells[job / runs_per_stack].run;
    if (r > 0) {
      job_run.config.perturb_seed =
          spec.perturb_seed_base + static_cast<std::uint64_t>(r - 1);
    }
    return job_run;
  };
  // A shared trace recorder serializes; jobs=1 preserves the serial run
  // scope order (cell-major, baseline before seeds) exactly.
  const int jobs = run.trace != nullptr ? 1 : spec.jobs;
  const std::vector<Outcome> outcomes = exec::parallel_map<Outcome>(
      stacks * runs_per_stack, jobs, [&](std::size_t job) {
        Outcome out;
        try {
          out.result = run_collective(job_spec(job));
        } catch (const std::exception& e) {
          // Deadlock or serial-reference verification failure under this
          // interleaving; the engine's message already names the stuck
          // cores and perturbation seed.
          out.error = e.what();
        }
        return out;
      });

  // Merge phase: spec order (cells outer, baseline then seeds), byte-
  // identical to the historical serial loop. Note jobs>1 simulates the
  // perturbed runs even when the cell's baseline failed (the serial path
  // skipped them); the wasted work only occurs on already-failing
  // configurations and never reaches the report.
  std::optional<std::vector<std::vector<double>>> reference;
  report.latency_histograms.resize(stacks);
  for (const Cell& cell : cells) report.cells.push_back(cell.name);
  for (std::size_t s = 0; s < stacks; ++s) {
    const std::string& stack_name = cells[s].name;
    const auto record = [&](std::optional<std::uint64_t> perturb_seed,
                            std::string what) {
      report.failures.push_back(ConformanceFailure{
          stack_name, run.seed, perturb_seed, std::move(what)});
    };

    const Outcome& base_out = outcomes[s * runs_per_stack];
    ++report.runs;
    if (!base_out.result) {
      record(std::nullopt, base_out.error);
      continue;  // no baseline -> perturbed runs have nothing to diff against
    }
    const RunResult& baseline = *base_out.result;
    for (const SimTime t : baseline.latencies) {
      report.latency_histograms[s].record_time(t);
    }
    if (cells[s].cross_check) {
      if (reference) {
        // Cross-stack differential check: data results are meant to be
        // identical across every cell running a comparable schedule.
        const std::string diff = diff_outputs(baseline.outputs, *reference);
        if (!diff.empty())
          record(std::nullopt, "cross-stack mismatch: " + diff);
      } else {
        reference = baseline.outputs;
        if (baseline.metrics) report.baseline_metrics = *baseline.metrics;
      }
    }

    for (int k = 0; k < spec.perturb_seeds; ++k) {
      const std::uint64_t pseed =
          spec.perturb_seed_base + static_cast<std::uint64_t>(k);
      const Outcome& out =
          outcomes[s * runs_per_stack + 1 + static_cast<std::size_t>(k)];
      ++report.runs;
      if (!out.result) {
        record(pseed, out.error);
        continue;
      }
      const RunResult& perturbed = *out.result;
      for (const SimTime t : perturbed.latencies) {
        report.latency_histograms[s].record_time(t);
      }
      const std::string diff = diff_outputs(perturbed.outputs,
                                            baseline.outputs);
      if (!diff.empty()) record(pseed, "result mismatch: " + diff);
      if (perturbed.lines_sent != baseline.lines_sent ||
          perturbed.line_hops != baseline.line_hops) {
        record(pseed,
               strprintf("traffic drift: lines_sent %llu vs %llu, "
                         "line_hops %llu vs %llu",
                         static_cast<unsigned long long>(
                             perturbed.lines_sent),
                         static_cast<unsigned long long>(
                             baseline.lines_sent),
                         static_cast<unsigned long long>(
                             perturbed.line_hops),
                         static_cast<unsigned long long>(
                             baseline.line_hops)));
      }
      if (baseline.metrics && perturbed.metrics) {
        const std::vector<std::string> drift =
            metrics::MetricsRegistry::diff_invariant(*baseline.metrics,
                                                     *perturbed.metrics);
        if (!drift.empty()) {
          // One failure per seed, leading with the first drifted counter
          // (a real bug typically drifts dozens of paths at once).
          record(pseed,
                 strprintf("metric drift (%zu path(s)): %s", drift.size(),
                           drift.front().c_str()));
        }
      }
    }
  }
  return report;
}

}  // namespace scc::harness
