#include "harness/conformance.hpp"

#include <iterator>
#include <stdexcept>
#include <vector>

#include "common/string_util.hpp"
#include "exec/executor.hpp"

namespace scc::harness {

namespace {

PaperVariant variant_of(coll::Prims prims) {
  switch (prims) {
    case coll::Prims::kBlocking: return PaperVariant::kBlocking;
    case coll::Prims::kIrcce: return PaperVariant::kIrcce;
    case coll::Prims::kLightweight: return PaperVariant::kLightweight;
  }
  return PaperVariant::kBlocking;
}

/// The concrete algorithm every run of this configuration uses, or nullopt
/// for the paper default. kAuto is resolved here, once, prims-independently
/// (with the lightweight layer's selector inputs), so the three stacks run
/// the same schedule and their full output buffers stay comparable.
std::optional<coll::Algo> resolved_algo(const ConformanceSpec& spec) {
  if (!spec.algo) return std::nullopt;
  if (*spec.algo != coll::Algo::kAuto) return spec.algo;
  const auto kind = algo_kind(spec.collective);
  if (!kind) {
    throw std::runtime_error(strprintf(
        "%s has no algorithm variants",
        std::string(collective_name(spec.collective)).c_str()));
  }
  const int p = spec.tiles_x * spec.tiles_y * spec.cores_per_tile;
  return coll::select_algo(*kind, spec.elements, p,
                           coll::Prims::kLightweight);
}

RunSpec base_run_spec(const ConformanceSpec& spec, coll::Prims prims,
                      std::optional<coll::Algo> algo) {
  RunSpec run;
  run.collective = spec.collective;
  run.variant = variant_of(prims);
  run.elements = spec.elements;
  run.repetitions = spec.repetitions;
  run.warmup = spec.warmup;
  run.seed = spec.engine_seed;
  run.verify = true;  // every run is also checked against the serial model
  run.capture_outputs = true;
  run.collect_metrics = spec.compare_metrics;
  run.split_override = spec.split;
  run.algo = algo;
  run.trace = spec.trace;
  run.config.tiles_x = spec.tiles_x;
  run.config.tiles_y = spec.tiles_y;
  run.config.cores_per_tile = spec.cores_per_tile;
  run.config.cost.hw.model_link_contention = spec.model_contention;
  run.config.faults = spec.faults;
  return run;
}

/// Collectives with an MPI counterpart wired into run_op_mpi.
bool mpi_supported(Collective c) {
  switch (c) {
    case Collective::kAllgather:
    case Collective::kAlltoall:
    case Collective::kReduceScatter:
    case Collective::kBroadcast:
    case Collective::kReduce:
    case Collective::kAllreduce:
      return true;
    default:
      return false;
  }
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

/// Collectives with a non-blocking i*() entry point (coll/nbc.hpp).
bool nbc_supported(Collective c) {
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

std::vector<Cell> build_cells(const ConformanceSpec& spec,
                              std::optional<coll::Algo> algo) {
  std::vector<Cell> cells;
  for (const coll::Prims prims : coll::kAllPrims) {
    cells.push_back(Cell{std::string(coll::prims_name(prims)),
                         base_run_spec(spec, prims, algo),
                         /*cross_check=*/true});
  }
  if (spec.check_rckmpi && !algo && mpi_supported(spec.collective)) {
    RunSpec run = base_run_spec(spec, coll::Prims::kBlocking, std::nullopt);
    run.variant = PaperVariant::kRckmpi;
    cells.push_back(
        Cell{"rckmpi", run, value_deterministic(spec.collective)});
  }
  if (spec.check_nbc && nbc_supported(spec.collective)) {
    for (const coll::Prims prims : coll::kAllPrims) {
      RunSpec run = base_run_spec(spec, prims, algo);
      run.nonblocking = true;
      run.nbc_lanes = 1;
      cells.push_back(Cell{std::string(coll::prims_name(prims)) + "-nbc",
                           run, /*cross_check=*/true});
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
  SCC_EXPECTS(spec.perturb_seeds >= 1);
  SCC_EXPECTS(spec.tiles_x >= 1 && spec.tiles_y >= 1);
  SCC_EXPECTS(spec.cores_per_tile >= 1);
  SCC_EXPECTS(spec.jobs >= 0);
  const std::optional<coll::Algo> algo = resolved_algo(spec);

  ConformanceReport report;
  // The mesh's "x<cores_per_tile>" and the " algo=" suffix only appear for
  // non-default values, keeping historical configuration lines unchanged.
  report.configuration = strprintf(
      "%s n=%zu mesh=%dx%d%s split=%s delay=%llufs",
      std::string(collective_name(spec.collective)).c_str(), spec.elements,
      spec.tiles_x, spec.tiles_y,
      spec.cores_per_tile == 2
          ? ""
          : strprintf("x%d", spec.cores_per_tile).c_str(),
      spec.split == coll::SplitPolicy::kBalanced ? "balanced" : "standard",
      static_cast<unsigned long long>(spec.max_delay_fs));
  if (algo) {
    report.configuration +=
        strprintf(" algo=%s", std::string(coll::algo_name(*algo)).c_str());
  }
  if (!spec.faults.empty()) {
    report.configuration +=
        strprintf(" faults=%s", spec.faults.to_string().c_str());
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
  const std::vector<Cell> cells = build_cells(spec, algo);
  const std::size_t runs_per_stack =
      1 + static_cast<std::size_t>(spec.perturb_seeds);
  const std::size_t stacks = cells.size();
  const auto job_spec = [&](std::size_t job) {
    const std::size_t r = job % runs_per_stack;
    RunSpec run = cells[job / runs_per_stack].run;
    if (r > 0) {
      run.config.perturb_seed =
          spec.perturb_seed_base + static_cast<std::uint64_t>(r - 1);
      run.config.perturb_max_delay_fs = spec.max_delay_fs;
    }
    return run;
  };
  // A shared trace recorder serializes; jobs=1 preserves the serial run
  // scope order (cell-major, baseline before seeds) exactly.
  const int jobs = spec.trace != nullptr ? 1 : spec.jobs;
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
          stack_name, spec.engine_seed, perturb_seed, std::move(what)});
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
      if (spec.compare_metrics && baseline.metrics && perturbed.metrics) {
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
