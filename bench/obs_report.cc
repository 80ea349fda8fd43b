// One-stop observability report for a single collective configuration.
//
//   obs_report --out=report.html [--collective=allreduce] [--elements=552]
//              [--reps=4] [--warmup=2] [--seed=42] [--sample-us=1]
//              [--jobs=N]
//
// Runs every Fig. 9 variant of the collective -- each on its own machine,
// with its own trace recorder, metrics snapshot, flight-recorder sampler
// and per-repetition latency capture -- and fuses the results into ONE
// self-contained HTML file (metrics::ObsReport):
//
//   - counter sparklines per variant (inline SVG from the timeseries);
//   - a mesh link heatmap (per-link busy time from the counter snapshot);
//   - critical-path blame of the last measured repetition (metrics/blame);
//   - per-variant tail-latency histograms (p50/p90/p99/p999).
//
// Deterministic: the HTML bytes are identical for any --jobs value (the
// variant grid is merged in spec order) and contain no timestamps or host
// names -- diffable in CI like every other artifact here.
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/string_util.hpp"
#include "exec/executor.hpp"
#include "harness/runner.hpp"
#include "metrics/blame.hpp"
#include "metrics/collect.hpp"
#include "metrics/histogram.hpp"
#include "metrics/report.hpp"

using scc::harness::Collective;

int main(int argc, char** argv) {
  try {
    const auto flags = scc::CliFlags::parse(argc, argv);
    const std::string out_path = flags.get("out", "");
    const std::string collective_flag = flags.get("collective", "allreduce");
    const int elements = flags.get_int_in("elements", 552, 1);
    const int reps = flags.get_int_in("reps", 4, 1);
    const int warmup = flags.get_int_in("warmup", 2, 0);
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
    const double sample_us = flags.get_double("sample-us", 1.0);
    const int jobs = scc::exec::jobs_flag(flags);
    for (const std::string& name : flags.unconsumed()) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
      return 2;
    }
    if (out_path.empty()) {
      std::fprintf(stderr,
                   "usage: obs_report --out=<html> [--collective=C] "
                   "[--elements=N] [--reps=R] [--warmup=W] [--seed=S] "
                   "[--sample-us=U] [--jobs=J]\n");
      return 2;
    }
    if (sample_us <= 0.0 || !scc::SimTime::representable_us(sample_us)) {
      std::fprintf(stderr, "invalid run parameters\n");
      return 2;
    }
    const std::optional<Collective> collective =
        scc::harness::parse_collective(collective_flag);
    if (!collective) {
      std::fprintf(stderr, "unknown collective '%s'\n",
                   collective_flag.c_str());
      return 2;
    }

    // One job per variant; every job gets its own machine AND its own trace
    // recorder, so the grid parallelizes without sharing mutable state.
    const std::vector<scc::harness::PaperVariant> variants =
        scc::harness::variants_for(*collective);
    struct Cell {
      scc::harness::RunResult result;
      std::unique_ptr<scc::trace::Recorder> trace;
    };
    const std::vector<Cell> cells = scc::exec::parallel_map<Cell>(
        variants.size(), jobs, [&](std::size_t job) {
          Cell cell;
          cell.trace = std::make_unique<scc::trace::Recorder>();
          scc::harness::RunSpec run;
          run.collective = *collective;
          run.variant = variants[job];
          run.elements = static_cast<std::size_t>(elements);
          run.repetitions = reps;
          run.warmup = warmup;
          run.seed = seed;
          run.collect_metrics = true;
          run.sample_interval = scc::SimTime::from_us(sample_us);
          run.trace = cell.trace.get();
          cell.result = scc::harness::run_collective(run);
          return cell;
        });

    // Deterministic merge in variant order.
    scc::metrics::ObsReport report;
    report.title = scc::strprintf(
        "%s n=%d seed=%llu reps=%d",
        std::string(scc::harness::collective_name(*collective)).c_str(),
        elements, static_cast<unsigned long long>(seed), reps);
    for (std::size_t v = 0; v < variants.size(); ++v) {
      const std::string name{scc::harness::variant_name(variants[v])};
      const scc::harness::RunResult& rr = cells[v].result;
      if (rr.timeseries) report.timeseries.emplace_back(name, *rr.timeseries);
      scc::metrics::Histogram hist;
      for (const scc::SimTime t : rr.latencies) hist.record_time(t);
      report.histograms.emplace_back(name, std::move(hist));
      if (!rr.sample_windows.empty()) {
        const auto [begin, end] = rr.sample_windows.back();
        const scc::metrics::BlameReport blame =
            scc::metrics::analyze_blame(*cells[v].trace, /*run=*/0,
                                        /*terminal_core=*/0, begin, end);
        std::ostringstream text;
        blame.print(text);
        report.blame_texts.emplace_back(name, text.str());
      }
      if (rr.metrics) report.metrics.emplace_back(name, *rr.metrics);
    }

    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "--out: cannot open %s\n", out_path.c_str());
      return 2;
    }
    report.write_html(out);
    if (!out) {
      std::fprintf(stderr, "--out: write to %s failed\n", out_path.c_str());
      return 2;
    }
    std::printf("observability report written to %s (%zu variants)\n",
                out_path.c_str(), variants.size());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "obs_report: %s\n", e.what());
    return 2;
  }
}
