// Interactive experiment driver: run any collective under any variant on
// any mesh shape and inspect latency, per-phase profile, event count and
// NoC traffic -- the knobs a user turns when exploring the library.
//
// Usage:
//   collective_playground [--collective=allreduce|allgather|alltoall|
//                           reducescatter|broadcast|reduce]
//                         [--variant=blocking|ircce|lightweight|lw-balanced|
//                           mpb|rckmpi|all]
//                         [--algo=ring|bruck|recursive-doubling|
//                           recursive-halving|ring-rs|pairwise|auto]
//                         [--elements=N] [--reps=K] [--mesh=6x4] [--no-bug]
//                         [--faults=SPEC] [--jobs=N] [--profile]
//                         [--trace=out.json] [--metrics=out.json] [--blame]
//                         [--sample=INTERVAL_US] [--sample-out=PREFIX]
//                         [--hist]
//
// --algo overrides the collective's schedule (coll/algos.hpp) for the
// RCCE-family variants; "auto" asks the Selector. Default: the paper's
// algorithm.
//
// --faults injects machine degradation (src/faults; DESIGN.md §13), e.g.
//   --faults='straggler:5x2.5;deadlink:2,1-3,1'
// Stragglers/DVFS stretch one core's clock, slowlink/deadlink degrade or
// kill a mesh link (with static reroute). All variants and algorithms see
// the same degraded machine, so --variant=all under --faults shows how the
// paper's ranking shifts.
//
// --trace writes a chrome://tracing / Perfetto timeline of the run (plus
// <path>.links.csv with per-link utilization when contention is modeled).
// --metrics writes the full counter snapshot (scc-metrics-v1 JSON); --blame
// prints the critical-path blame report of the last measured repetition
// (which phases on which cores/links the end-to-end latency is spent in).
//
// --sample=U attaches the flight recorder (metrics::Sampler): the standard
// machine counters are snapshotted every U microseconds of SIMULATED time
// and written to <--sample-out>.csv / .json (scc-timeseries-v1; default
// prefix "timeseries"). --hist prints the per-repetition latency histogram
// (p50/p90/p99/p999) as JSON. Both are purely observational: enabling them
// changes no simulated result byte.
//
// --variant=all runs every paper variant of the collective (each on its own
// simulated machine) and prints one comparison table with speedups over the
// blocking baseline; for collectives with algorithm variants every
// (variant, algorithm) pair becomes a row (RCKMPI and MPB only have their
// own schedule). --jobs=N fans those independent simulations out over N
// host threads (default: hardware concurrency; the table is byte-identical
// for every N). The per-run instrumentation flags (--trace, --metrics,
// --blame, --profile) and --algo target a single run and are rejected in
// this mode.
//
// Unknown flags and bad values exit with status 2.
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <vector>

#include "common/cli.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "exec/executor.hpp"
#include "faults/fault_model.hpp"
#include "harness/runner.hpp"
#include "metrics/blame.hpp"
#include "metrics/histogram.hpp"
#include "trace/chrome_export.hpp"

using scc::harness::Collective;
using scc::harness::PaperVariant;

int main(int argc, char** argv) {
  using namespace scc;
  try {
    const CliFlags flags = CliFlags::parse(argc, argv);
    harness::RunSpec spec;
    const std::string collective_flag = flags.get("collective", "allreduce");
    const std::optional<Collective> collective =
        harness::parse_collective(collective_flag);
    // The six Fig. 9 collectives (enum order puts them first).
    if (!collective || *collective > Collective::kAllreduce)
      throw std::runtime_error("unknown collective: " + collective_flag);
    spec.collective = *collective;
    const std::string variant_flag = flags.get("variant", "lw-balanced");
    const bool all_variants = variant_flag == "all";
    const int jobs = exec::jobs_flag(flags);
    if (!all_variants) {
      const std::optional<PaperVariant> variant =
          harness::parse_variant(variant_flag);
      if (!variant)
        throw std::runtime_error("unknown variant: " + variant_flag);
      spec.variant = *variant;
    }
    const std::string algo_flag = flags.get("algo", "");
    if (!algo_flag.empty()) {
      const std::optional<coll::Algo> algo = coll::parse_algo(algo_flag);
      if (!algo) throw std::runtime_error("unknown algorithm: " + algo_flag);
      spec.algo = *algo;
    }
    spec.elements =
        static_cast<std::size_t>(flags.get_int_in("elements", 552, 0));
    spec.repetitions = flags.get_positive_int("reps", 4);
    spec.collect_profiles = flags.get_bool("profile", false);
    harness::parse_mesh(flags.get("mesh", "6x4"), spec.config);
    if (flags.get_bool("no-bug", false)) {
      spec.config.cost.hw.mpb_bug_workaround = false;
    }
    const std::string faults_flag = flags.get("faults", "");
    if (!faults_flag.empty()) {
      spec.config.faults = faults::FaultSpec::parse(faults_flag);
      // Report semantic problems (bad core id, disconnected mesh) as a CLI
      // error instead of tripping the FaultModel's contract check.
      const noc::Topology topo(spec.config.tiles_x, spec.config.tiles_y,
                               spec.config.cores_per_tile);
      if (const auto err = faults::FaultModel::check(spec.config.faults, topo)) {
        throw std::runtime_error("--faults: " + *err);
      }
    }
    const std::string trace_path = flags.get("trace", "");
    const std::string metrics_path = flags.get("metrics", "");
    const bool blame = flags.get_bool("blame", false);
    const double sample_us = flags.get_double("sample", 0.0);
    const std::string sample_out = flags.get("sample-out", "timeseries");
    const bool hist = flags.get_bool("hist", false);
    if (!SimTime::representable_us(sample_us))
      throw std::runtime_error("--sample must be >= 0 and below 1.8e10 us");
    if (sample_us > 0.0) spec.sample_interval = SimTime::from_us(sample_us);
    spec.collect_metrics = !metrics_path.empty();
    for (const std::string& name : flags.unconsumed()) {
      throw std::runtime_error("unknown flag --" + name);
    }

    if (all_variants) {
      if (!trace_path.empty() || !metrics_path.empty() || blame ||
          spec.collect_profiles || spec.algo ||
          spec.sample_interval > SimTime::zero() || hist) {
        throw std::runtime_error(
            "--variant=all compares every variant (and algorithm); --trace/"
            "--metrics/--blame/--profile/--algo/--sample/--hist target a "
            "single run (pick one variant)");
      }
      // One row per (variant, algorithm) pair. RCKMPI and the MPB-direct
      // path have their own fixed schedule; the Stack-based variants run
      // every implemented algorithm (the paper's first).
      struct Cell {
        PaperVariant variant;
        std::optional<coll::Algo> algo;
      };
      const std::optional<coll::CollKind> kind =
          harness::algo_kind(spec.collective);
      std::vector<Cell> cells;
      for (const PaperVariant v : harness::variants_for(spec.collective)) {
        if (kind && harness::stack_based(v)) {
          for (const coll::Algo a : coll::algos_for(*kind))
            cells.push_back({v, a});
        } else {
          cells.push_back({v, std::nullopt});
        }
      }
      // Each cell simulates on its own machine; results are merged in cell
      // order, so the table is the same for every --jobs value.
      const std::vector<harness::RunResult> results =
          exec::parallel_map<harness::RunResult>(
              cells.size(), jobs, [&](std::size_t i) {
                harness::RunSpec run = spec;
                run.variant = cells[i].variant;
                run.algo = cells[i].algo;
                return harness::run_collective(run);
              });
      std::printf("%s, %zu doubles on %d cores (%dx%d tiles), %d reps\n\n",
                  std::string(harness::collective_name(spec.collective))
                      .c_str(),
                  spec.elements, spec.config.num_cores(),
                  spec.config.tiles_x, spec.config.tiles_y,
                  spec.repetitions);
      // Baseline: blocking stack running the paper's algorithm.
      double blocking_us = 0.0;
      for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].variant == PaperVariant::kBlocking &&
            (!cells[i].algo ||
             (kind && *cells[i].algo == coll::paper_algo(*kind))))
          blocking_us = results[i].mean_latency.us();
      }
      Table table({"variant", "algo", "mean", "min", "max", "events",
                   "vs blocking"});
      for (std::size_t i = 0; i < cells.size(); ++i) {
        const harness::RunResult& r = results[i];
        table.add_row(
            {std::string(harness::variant_name(cells[i].variant)),
             cells[i].algo ? std::string(coll::algo_name(*cells[i].algo))
                           : std::string("-"),
             format_duration_us(r.mean_latency.us()),
             format_duration_us(r.min_latency.us()),
             format_duration_us(r.max_latency.us()),
             strprintf("%llu", static_cast<unsigned long long>(r.events)),
             blocking_us > 0.0
                 ? strprintf("%.2fx", blocking_us / r.mean_latency.us())
                 : "n/a"});
      }
      table.print(std::cout);
      return 0;
    }

    std::optional<trace::Recorder> recorder;
    if (!trace_path.empty() || blame) {  // blame replays the trace intervals
      recorder.emplace(/*capacity=*/std::size_t{1} << 20);
      spec.trace = &*recorder;
    }

    const harness::RunResult result = harness::run_collective(spec);
    std::printf("%s / %s%s%s, %zu doubles on %d cores (%dx%d tiles)\n",
                std::string(harness::collective_name(spec.collective)).c_str(),
                std::string(harness::variant_name(spec.variant)).c_str(),
                spec.algo ? " algo=" : "",
                spec.algo ? std::string(coll::algo_name(*spec.algo)).c_str()
                          : "",
                spec.elements, spec.config.num_cores(), spec.config.tiles_x,
                spec.config.tiles_y);
    if (!spec.config.faults.empty()) {
      std::printf("  faults       : %s\n",
                  spec.config.faults.to_string().c_str());
    }
    std::printf("  mean latency : %s\n",
                format_duration_us(result.mean_latency.us()).c_str());
    std::printf("  min / max    : %s / %s\n",
                format_duration_us(result.min_latency.us()).c_str(),
                format_duration_us(result.max_latency.us()).c_str());
    std::printf("  verified     : %s\n", result.verified ? "yes" : "skipped");
    std::printf("  sim events   : %llu\n",
                static_cast<unsigned long long>(result.events));
    if (recorder && !trace_path.empty()) {
      trace::write_chrome_json_file(*recorder, trace_path);
      trace::write_link_csv_file(*recorder, trace_path + ".links.csv");
      std::printf("  trace        : %s (%zu events, %llu dropped)\n",
                  trace_path.c_str(), recorder->events().size(),
                  static_cast<unsigned long long>(recorder->dropped()));
    }
    if (result.metrics) {
      result.metrics->write_json_file(metrics_path);
      std::printf("  metrics      : %s (%zu paths)\n", metrics_path.c_str(),
                  result.metrics->size());
    }
    if (result.timeseries) {
      const metrics::TimeSeries& ts = *result.timeseries;
      std::ofstream csv(sample_out + ".csv");
      ts.write_csv(csv);
      std::ofstream json(sample_out + ".json");
      ts.write_json(json);
      if (!csv || !json) {
        throw std::runtime_error("--sample-out: cannot write " + sample_out +
                                 ".{csv,json}");
      }
      std::printf(
          "  timeseries   : %s.{csv,json} (%zu rows, %llu ticks, "
          "%llu decimation(s))\n",
          sample_out.c_str(), ts.rows.size(),
          static_cast<unsigned long long>(ts.ticks),
          static_cast<unsigned long long>(ts.decimations));
    }
    if (hist) {
      metrics::Histogram latency_hist;
      for (const SimTime t : result.latencies) latency_hist.record_time(t);
      std::printf("  latency hist : ");
      latency_hist.write_json_us(std::cout);
      std::printf("\n");
    }
    if (blame && !result.sample_windows.empty()) {
      const auto [begin, end] = result.sample_windows.back();
      if (recorder->dropped() > 0) {
        std::printf(
            "\nwarning: trace dropped %llu events; blame attribution is "
            "partial (unattributed time shows as idle)\n",
            static_cast<unsigned long long>(recorder->dropped()));
      }
      const metrics::BlameReport report = metrics::analyze_blame(
          *recorder, recorder->current_run(), /*terminal_core=*/0, begin,
          end);
      std::printf("\n");
      report.print(std::cout);
    }

    if (spec.collect_profiles) {
      std::printf("\nper-phase share of core time (mean over cores):\n");
      for (int ph = 0; ph < static_cast<int>(machine::Phase::kCount); ++ph) {
        double sum = 0.0;
        for (const auto& p : result.profiles) {
          const double total = p.total().seconds();
          if (total > 0.0) {
            sum += p.get(static_cast<machine::Phase>(ph)).seconds() / total;
          }
        }
        std::printf("  %-13s %5.1f%%\n",
                    std::string(machine::phase_name(
                                    static_cast<machine::Phase>(ph)))
                        .c_str(),
                    sum / static_cast<double>(result.profiles.size()) * 100.0);
      }
      // Chip-wide private-memory cache behaviour for the same run.
      mem::CacheStats cache;
      std::uint64_t peak_misses = 0;
      for (const mem::CacheStats& c : result.cache_stats) {
        cache.hits += c.hits;
        cache.misses += c.misses;
        cache.writebacks += c.writebacks;
        cache.uncached_writes += c.uncached_writes;
        peak_misses = std::max(peak_misses, c.misses);
      }
      const double accesses = static_cast<double>(cache.hits + cache.misses);
      std::printf("\nprivate-memory cache (all cores):\n");
      std::printf("  hits / misses : %llu / %llu (%.1f%% hit rate)\n",
                  static_cast<unsigned long long>(cache.hits),
                  static_cast<unsigned long long>(cache.misses),
                  accesses > 0.0
                      ? 100.0 * static_cast<double>(cache.hits) / accesses
                      : 0.0);
      std::printf("  writebacks    : %llu\n",
                  static_cast<unsigned long long>(cache.writebacks));
      std::printf("  uncached wr   : %llu\n",
                  static_cast<unsigned long long>(cache.uncached_writes));
      std::printf("  worst core    : %llu misses\n",
                  static_cast<unsigned long long>(peak_misses));
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
