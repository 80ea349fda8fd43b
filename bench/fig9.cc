// Regenerates one panel of the paper's Fig. 9: latency of a single
// collective on all 48 simulated cores against the vector size (500..700
// doubles), one series per library variant. Reported times are VIRTUAL
// (simulated) microseconds -- the quantity on the paper's y-axis.
//
//   fig9 --collective=<allgather|alltoall|reducescatter|broadcast|reduce|
//                      allreduce>
//        [--from=500] [--to=700] [--step=S] [--reps=2] [--jobs=N]
//        [--metrics=<path>] [--hist] [--blame] [--algo=<name|auto>]
//
// --step defaults to 8 for allgather and alltoall and to 2 for the rest.
// The panel is written to bench_results/fig9<letter>_<collective>.csv and
// .json (scc-bench-v1, the input of the bench-smoke gate) and printed as a
// table.
//
//   --jobs=N      host worker threads for the sweep's independent
//                 simulations (default: hardware concurrency). Every output
//                 byte -- table, CSV, JSON, metrics -- is identical for
//                 every N.
//   --metrics=P   write an scc-metrics-v1 snapshot of every point, prefixed
//                 "point/<elements>/<variant>/".
//   --hist        add a "histograms" block (count/min/mean/p50/p90/p99/
//                 p999/max, microseconds) per variant over every measured
//                 repetition of every size; row bytes are unchanged, and
//                 the committed fig9f baseline carries the block.
//   --blame       per variant, re-run the last size traced and print the
//                 critical-path blame report of its final repetition
//                 (tracing never changes timing).
//   --algo=NAME   run the collective under this algorithm (coll/algos.hpp)
//                 on the Stack-based variants; RCKMPI and MPB keep their
//                 own schedule, so the panel compares the override against
//                 them. Only for collectives with algorithm variants.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "bench_support.hpp"
#include "common/cli.hpp"
#include "common/string_util.hpp"
#include "exec/executor.hpp"
#include "harness/sweep.hpp"

namespace {

using scc::harness::Collective;
using scc::harness::PaperVariant;

struct Panel {
  Collective collective;
  char letter;
  int default_step;
};

constexpr Panel kPanels[] = {
    {Collective::kAllgather, 'a', 8},     {Collective::kAlltoall, 'b', 8},
    {Collective::kReduceScatter, 'c', 2}, {Collective::kBroadcast, 'd', 2},
    {Collective::kReduce, 'e', 2},        {Collective::kAllreduce, 'f', 2}};

struct Options {
  scc::harness::SweepSpec sweep;
  std::string figure;  // e.g. "fig9f_allreduce"
  std::string metrics_path;
  bool hist = false;
  bool blame = false;
};

Options parse_options(const scc::CliFlags& flags) {
  using namespace scc;
  const std::string name = flags.get("collective", "");
  const auto panel =
      std::find_if(std::begin(kPanels), std::end(kPanels), [&](const Panel& p) {
        return name == harness::collective_name(p.collective);
      });
  if (panel == std::end(kPanels)) {
    throw std::runtime_error(
        "--collective must be one of allgather, alltoall, reducescatter, "
        "broadcast, reduce, allreduce; got '" + name + "'");
  }
  Options opt;
  opt.figure = strprintf("fig9%c_%s", panel->letter, name.c_str());
  harness::SweepSpec& sweep = opt.sweep;
  sweep.run.collective = panel->collective;
  sweep.from = static_cast<std::size_t>(flags.get_int_in("from", 500, 0));
  sweep.to = static_cast<std::size_t>(flags.get_int_in("to", 700, 0));
  sweep.step = static_cast<std::size_t>(
      flags.get_positive_int("step", panel->default_step));
  sweep.run.repetitions = flags.get_positive_int("reps", 2);
  sweep.run.warmup = 1;
  sweep.run.verify = false;
  sweep.jobs = exec::jobs_flag(flags);
  if (sweep.to < sweep.from) {
    throw std::runtime_error(strprintf("--to=%zu is below --from=%zu",
                                       sweep.to, sweep.from));
  }
  opt.metrics_path = flags.get("metrics", "");
  if (flags.has("metrics") && opt.metrics_path.empty())
    throw std::runtime_error("--metrics= needs a path");
  sweep.run.collect_metrics = !opt.metrics_path.empty();
  opt.hist = flags.get_bool("hist", false);
  opt.blame = flags.get_bool("blame", false);
  if (flags.has("algo")) {
    const std::string algo_name = flags.get("algo", "");
    sweep.run.algo = coll::parse_algo(algo_name);
    if (!sweep.run.algo)
      throw std::runtime_error("unknown --algo '" + algo_name + "'");
  }
  for (const std::string& unknown : flags.unconsumed())
    throw std::runtime_error("unknown flag --" + unknown);
  // Reject what no cell can run (an --algo the collective lacks, a size
  // the MPB cannot hold) before the sweep starts; the largest size is the
  // limiting one.
  const std::size_t largest =
      sweep.from + (sweep.to - sweep.from) / sweep.step * sweep.step;
  for (const PaperVariant v : harness::variants_for(sweep.run.collective))
    harness::check_spec(harness::cell_spec(sweep, v, largest));
  return opt;
}

/// The "histograms" member of the scc-bench-v1 JSON; `by_name` maps each
/// variant name to its index in the sweep.
std::string histogram_members(
    const scc::harness::SweepResult& result,
    const std::map<std::string_view, std::size_t>& by_name) {
  std::ostringstream ss;
  ss << "\"histograms\": {";
  for (const auto& [name, i] : by_name) {
    ss << (name == by_name.begin()->first ? "" : ", ") << '"' << name
       << "\": ";
    result.histograms[i].write_json_us(ss);
  }
  ss << '}';
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scc;
  Options opt;
  try {
    opt = parse_options(CliFlags::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fig9: %s\n", e.what());
    return 2;
  }

  harness::SweepResult result = harness::run_sweep(opt.sweep);
  std::cout << "=== " << opt.figure << " ("
            << harness::collective_name(opt.sweep.run.collective)
            << ", 48 cores; latency in virtual microseconds) ===\n";
  const Table table = result.to_table();
  table.print(std::cout);
  std::cout << "\nAverage speedup vs blocking over the sweep:\n";
  for (const PaperVariant v : result.variants) {
    if (v == PaperVariant::kBlocking) continue;
    std::cout << "  " << harness::variant_name(v) << ": "
              << strprintf("%.2fx", result.mean_speedup_vs_blocking(v))
              << '\n';
  }
  // The --hist block and the --blame reports go in variant-name order.
  std::map<std::string_view, std::size_t> by_name;
  for (std::size_t i = 0; i < result.variants.size(); ++i)
    by_name[harness::variant_name(result.variants[i])] = i;
  bench::write_table(
      opt.figure, table,
      opt.hist ? histogram_members(result, by_name) : std::string());
  if (!opt.metrics_path.empty()) {
    result.metrics.set_label(opt.figure);
    result.metrics.write_json_file(opt.metrics_path);
    std::cout << "metrics snapshot written to " << opt.metrics_path << '\n';
  }
  if (opt.blame) {
    const std::size_t last = result.points.back().elements;
    for (const auto& [name, i] : by_name) {
      trace::Recorder recorder(/*capacity=*/std::size_t{1} << 20);
      harness::RunSpec spec =
          harness::cell_spec(opt.sweep, result.variants[i], last);
      spec.trace = &recorder;
      const harness::RunResult run = harness::run_collective(spec);
      std::cout << '\n' << bench::blame_text(recorder, run, name, last);
    }
  }
  return 0;
}
