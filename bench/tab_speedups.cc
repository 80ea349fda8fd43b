// Regenerates the paper's summary speedup statistics (Section V-A, last
// paragraph): average speedup of the fully-optimized stack over the
// RCCE_comm baseline for every collective, and the maximum pointwise
// Allreduce speedup with the size at which it occurs.
//
//   tab_speedups [--from=500] [--to=700] [--step=16] [--reps=2] [--jobs=N]
//
// The default sweep is coarser than the figure binaries' since only
// aggregate statistics are reported. --jobs fans the sweep cells out over
// host threads; the tables are identical for every value.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench_support.hpp"
#include "common/cli.hpp"
#include "common/string_util.hpp"
#include "exec/executor.hpp"
#include "harness/sweep.hpp"

int main(int argc, char** argv) {
  using scc::harness::Collective;
  using scc::harness::PaperVariant;
  using scc::harness::SweepResult;
  scc::harness::SweepSpec spec;
  try {
    const scc::CliFlags flags = scc::CliFlags::parse(argc, argv);
    spec.from = static_cast<std::size_t>(flags.get_int_in("from", 500, 0));
    spec.to = static_cast<std::size_t>(flags.get_int_in("to", 700, 0));
    spec.step = static_cast<std::size_t>(flags.get_positive_int("step", 16));
    spec.run.repetitions = flags.get_positive_int("reps", 2);
    spec.jobs = scc::exec::jobs_flag(flags);
    for (const std::string& name : flags.unconsumed())
      throw std::runtime_error("unknown flag --" + name);
    if (spec.to < spec.from) throw std::runtime_error("--to is below --from");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tab_speedups: %s\n", e.what());
    return 2;
  }
  spec.run.warmup = 1;
  spec.run.verify = false;

  const Collective collectives[] = {
      Collective::kAllgather, Collective::kAlltoall,
      Collective::kReduceScatter, Collective::kBroadcast, Collective::kReduce,
      Collective::kAllreduce};
  SweepResult results[6];
  for (int i = 0; i < 6; ++i) {
    spec.run.collective = collectives[i];
    results[i] = scc::harness::run_sweep(spec);
  }

  std::cout << "=== Average speedups vs RCCE_comm blocking baseline "
            << "(48 cores, 500..700 doubles) ===\n";
  scc::Table table({"collective", "ircce", "lightweight", "best non-MPB",
                    "paper (best)"});
  const char* paper[] = {"~2.7-2.8x", "~1.6x", "n/a", "n/a", "~1.6x", "~1.7x+bal"};
  for (int i = 0; i < 6; ++i) {
    const auto& r = results[i];
    const bool has_balanced =
        std::find(r.variants.begin(), r.variants.end(),
                  PaperVariant::kLwBalanced) != r.variants.end();
    const PaperVariant best =
        has_balanced ? PaperVariant::kLwBalanced : PaperVariant::kLightweight;
    table.add_row(
        {std::string(scc::harness::collective_name(collectives[i])),
         scc::strprintf("%.2fx", r.mean_speedup_vs_blocking(PaperVariant::kIrcce)),
         scc::strprintf("%.2fx",
                        r.mean_speedup_vs_blocking(PaperVariant::kLightweight)),
         scc::strprintf("%.2fx", r.mean_speedup_vs_blocking(best)),
         paper[i]});
  }
  table.print(std::cout);

  const auto& allreduce = results[5];
  const auto [best, at] =
      allreduce.max_speedup_vs_blocking(PaperVariant::kLwBalanced);
  std::cout << scc::strprintf(
      "\nmax Allreduce speedup (lw-balanced): %.2fx at %zu elements "
      "(paper: 3.6x at 574)\n",
      best, at);
  scc::bench::write_table("tab_speedups", table);
  return 0;
}
