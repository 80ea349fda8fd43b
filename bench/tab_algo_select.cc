// Algorithm-selection tuner: sweeps every implemented algorithm of every
// collective that has variants (coll/algos.hpp) over a size grid and emits
// the measured selection table -- which algorithm is fastest per
// (collective, n) cell, by how much it beats the paper's schedule, and
// whether the analytic Selector (coll::select_algo) agrees.
//
//   tab_algo_select [--mesh=6x4] [--variant=lightweight]
//                   [--sizes=8,48,192,552] [--reps=2] [--jobs=N]
//
// Output: aligned table on stdout plus bench_results/tab_algo_select.csv
// and .json (scc-bench-v1). The JSON is the input of the bench-smoke
// regression gate (algo_select_smoke), which requires it to equal the
// committed baseline (bench_results/baselines/tab_algo_select.json) byte
// for byte, so a lost win, a changed pick or any latency drift fails the
// gate. The simulator is deterministic: identical flags reproduce
// identical bytes, and an intentional cost-model recalibration must
// re-commit the baseline.
#include <cstdio>
#include <exception>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "common/cli.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "exec/executor.hpp"
#include "harness/runner.hpp"

namespace {

using scc::coll::Algo;
using scc::coll::CollKind;
using scc::harness::Collective;
using scc::harness::PaperVariant;

/// The four collectives with an algorithm dimension.
constexpr Collective kCollectives[] = {
    Collective::kAllgather, Collective::kAlltoall, Collective::kReduceScatter,
    Collective::kAllreduce};

std::vector<std::size_t> parse_sizes(const std::string& flag) {
  std::vector<std::size_t> sizes;
  for (const std::string& part : scc::split(flag, ',')) {
    sizes.push_back(
        static_cast<std::size_t>(scc::parse_int_in(part, "--sizes entry", 1)));
  }
  return sizes;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scc;
  std::vector<std::size_t> sizes;
  harness::RunSpec base;
  int reps = 0, jobs = 0;
  try {
    const CliFlags flags = CliFlags::parse(argc, argv);
    harness::parse_mesh(flags.get("mesh", "6x4"), base.config);
    const std::string variant_flag = flags.get("variant", "lightweight");
    const std::optional<PaperVariant> variant =
        harness::parse_variant(variant_flag);
    if (!variant || !harness::stack_based(*variant))
      throw std::runtime_error(
          "unknown --variant (Stack-based variants only): " + variant_flag);
    base.variant = *variant;
    sizes = parse_sizes(flags.get("sizes", "8,48,192,552"));
    reps = flags.get_positive_int("reps", 2);
    jobs = exec::jobs_flag(flags);
    for (const std::string& name : flags.unconsumed())
      throw std::runtime_error("unknown flag --" + name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tab_algo_select: %s\n", e.what());
    return 2;
  }
  try {
    base.repetitions = reps;
    base.warmup = 1;
    base.verify = false;
    const int p = base.config.num_cores();
    const coll::Prims prims = harness::prims_of(base.variant);

    // Flattened (collective, n, algo) grid; every point simulates on its
    // own machine, fanned out over --jobs and merged in grid order (the
    // table is byte-identical for every jobs value).
    struct Point {
      Collective coll;
      std::size_t n;
      Algo algo;
    };
    std::vector<Point> points;
    for (const Collective c : kCollectives) {
      const CollKind kind = *harness::algo_kind(c);
      for (const std::size_t n : sizes) {
        for (const Algo a : coll::algos_for(kind)) points.push_back({c, n, a});
      }
    }
    const std::vector<double> lat_us = exec::parallel_map<double>(
        points.size(), jobs, [&](std::size_t i) {
          harness::RunSpec spec = base;
          spec.collective = points[i].coll;
          spec.elements = points[i].n;
          spec.algo = points[i].algo;
          return harness::run_collective(spec).mean_latency.us();
        });

    std::printf(
        "algorithm selection, %s variant, %d cores (%dx%d tiles), %d reps\n\n",
        std::string(harness::variant_name(base.variant)).c_str(), p,
        base.config.tiles_x, base.config.tiles_y, reps);
    Table table({"cell", "elements", "paper_us", "best_us", "best_algo",
                 "speedup", "selected", "selected_us"});
    std::size_t i = 0;
    for (const Collective c : kCollectives) {
      const CollKind kind = *harness::algo_kind(c);
      const auto& algos = coll::algos_for(kind);
      for (const std::size_t n : sizes) {
        double paper_us = 0.0, best_us = 0.0, selected_us = 0.0;
        Algo best = algos.front();
        const Algo selected = coll::select_algo(kind, n, p, prims);
        for (const Algo a : algos) {
          const double us = lat_us[i++];
          if (a == coll::paper_algo(kind)) paper_us = us;
          if (best_us == 0.0 || us < best_us) {
            best_us = us;
            best = a;
          }
          if (a == selected) selected_us = us;
        }
        table.add_row(
            {strprintf("%s/%zu",
                       std::string(harness::collective_name(c)).c_str(), n),
             strprintf("%zu", n), strprintf("%.2f", paper_us),
             strprintf("%.2f", best_us), std::string(coll::algo_name(best)),
             strprintf("%.3f", paper_us / best_us),
             std::string(coll::algo_name(selected)),
             strprintf("%.2f", selected_us)});
      }
    }
    table.print(std::cout);

    bench::write_table("tab_algo_select", table);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tab_algo_select: %s\n", e.what());
    return 1;
  }
}
