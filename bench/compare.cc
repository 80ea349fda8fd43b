// Regression gate CLI: diffs a fresh "scc-bench-v1" JSON bench run against
// a committed baseline with per-metric tolerances.
//
//   compare --baseline=bench_results/baselines/fig9f.json
//           --current=bench_results/fig9f_allreduce.json
//           [--rel-tol=0.05] [--abs-tol=0.0] [--two-sided] [--key=elements]
//
// Exit codes: 0 = within tolerance, 1 = regression (or corrupt/missing
// input -- the gate fails closed), 2 = usage error. The bench-smoke ctest
// tier runs this after each gated bench (bench/smoke_gate.cmake) to catch
// simulated-latency drift.
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "metrics/bench_compare.hpp"

int main(int argc, char** argv) {
  try {
    const auto flags = scc::CliFlags::parse(argc, argv);
    const std::string baseline = flags.get("baseline", "");
    const std::string current = flags.get("current", "");
    scc::metrics::CompareOptions options;
    options.rel_tol = flags.get_double("rel-tol", options.rel_tol);
    options.abs_tol = flags.get_double("abs-tol", options.abs_tol);
    options.two_sided = flags.get_bool("two-sided", false);
    const std::string key = flags.get("key", "");
    for (const std::string& name : flags.unconsumed()) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
      return 2;
    }
    if (baseline.empty() || current.empty()) {
      std::fprintf(stderr,
                   "usage: compare --baseline=<json> --current=<json> "
                   "[--rel-tol=R] [--abs-tol=A] [--two-sided] [--key=COL]\n");
      return 2;
    }
    if (options.rel_tol < 0.0 || options.abs_tol < 0.0) {
      std::fprintf(stderr, "tolerances must be non-negative\n");
      return 2;
    }

    const scc::metrics::CompareOutcome outcome =
        scc::metrics::compare_bench_files(baseline, current, options, key);
    std::cout << "comparing " << current << " against baseline " << baseline
              << '\n';
    scc::metrics::print_outcome(outcome, std::cout);
    return outcome.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "compare: %s\n", e.what());
    return 2;
  }
}
