// Quickstart: reproduce the paper's headline in one page of code.
//
// Runs a 552-element Allreduce (the thermodynamics application's Fourier-
// coefficient reduction) on a simulated 48-core SCC under each of the six
// library variants of Fig. 9f and prints the measured virtual-time latency
// plus the speedup over the RCCE_comm baseline.
//
// Usage: quickstart [--elements=N] [--reps=K] [--no-bug]
// Bad or unknown flags exit with status 2.
#include <cstdio>
#include <exception>
#include <iostream>

#include "common/cli.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "harness/runner.hpp"

int main(int argc, char** argv) {
  using namespace scc;
  harness::RunSpec spec;
  try {
    const CliFlags flags = CliFlags::parse(argc, argv);
    spec.elements =
        static_cast<std::size_t>(flags.get_int_in("elements", 552, 0));
    spec.repetitions = flags.get_positive_int("reps", 4);
    if (flags.get_bool("no-bug", false)) {
      spec.config = machine::SccConfig::bug_fixed();
    }
    for (const std::string& name : flags.unconsumed())
      throw std::runtime_error("unknown flag --" + name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  try {
    std::printf("Allreduce of %zu doubles on %d simulated SCC cores "
                "(MPB arbiter bug workaround: %s)\n\n",
                spec.elements, spec.config.num_cores(),
                spec.config.cost.hw.mpb_bug_workaround ? "on" : "off");

    Table table({"variant", "latency", "speedup vs blocking", "verified"});
    double blocking_us = 0.0;
    for (const harness::PaperVariant v :
         harness::variants_for(harness::Collective::kAllreduce)) {
      spec.variant = v;
      const harness::RunResult r = harness::run_collective(spec);
      const double us = r.mean_latency.us();
      if (v == harness::PaperVariant::kBlocking) blocking_us = us;
      table.add_row({std::string(harness::variant_name(v)),
                     format_duration_us(us),
                     blocking_us > 0.0 ? strprintf("%.2fx", blocking_us / us)
                                       : "-",
                     r.verified ? "yes" : "skipped"});
    }
    table.print(std::cout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
