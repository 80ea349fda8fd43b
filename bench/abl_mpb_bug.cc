// Ablation for Section IV-D's closing claim: "with the hardware bug
// resolved, we expect to see significantly higher speedups" for the
// MPB-direct Allreduce. Runs the lightweight+balanced stack and the
// MPB-direct routine with the tile-arbiter-bug workaround ON (the real,
// evaluated chip) and OFF (hypothetical fixed silicon), across sizes.
#include <cstdio>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench_support.hpp"
#include "common/cli.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "harness/runner.hpp"

namespace {

using scc::harness::Collective;
using scc::harness::PaperVariant;

double latency_us(PaperVariant v, std::size_t n, bool bug, int reps) {
  scc::harness::RunSpec spec;
  spec.collective = Collective::kAllreduce;
  spec.variant = v;
  spec.elements = n;
  spec.repetitions = reps;
  spec.warmup = 1;
  spec.verify = false;
  spec.config = bug ? scc::machine::SccConfig::paper_default()
                    : scc::machine::SccConfig::bug_fixed();
  return scc::harness::run_collective(spec).mean_latency.us();
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 2;
  try {
    const scc::CliFlags flags = scc::CliFlags::parse(argc, argv);
    reps = flags.get_positive_int("reps", 2);
    for (const std::string& name : flags.unconsumed())
      throw std::runtime_error("unknown flag --" + name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "abl_mpb_bug: %s\n", e.what());
    return 2;
  }

  const std::size_t sizes[] = {500, 552, 576, 648, 700};
  std::cout << "=== Section IV-D ablation: MPB-direct Allreduce vs the "
            << "tile-arbiter bug (48 cores) ===\n";
  scc::Table table({"elements", "arbiter bug", "lw-balanced", "mpb-direct",
                    "mpb speedup"});
  for (const std::size_t n : sizes) {
    for (const bool bug : {true, false}) {
      const double balanced_us =
          latency_us(PaperVariant::kLwBalanced, n, bug, reps);
      const double mpb_us = latency_us(PaperVariant::kMpb, n, bug, reps);
      table.add_row({scc::strprintf("%zu", n),
                     bug ? "workaround on" : "fixed",
                     scc::strprintf("%.1f us", balanced_us),
                     scc::strprintf("%.1f us", mpb_us),
                     scc::strprintf("%.2fx", balanced_us / mpb_us)});
    }
  }
  table.print(std::cout);
  std::cout << "\npaper: ~1.1x with the bug workaround; 'significantly "
            << "higher' expected on fixed silicon.\n";
  scc::bench::write_table("abl_mpb_bug", table);
  return 0;
}
