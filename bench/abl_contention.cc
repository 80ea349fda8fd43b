// Contention ablation (beyond the paper; DESIGN.md lists the optional
// link-contention model): how much do the Fig. 9 latencies shift when
// first-order link queueing is modeled instead of the paper's
// contention-free formulas? Dense patterns (Alltoall, Allgather) should
// shift most; the neighbour-local reduction rings barely.
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

double latency_us(Collective coll, bool contention, int reps) {
  scc::harness::RunSpec spec;
  spec.collective = coll;
  spec.variant = PaperVariant::kLightweight;
  spec.elements = 552;
  spec.repetitions = reps;
  spec.warmup = 1;
  spec.verify = false;
  spec.config.cost.hw.model_link_contention = contention;
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
    std::fprintf(stderr, "abl_contention: %s\n", e.what());
    return 2;
  }

  const Collective collectives[] = {
      Collective::kAllgather, Collective::kAlltoall,
      Collective::kReduceScatter, Collective::kBroadcast, Collective::kReduce,
      Collective::kAllreduce};
  std::cout << "=== Link-contention ablation (lightweight stack, 552 "
            << "doubles, 48 cores) ===\n";
  scc::Table table(
      {"collective", "contention-free", "with contention", "slowdown"});
  for (const Collective coll : collectives) {
    const double off = latency_us(coll, false, reps);
    const double on = latency_us(coll, true, reps);
    table.add_row({std::string(scc::harness::collective_name(coll)),
                   scc::strprintf("%.1f us", off),
                   scc::strprintf("%.1f us", on),
                   scc::strprintf("%+.1f%%", (on - off) / off * 100.0)});
  }
  table.print(std::cout);
  std::cout << "\n(The paper's latency formulas are contention-free; the "
            << "default configuration matches them.)\n";
  scc::bench::write_table("abl_contention", table);
  return 0;
}
