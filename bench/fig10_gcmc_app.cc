// Regenerates Fig. 10: total runtime of the Grand-Canonical Monte Carlo
// thermodynamics application under each communication stack. Reported
// times are VIRTUAL (simulated) seconds; the paper's absolute minutes come
// from far longer production runs, so EXPERIMENTS.md compares the
// *ratios* between the bars.
//
//   fig10_gcmc_app [--cycles=12]   (GCMC moves; the app is a single
//                                   deterministic trajectory per variant)
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "bench_support.hpp"
#include "common/cli.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "gcmc/app.hpp"

int main(int argc, char** argv) {
  using scc::harness::PaperVariant;
  scc::gcmc::AppParams params;
  params.model.kmaxvecs = 276;  // the paper's 552-double Allreduce
  params.particles_total = 240;
  params.max_local_particles = 12;
  try {
    const scc::CliFlags flags = scc::CliFlags::parse(argc, argv);
    params.cycles = flags.get_positive_int("cycles", 12);
    for (const std::string& name : flags.unconsumed())
      throw std::runtime_error("unknown flag --" + name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fig10_gcmc_app: %s\n", e.what());
    return 2;
  }

  const PaperVariant variants[] = {
      PaperVariant::kRckmpi,      PaperVariant::kBlocking,
      PaperVariant::kIrcce,       PaperVariant::kLightweight,
      PaperVariant::kLwBalanced,  PaperVariant::kMpb};
  std::map<PaperVariant, scc::gcmc::AppResult> results;
  for (const PaperVariant v : variants) {
    results[v] = scc::gcmc::run_app(params, v);
  }

  std::cout << "=== fig10: GCMC application runtime (48 cores, "
            << params.cycles << " moves, virtual time) ===\n";
  scc::Table table({"variant", "runtime", "vs blocking", "speedup", "accepted",
                    "final energy"});
  const double blocking = results.at(PaperVariant::kBlocking).runtime.seconds();
  for (const PaperVariant v : variants) {
    const auto& r = results.at(v);
    const double s = r.runtime.seconds();
    table.add_row({std::string(scc::harness::variant_name(v)),
                   scc::format_minutes(s), scc::strprintf("%+.1f%%", (s - blocking) / blocking * 100.0),
                   scc::strprintf("%.2fx", blocking / s),
                   scc::strprintf("%d/%d", r.accepted, r.attempted),
                   scc::strprintf("%.4f", r.final_energy)});
  }
  table.print(std::cout);
  scc::bench::write_table("fig10_gcmc_app", table);
  return 0;
}
