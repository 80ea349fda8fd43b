// GCMC thermodynamics demo: runs the paper's Section V-B application on
// the simulated 48-core SCC and reports the sampled observables plus the
// runtime under a chosen communication stack.
//
// Usage:
//   gcmc_demo [--variant=blocking|ircce|lightweight|lw-balanced|mpb|rckmpi]
//             [--cycles N] [--particles N] [--kmaxvecs N] [--seed S]
//             [--compare]   (run all six stacks and tabulate, Fig. 10 style)
#include <cstdio>
#include <exception>
#include <iostream>

#include "common/cli.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "gcmc/app.hpp"

namespace {

using scc::harness::PaperVariant;

PaperVariant parse_variant(const std::string& name) {
  for (const PaperVariant v :
       {PaperVariant::kRckmpi, PaperVariant::kBlocking, PaperVariant::kIrcce,
        PaperVariant::kLightweight, PaperVariant::kLwBalanced,
        PaperVariant::kMpb}) {
    if (name == scc::harness::variant_name(v)) return v;
  }
  throw std::runtime_error("unknown variant: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scc;
  try {
    const CliFlags flags = CliFlags::parse(argc, argv);
    gcmc::AppParams params;
    params.model.kmaxvecs = flags.get_int_in("kmaxvecs", 276, 0);
    params.particles_total = flags.get_int_in("particles", 240, 0);
    params.max_local_particles = flags.get_int_in("capacity", 12, 0);
    params.cycles = flags.get_int_in("cycles", 10, 0);
    params.seed = static_cast<std::uint64_t>(flags.get_int("seed", 2012));

    if (flags.get_bool("compare", false)) {
      std::printf("GCMC, %d particles, %d moves, %d-coefficient long-range "
                  "reduction, 48 cores\n\n",
                  params.particles_total, params.cycles, params.model.kmaxvecs);
      Table table({"variant", "runtime", "speedup", "E_final", "N_final"});
      double blocking = 0.0;
      for (const PaperVariant v :
           {PaperVariant::kRckmpi, PaperVariant::kBlocking,
            PaperVariant::kIrcce, PaperVariant::kLightweight,
            PaperVariant::kLwBalanced, PaperVariant::kMpb}) {
        const gcmc::AppResult r = gcmc::run_app(params, v);
        const double s = r.runtime.seconds();
        if (v == PaperVariant::kBlocking) blocking = s;
        table.add_row({std::string(harness::variant_name(v)),
                       format_minutes(s),
                       blocking > 0.0 ? strprintf("%.2fx", blocking / s) : "-",
                       strprintf("%.4f", r.final_energy),
                       strprintf("%d", r.final_particles)});
      }
      table.print(std::cout);
      return 0;
    }

    const PaperVariant variant =
        parse_variant(flags.get("variant", "lw-balanced"));
    const gcmc::AppResult r = gcmc::run_app(params, variant);
    std::printf("communication stack : %s\n",
                std::string(harness::variant_name(variant)).c_str());
    std::printf("virtual runtime     : %s\n",
                format_minutes(r.runtime.seconds()).c_str());
    std::printf("moves accepted      : %d / %d\n", r.accepted, r.attempted);
    std::printf("final energy        : %.6f\n", r.final_energy);
    std::printf("final particle count: %d\n", r.final_particles);
    const auto& p0 = r.profiles.front();
    std::printf("core 0 wait share   : %.0f%%\n",
                p0.get(machine::Phase::kFlagWait).seconds() /
                    p0.total().seconds() * 100.0);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
