// GCMC thermodynamics demo: runs the paper's Section V-B application on
// the simulated 48-core SCC and reports the sampled observables plus the
// runtime under a chosen communication stack.
//
// Usage:
//   gcmc_demo [--variant=blocking|ircce|lightweight|lw-balanced|mpb|rckmpi]
//             [--cycles=N] [--particles=N] [--capacity=N] [--kmaxvecs=N]
//             [--seed=S]
//             [--compare]   (run all six stacks and tabulate, Fig. 10 style)
//
// Bad or unknown flags exit with status 2.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <optional>
#include <vector>

#include "common/cli.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "gcmc/app.hpp"

using scc::harness::PaperVariant;

int main(int argc, char** argv) {
  using namespace scc;
  gcmc::AppParams params;
  bool compare = false;
  PaperVariant variant = PaperVariant::kLwBalanced;
  try {
    const CliFlags flags = CliFlags::parse(argc, argv);
    params.model.kmaxvecs = flags.get_int_in("kmaxvecs", 276, 0);
    params.particles_total = flags.get_int_in("particles", 240, 0);
    params.max_local_particles = flags.get_positive_int("capacity", 12);
    params.cycles = flags.get_int_in("cycles", 10, 0);
    params.seed = static_cast<std::uint64_t>(flags.get_int("seed", 2012));
    compare = flags.get_bool("compare", false);
    const std::string name = flags.get("variant", "lw-balanced");
    const std::optional<PaperVariant> parsed = harness::parse_variant(name);
    if (!parsed) throw std::runtime_error("unknown variant: " + name);
    variant = *parsed;
    for (const std::string& flag : flags.unconsumed())
      throw std::runtime_error("unknown flag --" + flag);
    // Particles are dealt round-robin over the cores.
    const int p = machine::SccConfig::paper_default().num_cores();
    if (std::int64_t{params.particles_total} >
        std::int64_t{params.max_local_particles} * p) {
      throw std::runtime_error(strprintf(
          "--particles=%d exceeds %d cores x --capacity=%d",
          params.particles_total, p, params.max_local_particles));
    }
    // The app's largest collective is its 2*kmaxvecs-element Allreduce;
    // reject a size the MPB cannot hold before anything runs.
    harness::RunSpec largest;
    largest.elements = 2 * static_cast<std::size_t>(params.model.kmaxvecs);
    for (const PaperVariant v :
         compare ? harness::variants_for(harness::Collective::kAllreduce)
                 : std::vector<PaperVariant>{variant}) {
      largest.variant = v;
      harness::check_spec(largest);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  try {
    if (compare) {
      std::printf("GCMC, %d particles, %d moves, %d-coefficient long-range "
                  "reduction, 48 cores\n\n",
                  params.particles_total, params.cycles, params.model.kmaxvecs);
      Table table({"variant", "runtime", "speedup", "E_final", "N_final"});
      double blocking = 0.0;
      for (const PaperVariant v :
           harness::variants_for(harness::Collective::kAllreduce)) {
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
