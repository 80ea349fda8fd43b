// Scaling ablation (beyond the paper's figures, motivated by its
// introduction: "low latency ... enables the scaling of problems to higher
// core counts"): Allreduce(552) latency and speedup-over-blocking as the
// mesh grows from 1x1 (2 cores) to the full 6x4 SCC (48 cores). Shows that
// the lightweight-stack advantage *grows* with the core count -- the
// synchronization and per-call overheads the paper removes are per-round
// costs, and ring algorithms have p-1 rounds.
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

struct Mesh {
  int x, y;
};

double latency_us(PaperVariant v, Mesh mesh, int reps) {
  scc::harness::RunSpec spec;
  spec.collective = Collective::kAllreduce;
  spec.variant = v;
  spec.elements = 552;
  spec.repetitions = reps;
  spec.warmup = 1;
  spec.verify = false;
  spec.config.tiles_x = mesh.x;
  spec.config.tiles_y = mesh.y;
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
    std::fprintf(stderr, "abl_scaling: %s\n", e.what());
    return 2;
  }

  const Mesh meshes[] = {{1, 1}, {2, 1}, {2, 2}, {3, 2}, {4, 3}, {6, 4}};
  std::cout << "=== Allreduce(552) scaling with core count ===\n";
  scc::Table table({"cores", "blocking", "lw-balanced", "speedup"});
  for (const Mesh mesh : meshes) {
    const double blocking = latency_us(PaperVariant::kBlocking, mesh, reps);
    const double balanced = latency_us(PaperVariant::kLwBalanced, mesh, reps);
    table.add_row({scc::strprintf("%d", mesh.x * mesh.y * 2),
                   scc::strprintf("%.1f us", blocking),
                   scc::strprintf("%.1f us", balanced),
                   scc::strprintf("%.2fx", blocking / balanced)});
  }
  table.print(std::cout);
  scc::bench::write_table("abl_scaling", table);
  return 0;
}
