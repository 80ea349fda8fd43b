// Topology explorer: prints the simulated SCC's mesh layout, memory-
// controller assignment, and the raw access-latency tables from which
// every higher-level result is built -- useful for sanity-checking the
// hardware model against the SCC documentation.
//
// Usage: topology_explorer [--mesh=6x4] [--no-bug] [--from-core=N]
// Bad or unknown flags exit with status 2.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "common/cli.hpp"
#include "common/string_util.hpp"
#include "harness/runner.hpp"
#include "mem/latency.hpp"
#include "noc/topology.hpp"

int main(int argc, char** argv) {
  using namespace scc;
  machine::SccConfig config;
  int origin = 0;
  mem::HwCostModel hw;
  try {
    const CliFlags flags = CliFlags::parse(argc, argv);
    harness::parse_mesh(flags.get("mesh", "6x4"), config);
    hw.mpb_bug_workaround = !flags.get_bool("no-bug", false);
    origin = flags.get_int_in("from-core", 0, 0);
    if (origin >= config.num_cores())
      throw std::runtime_error("--from-core must name a core of the mesh");
    for (const std::string& name : flags.unconsumed())
      throw std::runtime_error("unknown flag --" + name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  try {
    const noc::Topology topo(config.tiles_x, config.tiles_y,
                             config.cores_per_tile);
    const mem::LatencyCalculator calc(hw, topo);

    std::printf("SCC mesh: %dx%d tiles, %d cores, MPB arbiter-bug "
                "workaround %s\n\n",
                topo.tiles_x(), topo.tiles_y(), topo.num_cores(),
                hw.mpb_bug_workaround ? "on" : "off");

    std::printf("tile map (tile id, cores, assigned memory controller):\n");
    for (int y = topo.tiles_y() - 1; y >= 0; --y) {
      for (int x = 0; x < topo.tiles_x(); ++x) {
        const int tile = y * topo.tiles_x() + x;
        const int core = tile * topo.cores_per_tile();
        std::printf(" [t%02d c%02d-%02d MC%d]", tile, core,
                    core + topo.cores_per_tile() - 1, topo.mc_of(core));
      }
      std::printf("\n");
    }

    std::printf("\nMPB read latency from core %d (one 32-byte line, ns):\n",
                origin);
    for (int y = topo.tiles_y() - 1; y >= 0; --y) {
      for (int x = 0; x < topo.tiles_x(); ++x) {
        const int tile = y * topo.tiles_x() + x;
        const int core = tile * topo.cores_per_tile();
        std::printf(" %7.1f", calc.mpb_line_access(origin, core, true).ns());
      }
      std::printf("\n");
    }

    std::printf("\noff-chip (cache miss) latency per core, by hops to its "
                "memory controller:\n");
    for (int hops = 0; hops <= 2 * (topo.tiles_x() + topo.tiles_y()); ++hops) {
      int count = 0;
      double ns = 0.0;
      for (int c = 0; c < topo.num_cores(); ++c) {
        if (topo.weighted_hops_to_mc(c) != hops) continue;
        mem::CacheAccessResult miss;
        miss.misses = 1;
        ns = calc.priv_access(c, miss).ns();
        ++count;
      }
      if (count > 0) {
        std::printf("  %d hop(s): %5.1f ns  (%d cores)\n", hops, ns, count);
      }
    }

    std::printf("\nkey single-line latencies (ns):\n");
    std::printf("  local MPB              : %7.1f\n",
                calc.mpb_line_access(0, 1, true).ns());
    if (topo.num_cores() > 2) {  // a second tile exists
      std::printf("  remote MPB, 1 hop read : %7.1f\n",
                  calc.mpb_line_access(0, 2, true).ns());
    }
    const int far = topo.num_cores() - 1;
    std::printf("  remote MPB, max hops   : %7.1f (%d hops)\n",
                calc.mpb_line_access(0, far, true).ns(), topo.hops(0, far));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
