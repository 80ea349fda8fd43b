// 1D heat-diffusion stencil with halo exchange: the nearest-neighbour
// point-to-point pattern that underlies the paper's ring collectives, used
// directly. Each timestep every core exchanges one boundary cell with each
// ring neighbour (two Stack::exchange calls) and advances its slice; a
// periodic Allreduce tracks the global heat for a conservation check.
//
// Shows the same effect as the collective benchmarks at the p2p level:
// with 1-cell halos the per-message software overhead dominates, so the
// lightweight primitives shine brightest.
//
// Usage: heat_stencil [--cells-per-core=N] [--steps=K] [--compare]
// Bad or unknown flags exit with status 2.
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <vector>

#include "coll/collectives.hpp"
#include "coll/stack.hpp"
#include "common/aligned.hpp"
#include "common/cli.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "harness/runner.hpp"
#include "machine/scc_machine.hpp"

namespace {

using scc::aligned_vector;
using scc::harness::PaperVariant;

struct StencilConfig {
  std::size_t cells_per_core = 64;
  int steps = 200;
  int check_every = 50;  // conservation check via Allreduce
  scc::coll::Prims prims = scc::coll::Prims::kLightweight;
};

struct CoreState {
  aligned_vector<double> u, next;
  aligned_vector<double> halo_out = aligned_vector<double>(2, 0.0);
  aligned_vector<double> halo_in = aligned_vector<double>(2, 0.0);
  aligned_vector<double> scalar_in = aligned_vector<double>(1, 0.0);
  aligned_vector<double> scalar_out = aligned_vector<double>(1, 0.0);
  double final_heat = 0.0;
  scc::SimTime finish;
};

scc::sim::Task<> stencil_core(scc::machine::CoreApi& api,
                              const scc::rcce::Layout& layout,
                              const StencilConfig& config, CoreState& st) {
  scc::coll::Stack stack(api, layout, config.prims);
  const int p = api.num_cores();
  const int rank = api.rank();
  const int right = (rank + 1) % p;
  const int left = (rank + p - 1) % p;
  const std::size_t m = config.cells_per_core;

  // Initial condition: a hot spike on core 0 (periodic domain).
  st.u.assign(m, 0.0);
  st.next.assign(m, 0.0);
  if (rank == 0) st.u[m / 2] = 1000.0;

  constexpr double kAlpha = 0.2;  // diffusion number (stable: <= 0.5)
  for (int step = 0; step < config.steps; ++step) {
    // Halo exchange: my first cell goes left, my last goes right; I
    // receive the neighbours' boundary cells. Two ring exchanges.
    st.halo_out[0] = st.u[0];
    st.halo_out[1] = st.u[m - 1];
    co_await api.priv_read(st.u.data(), sizeof(double));
    co_await api.priv_read(st.u.data() + (m - 1), sizeof(double));
    // Send right boundary to the right neighbour / receive the left halo.
    co_await stack.exchange(
        std::as_bytes(std::span<const double>(&st.halo_out[1], 1)), right,
        std::as_writable_bytes(std::span<double>(&st.halo_in[0], 1)), left);
    // Send left boundary to the left neighbour / receive the right halo.
    co_await stack.exchange(
        std::as_bytes(std::span<const double>(&st.halo_out[0], 1)), left,
        std::as_writable_bytes(std::span<double>(&st.halo_in[1], 1)), right);

    const auto at = [&](std::ptrdiff_t i) -> double {
      if (i < 0) return st.halo_in[0];
      if (i >= static_cast<std::ptrdiff_t>(m)) return st.halo_in[1];
      return st.u[static_cast<std::size_t>(i)];
    };
    for (std::size_t i = 0; i < m; ++i) {
      const auto si = static_cast<std::ptrdiff_t>(i);
      st.next[i] = at(si) + kAlpha * (at(si - 1) - 2.0 * at(si) + at(si + 1));
    }
    co_await api.compute(m * 6);
    co_await api.priv_read(st.u.data(), m * sizeof(double));
    co_await api.priv_write(st.next.data(), m * sizeof(double));
    st.u.swap(st.next);

    if ((step + 1) % config.check_every == 0) {
      double local = 0.0;
      for (const double v : st.u) local += v;
      co_await api.compute(m * 2);
      st.scalar_in[0] = local;
      co_await scc::coll::allreduce(
          stack, std::span<const double>(st.scalar_in.data(), 1),
          std::span<double>(st.scalar_out.data(), 1),
          scc::coll::ReduceOp::kSum, scc::coll::SplitPolicy::kBalanced);
      st.final_heat = st.scalar_out[0];
    }
  }
  co_await api.sync_barrier();
  st.finish = api.now();
}

struct Outcome {
  double runtime_s;
  double heat;
};

Outcome run(const StencilConfig& config) {
  scc::machine::SccMachine machine;
  const int p = machine.num_cores();
  const scc::rcce::Layout layout(p);
  std::vector<CoreState> states(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    machine.launch(r, stencil_core(machine.core(r), layout, config,
                                   states[static_cast<std::size_t>(r)]));
  }
  machine.run();
  return {states[0].finish.seconds(), states[0].final_heat};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scc;
  StencilConfig config;
  bool compare = false;
  try {
    const CliFlags flags = CliFlags::parse(argc, argv);
    // The stencil reads the first and last cell of every core's slice.
    config.cells_per_core = static_cast<std::size_t>(
        flags.get_positive_int("cells-per-core", 64));
    config.steps = flags.get_int_in("steps", 200, 0);
    compare = flags.get_bool("compare", false);
    for (const std::string& name : flags.unconsumed())
      throw std::runtime_error("unknown flag --" + name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  try {
    if (compare) {
      Table table({"variant", "runtime", "speedup", "total heat"});
      double blocking = 0.0;
      for (const auto& [prims, name] :
           {std::pair{coll::Prims::kBlocking, "blocking"},
            std::pair{coll::Prims::kIrcce, "ircce"},
            std::pair{coll::Prims::kLightweight, "lightweight"}}) {
        config.prims = prims;
        const Outcome outcome = run(config);
        if (prims == coll::Prims::kBlocking) blocking = outcome.runtime_s;
        table.add_row({name, format_minutes(outcome.runtime_s),
                       strprintf("%.2fx", blocking / outcome.runtime_s),
                       strprintf("%.6f", outcome.heat)});
      }
      table.print(std::cout);
      std::printf("\n(total heat must stay 1000 on the periodic domain)\n");
      return 0;
    }

    const Outcome outcome = run(config);
    std::printf("heat stencil: %zu cells on 48 cores, %d steps\n",
                config.cells_per_core * 48, config.steps);
    std::printf("  runtime    : %s (virtual)\n",
                format_minutes(outcome.runtime_s).c_str());
    std::printf("  total heat : %.6f (conserved: %s)\n", outcome.heat,
                std::abs(outcome.heat - 1000.0) < 1e-6 ? "yes" : "NO");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
