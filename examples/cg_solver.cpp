// Conjugate-gradient solver on the simulated SCC: the class of
// fine-grained parallel algorithm the paper's introduction argues on-chip
// networks enable ("low latency ... allows finer-grained parallelization
// and enables the scaling of problems to higher core counts").
//
// Solves the 1D Poisson system (tridiagonal [-1, 2, -1]) with rows
// distributed over the cores. Every CG iteration needs
//   - two scalar Allreduces (the dot products), and
//   - one Allgather of the search direction (for the halo exchange of the
//     matrix-vector product; gathering the full vector keeps the example
//     simple and stresses the collective exactly like the paper's app).
// Per-iteration latency is therefore dominated by collective latency --
// run with --variant=blocking vs --variant=lw-balanced to see the paper's
// optimizations translate directly into solver time.
//
// Usage: cg_solver [--variant=blocking|ircce|lightweight|lw-balanced]
//                  [--rows-per-core=N] [--tol=T] [--max-iters=K] [--compare]
//
// Bad or unknown flags exit with status 2.
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <optional>
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

struct SolveConfig {
  std::size_t rows_per_core = 16;
  double tolerance = 1e-10;
  int max_iterations = 200;
  scc::coll::Prims prims = scc::coll::Prims::kLightweight;
  scc::coll::SplitPolicy split = scc::coll::SplitPolicy::kBalanced;
};

struct CoreResult {
  int iterations = 0;
  double residual = 0.0;
  aligned_vector<double> x;  // local solution rows
  scc::SimTime finish;
};

/// y_local = A x (tridiagonal [-1, 2, -1]) for this core's row range, given
/// the full vector x.
void local_matvec(std::span<const double> x_full, std::size_t row0,
                  std::span<double> y_local) {
  const std::size_t n = x_full.size();
  for (std::size_t i = 0; i < y_local.size(); ++i) {
    const std::size_t row = row0 + i;
    double v = 2.0 * x_full[row];
    if (row > 0) v -= x_full[row - 1];
    if (row + 1 < n) v -= x_full[row + 1];
    y_local[i] = v;
  }
}

struct CoreBuffers {
  aligned_vector<double> p_full;   // gathered search direction
  aligned_vector<double> p_local;  // my slice of p
  aligned_vector<double> r, x, ap;
  aligned_vector<double> scalar_in = aligned_vector<double>(2, 0.0);
  aligned_vector<double> scalar_out = aligned_vector<double>(2, 0.0);
};

scc::sim::Task<> cg_core(scc::machine::CoreApi& api,
                         const scc::rcce::Layout& layout,
                         const SolveConfig& config, CoreBuffers& buf,
                         CoreResult& result) {
  scc::coll::Stack stack(api, layout, config.prims);
  const int p = api.num_cores();
  const std::size_t m = config.rows_per_core;           // my rows
  const std::size_t n = m * static_cast<std::size_t>(p);  // global size
  const std::size_t row0 = static_cast<std::size_t>(api.rank()) * m;

  // b = 1 everywhere; x = 0; r = b; p = r.
  buf.p_full.assign(n, 0.0);
  buf.p_local.assign(m, 1.0);
  buf.r.assign(m, 1.0);
  buf.x.assign(m, 0.0);
  buf.ap.assign(m, 0.0);

  const auto dot = [&](std::span<const double> a, std::span<const double> b,
                       int slot) -> scc::sim::Task<double> {
    double local = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) local += a[i] * b[i];
    co_await api.compute(a.size() * 4);  // multiply-add per element
    buf.scalar_in[static_cast<std::size_t>(slot)] = local;
    co_await scc::coll::allreduce(
        stack,
        std::span<const double>(&buf.scalar_in[static_cast<std::size_t>(slot)], 1),
        std::span<double>(&buf.scalar_out[static_cast<std::size_t>(slot)], 1),
        scc::coll::ReduceOp::kSum, config.split);
    co_return buf.scalar_out[static_cast<std::size_t>(slot)];
  };

  double rr = co_await dot(buf.r, buf.r, 0);
  int iter = 0;
  while (iter < config.max_iterations &&
         std::sqrt(rr) > config.tolerance) {
    // Gather the full search direction for the matvec halo.
    co_await scc::coll::allgather(stack, buf.p_local, buf.p_full);
    local_matvec(buf.p_full, row0, buf.ap);
    co_await api.compute(m * 6);
    co_await api.priv_read(buf.p_full.data() + (row0 == 0 ? 0 : row0 - 1),
                           (m + 2) * sizeof(double) > buf.p_full.size() * sizeof(double)
                               ? buf.p_full.size() * sizeof(double)
                               : (m + 2) * sizeof(double));
    co_await api.priv_write(buf.ap.data(), buf.ap.size() * sizeof(double));

    const double pap = co_await dot(buf.p_local, buf.ap, 1);
    const double alpha = rr / pap;
    for (std::size_t i = 0; i < m; ++i) {
      buf.x[i] += alpha * buf.p_local[i];
      buf.r[i] -= alpha * buf.ap[i];
    }
    co_await api.compute(m * 4);
    const double rr_new = co_await dot(buf.r, buf.r, 0);
    const double beta = rr_new / rr;
    for (std::size_t i = 0; i < m; ++i) {
      buf.p_local[i] = buf.r[i] + beta * buf.p_local[i];
    }
    co_await api.compute(m * 2);
    rr = rr_new;
    ++iter;
  }
  result.iterations = iter;
  result.residual = std::sqrt(rr);
  result.x = buf.x;
  co_await api.sync_barrier();
  result.finish = api.now();
}

struct SolveOutcome {
  int iterations;
  double residual;
  double runtime_s;
  double max_error;
};

SolveOutcome solve(const SolveConfig& config, PaperVariant variant) {
  SolveConfig cfg = config;
  cfg.prims = scc::harness::prims_of(variant);
  cfg.split = scc::harness::split_of(variant);
  scc::machine::SccMachine machine;
  const int p = machine.num_cores();
  const scc::rcce::Layout layout(p);
  std::vector<CoreBuffers> buffers(static_cast<std::size_t>(p));
  std::vector<CoreResult> results(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    machine.launch(r, cg_core(machine.core(r), layout, cfg,
                              buffers[static_cast<std::size_t>(r)],
                              results[static_cast<std::size_t>(r)]));
  }
  machine.run();

  // Verify against the closed-form solution of -u'' = 1 with zero
  // boundary: x_i = (i+1)(n-i)/2 for the [-1,2,-1] system with b = 1.
  const std::size_t n =
      cfg.rows_per_core * static_cast<std::size_t>(p);
  double max_error = 0.0;
  for (int r = 0; r < p; ++r) {
    for (std::size_t i = 0; i < cfg.rows_per_core; ++i) {
      const std::size_t row =
          static_cast<std::size_t>(r) * cfg.rows_per_core + i;
      const double expected = 0.5 * static_cast<double>(row + 1) *
                              static_cast<double>(n - row);
      max_error = std::max(
          max_error,
          std::abs(results[static_cast<std::size_t>(r)].x[i] - expected));
    }
  }
  return {results[0].iterations, results[0].residual,
          results[0].finish.seconds(), max_error};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scc;
  SolveConfig config;
  bool compare = false;
  PaperVariant variant = PaperVariant::kLwBalanced;
  try {
    const CliFlags flags = CliFlags::parse(argc, argv);
    config.rows_per_core = static_cast<std::size_t>(
        flags.get_int_in("rows-per-core", 16, 0));
    config.tolerance = flags.get_double("tol", 1e-10);
    config.max_iterations = flags.get_int_in("max-iters", 2000, 0);
    compare = flags.get_bool("compare", false);
    const std::string name = flags.get("variant", "lw-balanced");
    const std::optional<PaperVariant> parsed = harness::parse_variant(name);
    if (!parsed || !harness::stack_based(*parsed))
      throw std::runtime_error("unknown variant (Stack-based only): " + name);
    variant = *parsed;
    for (const std::string& flag : flags.unconsumed())
      throw std::runtime_error("unknown flag --" + flag);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  try {
    if (compare) {
      Table table({"variant", "iterations", "runtime", "speedup", "max error"});
      double blocking = 0.0;
      for (const PaperVariant v :
           {PaperVariant::kBlocking, PaperVariant::kIrcce,
            PaperVariant::kLightweight, PaperVariant::kLwBalanced}) {
        const SolveOutcome outcome = solve(config, v);
        if (v == PaperVariant::kBlocking) blocking = outcome.runtime_s;
        table.add_row({std::string(harness::variant_name(v)),
                       strprintf("%d", outcome.iterations),
                       format_minutes(outcome.runtime_s),
                       strprintf("%.2fx", blocking / outcome.runtime_s),
                       strprintf("%.2e", outcome.max_error)});
      }
      table.print(std::cout);
      return 0;
    }

    const SolveOutcome outcome = solve(config, variant);
    std::printf("CG on %zu unknowns over 48 cores (%s stack)\n",
                config.rows_per_core * 48,
                std::string(harness::variant_name(variant)).c_str());
    std::printf("  iterations : %d\n", outcome.iterations);
    std::printf("  residual   : %.3e\n", outcome.residual);
    std::printf("  max error  : %.3e (vs closed-form solution)\n",
                outcome.max_error);
    std::printf("  runtime    : %s (virtual)\n",
                format_minutes(outcome.runtime_s).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
