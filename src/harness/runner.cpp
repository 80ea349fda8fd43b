#include "harness/runner.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "coll/collectives.hpp"
#include "coll/mpb_allreduce.hpp"
#include "coll/nbc.hpp"
#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "machine/scc_machine.hpp"
#include "metrics/collect.hpp"
#include "rckmpi/mpi.hpp"

namespace scc::harness {

namespace {

constexpr int kRoot = 0;  // root used by Reduce/Broadcast experiments

/// Shared by the trace run scope and the metrics snapshot label. The algo
/// suffix only appears when an override is set, so labels of existing runs
/// (and the baselines keyed on them) are unchanged.
std::string run_label(const RunSpec& spec) {
  std::string label =
      strprintf("%s/%s n=%zu",
                std::string(collective_name(spec.collective)).c_str(),
                std::string(variant_name(spec.variant)).c_str(),
                spec.elements);
  if (spec.algo) {
    label += strprintf(" algo=%s",
                       std::string(coll::algo_name(*spec.algo)).c_str());
  }
  if (spec.nonblocking) {
    label += strprintf(" nbc lanes=%d", spec.nbc_lanes);
  }
  if (!spec.config.faults.empty()) {
    label += strprintf(" faults=%s", spec.config.faults.to_string().c_str());
  }
  return label;
}

struct CoreData {
  aligned_vector<double> in;
  aligned_vector<double> out;
  std::vector<SimTime> samples;  // filled by rank 0
  std::vector<std::pair<SimTime, SimTime>> windows;  // rank 0, absolute
  int owned_block = -1;          // ReduceScatter result block
  std::vector<std::size_t> agv_counts;  // Allgatherv per-core counts
};

/// Integer-valued inputs: ring and tree reduction orders then agree
/// bit-for-bit with the serial reference (sums stay far below 2^53).
void fill_input(aligned_vector<double>& v, std::uint64_t seed, int rank) {
  Xoshiro256 rng(seed * 1000003 + static_cast<std::uint64_t>(rank));
  for (double& x : v) x = static_cast<double>(rng.below(1000));
}

struct Buffers {
  std::size_t in_elems = 0;
  std::size_t out_elems = 0;
};

Buffers buffer_sizes(Collective c, std::size_t n, int p) {
  switch (c) {
    case Collective::kAllgather:
      return {n, n * static_cast<std::size_t>(p)};
    case Collective::kAlltoall:
      return {n * static_cast<std::size_t>(p), n * static_cast<std::size_t>(p)};
    case Collective::kReduceScatter:
    case Collective::kBroadcast:
    case Collective::kReduce:
    case Collective::kAllreduce:
      return {n, n};
    case Collective::kScatter:
      // Every rank allocates the root-sized send buffer; only the root's
      // contents matter, but uniform sizing keeps the setup loop simple.
      return {n * static_cast<std::size_t>(p), n};
    case Collective::kGather:
      return {n, n * static_cast<std::size_t>(p)};
    case Collective::kAllgatherv:
      return {0, 0};  // per-rank sizes; run_collective sizes these itself
  }
  return {n, n};
}

/// Deterministic irregular decomposition for Allgatherv: per-core counts in
/// [0, n] drawn from the run seed (shared by setup and verification).
std::vector<std::size_t> allgatherv_counts(std::uint64_t seed, int p,
                                           std::size_t n) {
  Xoshiro256 rng(seed ^ 0xa11647e7'0a11647eULL);
  std::vector<std::size_t> counts(static_cast<std::size_t>(p));
  bool any = false;
  for (auto& c : counts) {
    c = rng.below(n + 1);
    any = any || c > 0;
  }
  if (!any) counts[0] = n > 0 ? n : 1;  // keep the gathered vector non-empty
  return counts;
}

coll::Prims prims_of(PaperVariant v) {
  switch (v) {
    case PaperVariant::kBlocking: return coll::Prims::kBlocking;
    case PaperVariant::kIrcce: return coll::Prims::kIrcce;
    default: return coll::Prims::kLightweight;
  }
}

coll::SplitPolicy split_of(PaperVariant v) {
  return (v == PaperVariant::kLwBalanced || v == PaperVariant::kMpb)
             ? coll::SplitPolicy::kBalanced
             : coll::SplitPolicy::kStandard;
}

coll::SplitPolicy effective_split(const RunSpec& spec) {
  return spec.split_override.value_or(split_of(spec.variant));
}

/// One invocation of the collective under test, RCCE-family variants.
sim::Task<> run_op_rcce(coll::Stack& stack, coll::MpbAllreduce* mpb,
                        const RunSpec& spec, CoreData& data) {
  const coll::SplitPolicy split = effective_split(spec);
  const auto algo = [&](coll::CollKind kind) {
    return spec.algo.value_or(coll::paper_algo(kind));
  };
  switch (spec.collective) {
    case Collective::kAllgather:
      co_await coll::allgather(stack, data.in, data.out,
                               algo(coll::CollKind::kAllgather));
      co_return;
    case Collective::kAlltoall:
      co_await coll::alltoall(stack, data.in, data.out,
                              algo(coll::CollKind::kAlltoall));
      co_return;
    case Collective::kReduceScatter:
      data.owned_block = co_await coll::reduce_scatter(
          stack, data.in, data.out, coll::ReduceOp::kSum, split,
          algo(coll::CollKind::kReduceScatter));
      co_return;
    case Collective::kBroadcast:
      co_await coll::broadcast(stack, data.out, kRoot, split);
      co_return;
    case Collective::kReduce:
      co_await coll::reduce(stack, data.in, data.out, coll::ReduceOp::kSum,
                            kRoot, split);
      co_return;
    case Collective::kAllreduce:
      if (spec.variant == PaperVariant::kMpb) {
        co_await mpb->run(data.in, data.out, coll::ReduceOp::kSum, split);
      } else {
        co_await coll::allreduce(stack, data.in, data.out,
                                 coll::ReduceOp::kSum, split,
                                 algo(coll::CollKind::kAllreduce));
      }
      co_return;
    case Collective::kScatter:
      co_await coll::scatter(stack, data.in, data.out, kRoot);
      co_return;
    case Collective::kGather:
      co_await coll::gather(stack, data.in, data.out, kRoot);
      co_return;
    case Collective::kAllgatherv:
      co_await coll::allgatherv(stack, data.in, data.agv_counts, data.out);
      co_return;
  }
}

/// One invocation through the non-blocking API: initiate, then drive the
/// engine to completion. Single-request wait() at one lane replays the
/// blocking wire schedule exactly; the value of this path is exercising the
/// full initiate/progress/complete machinery under the harness' verify,
/// metrics and perturbation plumbing.
sim::Task<> run_op_nbc(coll::nbc::ProgressEngine& engine, const RunSpec& spec,
                       CoreData& data) {
  const coll::SplitPolicy split = effective_split(spec);
  const auto algo = [&](coll::CollKind kind) {
    return spec.algo.value_or(coll::paper_algo(kind));
  };
  coll::nbc::CollRequest req;
  switch (spec.collective) {
    case Collective::kAllgather:
      req = engine.iallgather(data.in, data.out,
                              algo(coll::CollKind::kAllgather));
      break;
    case Collective::kAlltoall:
      req = engine.ialltoall(data.in, data.out,
                             algo(coll::CollKind::kAlltoall));
      break;
    case Collective::kBroadcast:
      req = engine.ibcast(data.out, kRoot, split);
      break;
    case Collective::kAllreduce:
      req = engine.iallreduce(data.in, data.out, coll::ReduceOp::kSum, split,
                              algo(coll::CollKind::kAllreduce));
      break;
    default:
      SCC_ASSERT(false);  // rejected up front by run_collective
  }
  co_await req.wait();
}

sim::Task<> run_op_mpi(rckmpi::Mpi& mpi, const RunSpec& spec,
                       CoreData& data) {
  switch (spec.collective) {
    case Collective::kAllgather:
      co_await mpi.allgather(data.in, data.out);
      co_return;
    case Collective::kAlltoall:
      co_await mpi.alltoall(data.in, data.out);
      co_return;
    case Collective::kReduceScatter:
      data.owned_block = co_await mpi.reduce_scatter(data.in, data.out,
                                                     rckmpi::ReduceOp::kSum);
      co_return;
    case Collective::kBroadcast:
      co_await mpi.bcast(data.out, kRoot);
      co_return;
    case Collective::kReduce:
      co_await mpi.reduce(data.in, data.out, rckmpi::ReduceOp::kSum, kRoot);
      co_return;
    case Collective::kAllreduce:
      co_await mpi.allreduce(data.in, data.out, rckmpi::ReduceOp::kSum);
      co_return;
    case Collective::kScatter:
    case Collective::kGather:
    case Collective::kAllgatherv:
      // Not in variants_for() for the RCKMPI baseline; unreachable.
      SCC_ASSERT(false);
      co_return;
  }
}

sim::Task<> core_program(machine::CoreApi& api, const rcce::Layout& layout,
                         const rckmpi::ChannelLayout* mpi_layout,
                         const RunSpec& spec, CoreData& data) {
  // Persistent per-core communication objects (the MPB Allreduce keeps
  // handshake sequence state across repetitions by design).
  coll::Stack stack(api, layout, prims_of(spec.variant));
  coll::MpbAllreduce mpb(api, layout);
  std::optional<rckmpi::Mpi> mpi;
  if (spec.variant == PaperVariant::kRckmpi) {
    SCC_ASSERT(mpi_layout != nullptr);
    mpi.emplace(api, *mpi_layout);
  }
  std::optional<coll::nbc::ProgressEngine> engine;
  if (spec.nonblocking) {
    engine.emplace(api, prims_of(spec.variant), spec.nbc_lanes);
  }
  const int total = spec.warmup + spec.repetitions;
  for (int rep = 0; rep < total; ++rep) {
    co_await api.sync_barrier();
    const SimTime start = api.now();
    if (engine) {
      co_await run_op_nbc(*engine, spec, data);
    } else if (mpi) {
      co_await run_op_mpi(*mpi, spec, data);
    } else {
      co_await run_op_rcce(stack, &mpb, spec, data);
    }
    if (api.rank() == 0 && rep >= spec.warmup) {
      data.samples.push_back(api.now() - start);
      data.windows.emplace_back(start, api.now());
    }
  }
  co_await api.sync_barrier();
}

void verify_results(const RunSpec& spec, int p,
                    const std::vector<CoreData>& data) {
  const std::size_t n = spec.elements;
  const auto fail = [&](const std::string& what) {
    throw std::runtime_error(
        strprintf("verification failed (%s/%s, n=%zu): %s",
                  std::string(collective_name(spec.collective)).c_str(),
                  std::string(variant_name(spec.variant)).c_str(), n,
                  what.c_str()));
  };
  const auto expect_eq = [&](double got, double want, const char* where) {
    if (got != want) {
      fail(strprintf("%s: got %.17g want %.17g", where, got, want));
    }
  };
  switch (spec.collective) {
    case Collective::kAllgather: {
      for (int r = 0; r < p; ++r)
        for (int src = 0; src < p; ++src)
          for (std::size_t i = 0; i < n; ++i)
            expect_eq(data[static_cast<std::size_t>(r)]
                          .out[static_cast<std::size_t>(src) * n + i],
                      data[static_cast<std::size_t>(src)].in[i], "allgather");
      return;
    }
    case Collective::kAlltoall: {
      for (int r = 0; r < p; ++r)
        for (int src = 0; src < p; ++src)
          for (std::size_t i = 0; i < n; ++i)
            expect_eq(data[static_cast<std::size_t>(r)]
                          .out[static_cast<std::size_t>(src) * n + i],
                      data[static_cast<std::size_t>(src)]
                          .in[static_cast<std::size_t>(r) * n + i],
                      "alltoall");
      return;
    }
    case Collective::kBroadcast: {
      for (int r = 0; r < p; ++r)
        for (std::size_t i = 0; i < n; ++i)
          expect_eq(data[static_cast<std::size_t>(r)].out[i],
                    data[kRoot].in[i], "broadcast");
      return;
    }
    case Collective::kScatter: {
      for (int r = 0; r < p; ++r)
        for (std::size_t i = 0; i < n; ++i)
          expect_eq(data[static_cast<std::size_t>(r)].out[i],
                    data[kRoot].in[static_cast<std::size_t>(r) * n + i],
                    "scatter");
      return;
    }
    case Collective::kGather: {
      for (int src = 0; src < p; ++src)
        for (std::size_t i = 0; i < n; ++i)
          expect_eq(data[kRoot].out[static_cast<std::size_t>(src) * n + i],
                    data[static_cast<std::size_t>(src)].in[i], "gather");
      return;
    }
    case Collective::kAllgatherv: {
      const auto counts = allgatherv_counts(spec.seed, p, n);
      for (int r = 0; r < p; ++r) {
        std::size_t offset = 0;
        for (int src = 0; src < p; ++src) {
          for (std::size_t i = 0; i < counts[static_cast<std::size_t>(src)];
               ++i)
            expect_eq(data[static_cast<std::size_t>(r)].out[offset + i],
                      data[static_cast<std::size_t>(src)].in[i], "allgatherv");
          offset += counts[static_cast<std::size_t>(src)];
        }
      }
      return;
    }
    case Collective::kReduce:
    case Collective::kAllreduce:
    case Collective::kReduceScatter: {
      std::vector<double> want(n, 0.0);
      for (int src = 0; src < p; ++src)
        for (std::size_t i = 0; i < n; ++i)
          want[i] += data[static_cast<std::size_t>(src)].in[i];
      if (spec.collective == Collective::kReduce) {
        for (std::size_t i = 0; i < n; ++i)
          expect_eq(data[kRoot].out[i], want[i], "reduce@root");
      } else if (spec.collective == Collective::kAllreduce) {
        for (int r = 0; r < p; ++r)
          for (std::size_t i = 0; i < n; ++i)
            expect_eq(data[static_cast<std::size_t>(r)].out[i], want[i],
                      "allreduce");
      } else {
        const coll::SplitPolicy policy =
            spec.variant == PaperVariant::kRckmpi ? coll::SplitPolicy::kBalanced
                                                  : effective_split(spec);
        // Both stacks' ring direction leaves core i owning block (i+1)%p.
        const auto blocks = coll::split_blocks(n, p, policy);
        for (int r = 0; r < p; ++r) {
          const int ob = data[static_cast<std::size_t>(r)].owned_block;
          if (ob < 0 || ob >= p) fail("reducescatter: no owned block");
          const coll::Block& b = blocks[static_cast<std::size_t>(ob)];
          for (std::size_t i = b.offset; i < b.offset + b.count; ++i)
            expect_eq(data[static_cast<std::size_t>(r)].out[i], want[i],
                      "reducescatter");
        }
      }
      return;
    }
  }
}

}  // namespace

std::vector<PaperVariant> variants_for(Collective c) {
  switch (c) {
    case Collective::kAllgather:
    case Collective::kAlltoall:
      return {PaperVariant::kRckmpi, PaperVariant::kBlocking,
              PaperVariant::kIrcce, PaperVariant::kLightweight};
    case Collective::kScatter:
    case Collective::kGather:
    case Collective::kAllgatherv:
      // RCCE-family only: RCKMPI has no counterpart wired up, and neither
      // split policy nor the MPB path applies.
      return {PaperVariant::kBlocking, PaperVariant::kIrcce,
              PaperVariant::kLightweight};
    case Collective::kReduceScatter:
    case Collective::kBroadcast:
    case Collective::kReduce:
      return {PaperVariant::kRckmpi, PaperVariant::kBlocking,
              PaperVariant::kIrcce, PaperVariant::kLightweight,
              PaperVariant::kLwBalanced};
    case Collective::kAllreduce:
      return {PaperVariant::kRckmpi,      PaperVariant::kBlocking,
              PaperVariant::kIrcce,       PaperVariant::kLightweight,
              PaperVariant::kLwBalanced,  PaperVariant::kMpb};
  }
  return {};
}

std::optional<coll::CollKind> algo_kind(Collective c) {
  switch (c) {
    case Collective::kAllgather: return coll::CollKind::kAllgather;
    case Collective::kAlltoall: return coll::CollKind::kAlltoall;
    case Collective::kReduceScatter: return coll::CollKind::kReduceScatter;
    case Collective::kAllreduce: return coll::CollKind::kAllreduce;
    default: return std::nullopt;
  }
}

RunResult run_collective(const RunSpec& spec) {
  if (spec.variant == PaperVariant::kMpb &&
      spec.collective != Collective::kAllreduce) {
    throw std::runtime_error(
        "the MPB-direct variant exists only for Allreduce (paper IV-D)");
  }
  if (spec.algo) {
    // Algorithm overrides exist on the Stack-based (RCCE-family) paths
    // only: RCKMPI and the MPB-direct Allreduce have their own schedules.
    if (spec.variant == PaperVariant::kRckmpi ||
        spec.variant == PaperVariant::kMpb) {
      throw std::runtime_error(strprintf(
          "--algo is not supported for the %s variant",
          std::string(variant_name(spec.variant)).c_str()));
    }
    const auto kind = algo_kind(spec.collective);
    if (!kind) {
      throw std::runtime_error(strprintf(
          "%s has no algorithm variants",
          std::string(collective_name(spec.collective)).c_str()));
    }
    if (*spec.algo != coll::Algo::kAuto &&
        !coll::algo_valid_for(*kind, *spec.algo)) {
      throw std::runtime_error(strprintf(
          "algorithm %s is not implemented for %s",
          std::string(coll::algo_name(*spec.algo)).c_str(),
          std::string(collective_name(spec.collective)).c_str()));
    }
  }
  if (spec.nonblocking) {
    if (spec.variant == PaperVariant::kRckmpi ||
        spec.variant == PaperVariant::kMpb) {
      throw std::runtime_error(strprintf(
          "--nbc is not supported for the %s variant (no i*() entry point)",
          std::string(variant_name(spec.variant)).c_str()));
    }
    switch (spec.collective) {
      case Collective::kAllgather:
      case Collective::kAlltoall:
      case Collective::kBroadcast:
      case Collective::kAllreduce:
        break;
      default:
        throw std::runtime_error(strprintf(
            "%s has no non-blocking entry point (coll/nbc.hpp)",
            std::string(collective_name(spec.collective)).c_str()));
    }
    if (spec.nbc_lanes < 1) {
      throw std::runtime_error("--nbc-lanes must be >= 1");
    }
    if (spec.nbc_lanes > 1 && spec.variant == PaperVariant::kBlocking) {
      throw std::runtime_error(
          "the blocking stack cannot interleave lanes (its synchronous "
          "handshake has no poll-and-yield completion); use --nbc-lanes=1");
    }
  }
  SCC_EXPECTS(spec.repetitions >= 1);

  machine::SccConfig config = spec.config;
  const int p = config.num_cores();
  rcce::Layout layout(p);
  int flags_needed = layout.flags_needed();
  if (spec.nonblocking) {
    // The widest lane's flag range bounds the engine's whole flag use.
    flags_needed = std::max(
        flags_needed,
        rcce::Layout::lane(p, spec.nbc_lanes - 1, spec.nbc_lanes)
            .flags_needed());
  }
  std::optional<rckmpi::ChannelLayout> mpi_layout;
  if (spec.variant == PaperVariant::kRckmpi) {
    mpi_layout.emplace(layout);
    flags_needed = mpi_layout->flags_needed();
  }
  config.flags_per_core = std::max(config.flags_per_core, flags_needed);
  machine::SccMachine machine(config);
  if (spec.trace) {
    spec.trace->begin_run(run_label(spec));
    machine.attach_trace(spec.trace);
  }
  std::optional<metrics::Sampler> sampler;
  if (spec.sample_interval > SimTime::zero()) {
    sampler.emplace(spec.sample_interval);
    sampler->set_label(run_label(spec));
    metrics::add_machine_columns(machine, *sampler);
    sampler->attach(machine.engine());
  }

  const Buffers sizes = buffer_sizes(spec.collective, spec.elements, p);
  std::vector<std::size_t> agv_counts;
  std::size_t agv_total = 0;
  if (spec.collective == Collective::kAllgatherv) {
    agv_counts = allgatherv_counts(spec.seed, p, spec.elements);
    for (const std::size_t c : agv_counts) agv_total += c;
  }
  std::vector<CoreData> data(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    auto& d = data[static_cast<std::size_t>(r)];
    if (spec.collective == Collective::kAllgatherv) {
      d.agv_counts = agv_counts;
      d.in.resize(agv_counts[static_cast<std::size_t>(r)]);
      d.out.resize(agv_total, 0.0);
    } else {
      d.in.resize(sizes.in_elems);
      d.out.resize(sizes.out_elems, 0.0);
    }
    fill_input(d.in, spec.seed, r);
    if (spec.collective == Collective::kBroadcast && r == kRoot) {
      d.out = d.in;  // the root broadcasts its own data in place
    }
  }

  for (int r = 0; r < p; ++r) {
    machine.launch(
        r, core_program(machine.core(r), layout,
                        mpi_layout ? &*mpi_layout : nullptr, spec,
                        data[static_cast<std::size_t>(r)]));
  }
  machine.run();

  if (spec.verify) verify_results(spec, p, data);

  RunResult result;
  const auto& samples = data[0].samples;
  SCC_ASSERT(samples.size() == static_cast<std::size_t>(spec.repetitions));
  SimTime sum, min_s = SimTime::max(), max_s;
  for (const SimTime s : samples) {
    sum += s;
    min_s = std::min(min_s, s);
    max_s = std::max(max_s, s);
  }
  result.mean_latency =
      SimTime{sum.femtoseconds() / static_cast<std::uint64_t>(samples.size())};
  result.min_latency = min_s;
  result.max_latency = max_s;
  result.verified = spec.verify;
  result.events = machine.engine().events_processed();
  result.lines_sent = machine.traffic().total_lines_sent();
  result.line_hops = machine.traffic().total_line_hops();
  result.sample_windows = data[0].windows;
  result.latencies = samples;
  if (sampler) {
    machine.engine().clear_probe();
    result.timeseries = sampler->take();
  }
  if (spec.capture_outputs) {
    result.outputs.reserve(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      const auto& out = data[static_cast<std::size_t>(r)].out;
      result.outputs.emplace_back(out.begin(), out.end());
    }
  }
  if (spec.collect_profiles) {
    result.profiles.reserve(static_cast<std::size_t>(p));
    result.cache_stats.reserve(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      result.profiles.push_back(machine.core(r).profile());
      result.cache_stats.push_back(machine.cache(r).stats());
    }
  }
  if (spec.collect_metrics) {
    result.metrics.emplace();
    result.metrics->set_label(run_label(spec));
    metrics::collect_machine(machine, *result.metrics);
    if (mpi_layout) {
      metrics::collect_channel(mpi_layout->stats(), *result.metrics);
    }
    result.metrics->set_time("run/mean_latency_fs", result.mean_latency);
    result.metrics->set_time("run/min_latency_fs", result.min_latency);
    result.metrics->set_time("run/max_latency_fs", result.max_latency);
    result.metrics->set("run/repetitions",
                        static_cast<std::uint64_t>(spec.repetitions));
    result.metrics->set("run/lines_sent", result.lines_sent,
                        metrics::Unit::kCount, /*invariant=*/true);
    result.metrics->set("run/line_hops", result.line_hops,
                        metrics::Unit::kCount, /*invariant=*/true);
  }
  return result;
}

}  // namespace scc::harness
