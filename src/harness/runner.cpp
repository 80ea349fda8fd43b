#include "harness/runner.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "harness/comm.hpp"
#include "machine/scc_machine.hpp"
#include "metrics/collect.hpp"

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
  if (spec.nbc_lanes > 0) {
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
/// [0, n] drawn from the run seed.
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

sim::Task<> core_program(machine::CoreApi& api, const CommLayout& layout,
                         const RunSpec& spec, CoreData& data) {
  Comm comm(api, layout, spec.variant,
            spec.split_override.value_or(split_of(spec.variant)), spec.algo,
            spec.nbc_lanes);
  const int total = spec.warmup + spec.repetitions;
  for (int rep = 0; rep < total; ++rep) {
    co_await api.sync_barrier();
    const SimTime start = api.now();
    if (spec.nbc_lanes > 0) {
      // Initiate, then drive the engine to completion: one lane replays
      // the blocking wire schedule exactly, under the same verify, metrics
      // and perturbation plumbing.
      coll::nbc::CollRequest req =
          comm.start(spec.collective, data.in, data.out, kRoot);
      co_await req.wait();
    } else {
      data.owned_block = co_await comm.run(spec.collective, data.in,
                                           data.out, kRoot, data.agv_counts);
    }
    if (api.rank() == 0 && rep >= spec.warmup) {
      data.samples.push_back(api.now() - start);
      data.windows.emplace_back(start, api.now());
    }
  }
  co_await api.sync_barrier();
}

void verify_results(const RunSpec& spec, const std::vector<CoreData>& data) {
  std::vector<std::span<const double>> in, out;
  std::vector<int> owned;
  for (const CoreData& d : data) {
    in.emplace_back(d.in);
    out.emplace_back(d.out);
    owned.push_back(d.owned_block);
  }
  // Both stacks' ring direction leaves core i owning block (i+1)%p; RCKMPI
  // splits its ReduceScatter blocks balanced.
  const coll::SplitPolicy split =
      spec.variant == PaperVariant::kRckmpi
          ? coll::SplitPolicy::kBalanced
          : spec.split_override.value_or(split_of(spec.variant));
  const std::optional<std::string> bad = check_outputs(
      {spec.collective, spec.elements, kRoot, in, out, owned, split,
       data[0].agv_counts});
  if (bad) {
    throw std::runtime_error(
        strprintf("verification failed (%s/%s, n=%zu): %s",
                  std::string(collective_name(spec.collective)).c_str(),
                  std::string(variant_name(spec.variant)).c_str(),
                  spec.elements, bad->c_str()));
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

std::optional<PaperVariant> parse_variant(std::string_view name) {
  // Allreduce is plotted under all six variants.
  for (const PaperVariant v : variants_for(Collective::kAllreduce)) {
    if (name == variant_name(v)) return v;
  }
  return std::nullopt;
}

std::optional<Collective> parse_collective(std::string_view name) {
  for (const Collective c : kAllCollectives) {
    if (name == collective_name(c)) return c;
  }
  return std::nullopt;
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

void parse_mesh(std::string_view value, machine::SccConfig& config) {
  const auto mesh = split(value, 'x');
  if (mesh.size() != 2) throw std::runtime_error("--mesh expects WxH");
  const int w = parse_int_in(mesh[0], "--mesh width", 1);
  const int h = parse_int_in(mesh[1], "--mesh height", 1);
  const std::int64_t cores =
      std::int64_t{w} * std::int64_t{h} * config.cores_per_tile;
  if (cores > rcce::Layout::max_cores()) {
    throw std::runtime_error(strprintf(
        "--mesh=%dx%d has %lld cores; the %zu-byte MPB holds at most %d",
        w, h, static_cast<long long>(cores), mem::kMpbBytesPerCore,
        rcce::Layout::max_cores()));
  }
  config.tiles_x = w;
  config.tiles_y = h;
}

void check_spec(const RunSpec& spec) {
  if (spec.variant == PaperVariant::kMpb &&
      spec.collective != Collective::kAllreduce) {
    throw std::runtime_error(
        "the MPB-direct variant exists only for Allreduce (paper IV-D)");
  }
  if (spec.variant == PaperVariant::kRckmpi &&
      spec.collective > Collective::kAllreduce) {
    throw std::runtime_error(strprintf(
        "rckmpi has no %s (only the Fig. 9 collectives are wired up)",
        std::string(collective_name(spec.collective)).c_str()));
  }
  if (spec.algo) {
    // Algorithm overrides exist on the Stack-based (RCCE-family) paths
    // only: RCKMPI and the MPB-direct Allreduce have their own schedules.
    if (!stack_based(spec.variant)) {
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
  if (spec.nbc_lanes < 0) {
    throw std::runtime_error("RunSpec::nbc_lanes must be >= 0");
  }
  if (spec.nbc_lanes > 0) {
    if (!stack_based(spec.variant)) {
      throw std::runtime_error(strprintf(
          "RunSpec::nbc_lanes is not supported for the %s variant (no i*() "
          "entry point)",
          std::string(variant_name(spec.variant)).c_str()));
    }
    if (!nbc_supported(spec.collective)) {
      throw std::runtime_error(strprintf(
          "%s has no non-blocking entry point (coll/nbc.hpp)",
          std::string(collective_name(spec.collective)).c_str()));
    }
    if (spec.nbc_lanes > 1 && spec.variant == PaperVariant::kBlocking) {
      throw std::runtime_error(
          "the blocking stack cannot interleave lanes (its synchronous "
          "handshake has no poll-and-yield completion); use "
          "RunSpec::nbc_lanes = 1");
    }
  }
  const int p = spec.config.num_cores();
  if (spec.variant == PaperVariant::kRckmpi &&
      p > rckmpi::ChannelLayout::max_cores()) {
    throw std::runtime_error(strprintf(
        "rckmpi runs on at most %d cores (two MPB lines per peer ring); "
        "the mesh has %d",
        rckmpi::ChannelLayout::max_cores(), p));
  }
  if (mpb_direct(spec.variant, spec.elements, p) &&
      !coll::MpbAllreduce::fits(
          rcce::Layout(p),
          coll::split_blocks(spec.elements, p,
                             spec.split_override.value_or(
                                 split_of(spec.variant))))) {
    throw std::runtime_error(strprintf(
        "%zu elements on %d cores: the MPB-direct Allreduce cannot "
        "double-buffer its largest block in the MPB",
        spec.elements, p));
  }
}

RunResult run_collective(const RunSpec& spec) {
  check_spec(spec);
  SCC_EXPECTS(spec.repetitions >= 1);

  machine::SccConfig config = spec.config;
  const int p = config.num_cores();
  const CommLayout layout(config, spec.variant, spec.nbc_lanes);
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
    machine.launch(r, core_program(machine.core(r), layout, spec,
                                   data[static_cast<std::size_t>(r)]));
  }
  machine.run();

  if (spec.verify) verify_results(spec, data);

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
    if (layout.channel()) {
      metrics::collect_channel(layout.channel()->stats(), *result.metrics);
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
