// The three workloads. Each is one pass: a fixed list of ops built from the
// seed, run one after another on one thread (a closed loop). Every op runs
// with verification on, jobs=1, pdes_workers=0 and no fault spec, so host
// time measures the simulator and not the scheduler. exec, faults and the
// partitioned PDES machine are deliberately not driven.
#include <algorithm>
#include <string>
#include <utility>

#include "bench.hpp"
#include "common/string_util.hpp"
#include "gcmc/app.hpp"
#include "harness/runner.hpp"
#include "harness/traffic.hpp"

namespace hostbench {

namespace {

using scc::harness::Collective;
using scc::harness::PaperVariant;

/// splitmix64: derives independent sub-seeds from the workload seed.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The per-layer timing group of each paper variant's communication stack.
std::string stack_group(PaperVariant v) {
  switch (v) {
    case PaperVariant::kRckmpi: return "rckmpi.op_ms";
    case PaperVariant::kBlocking: return "rcce.op_ms";
    case PaperVariant::kIrcce: return "ircce.op_ms";
    case PaperVariant::kLightweight:
    case PaperVariant::kLwBalanced: return "lwnb.op_ms";
    case PaperVariant::kMpb: return "coll.mpb.op_ms";
  }
  return "?";
}

std::uint64_t registry_sum(const scc::metrics::MetricsRegistry& reg,
                           std::string_view suffix) {
  std::uint64_t total = 0;
  for (const auto& [path, metric] : reg.entries()) {
    if (path.size() >= suffix.size() &&
        path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0)
      total += metric.value;
  }
  return total;
}

std::uint64_t registry_max(const scc::metrics::MetricsRegistry& reg,
                           std::string_view suffix) {
  std::uint64_t best = 0;
  for (const auto& [path, metric] : reg.entries()) {
    if (path.size() >= suffix.size() &&
        path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0)
      best = std::max(best, metric.value);
  }
  return best;
}

/// Machine counters exported by metrics::collect_machine (and, for RCKMPI,
/// collect_channel), filed under per-layer metric names.
Counters machine_counters(const scc::metrics::MetricsRegistry& reg) {
  return {
      {"sim.events", reg.value_or("engine/events_processed")},
      {"sim.parks", reg.value_or("engine/parks")},
      {"sim.notifies", reg.value_or("engine/notifies")},
      {"machine.flag_sets", reg.value_or("flags/sets")},
      {"machine.flag_polls", reg.value_or("flags/polls")},
      {"machine.flag_wakeups", reg.value_or("flags/wakeups")},
      {"mem.cache_hits", registry_sum(reg, "/cache/hits")},
      {"mem.cache_misses", registry_sum(reg, "/cache/misses")},
      {"mem.mpb_high_water_bytes", registry_max(reg, "/mpb/high_water_bytes")},
      {"noc.lines_sent", reg.value_or("noc/lines_sent")},
      {"noc.line_hops", reg.value_or("noc/line_hops")},
      {"noc.delayed_transfers",
       reg.value_or("noc/contention/delayed_transfers")},
      {"rckmpi.messages", reg.value_or("rckmpi/messages")},
      {"rckmpi.credit_updates", reg.value_or("rckmpi/credit_updates")},
      {"rckmpi.credit_stalls", reg.value_or("rckmpi/credit_stalls")},
      {"rckmpi.progress_polls", reg.value_or("rckmpi/progress_polls")},
  };
}

// --- fig9_sweep --------------------------------------------------------------

Op fig9_op(Collective c, PaperVariant v, std::size_t n, bool auto_algo,
           std::uint64_t data_seed) {
  Op op;
  op.name = scc::strprintf(
      "%s/%s%s/n%zu", std::string(scc::harness::collective_name(c)).c_str(),
      std::string(scc::harness::variant_name(v)).c_str(),
      auto_algo ? "+auto" : "", n);
  op.groups = {stack_group(v),
               auto_algo ? std::string("coll.algos.auto.op_ms")
                         : "coll." +
                               std::string(scc::harness::collective_name(c)) +
                               ".op_ms"};
  op.run = [c, v, n, auto_algo, data_seed](const OpContext& ctx) {
    scc::harness::RunSpec spec;
    spec.collective = c;
    spec.variant = v;
    spec.elements = n;
    spec.repetitions = 2;  // the Fig. 9 binaries' defaults
    spec.warmup = 1;
    spec.seed = data_seed;
    spec.verify = true;
    spec.collect_metrics = ctx.traced;
    if (auto_algo) spec.algo = scc::coll::Algo::kAuto;
    scc::harness::RunResult r;
    {
      ScopedSpan span(*ctx.spans, "harness.run_collective", ctx.op_span,
                      ctx.op_id);
      r = scc::harness::run_collective(spec);
    }
    OpOutcome out;
    Digest d;
    for (const scc::SimTime t : r.latencies) d.add(t.femtoseconds());
    d.add(r.mean_latency.femtoseconds());
    d.add(r.min_latency.femtoseconds());
    d.add(r.max_latency.femtoseconds());
    d.add(r.lines_sent);
    d.add(r.line_hops);
    out.digest = d.value();
    out.sim_us = r.sample_windows.empty() ? 0.0
                                          : r.sample_windows.back().second.us();
    if (r.metrics) out.counters = machine_counters(*r.metrics);
    return out;
  };
  return op;
}

Workload fig9_sweep(std::uint64_t seed) {
  Workload w;
  w.name = "fig9_sweep";
  // One cell per (panel, variant), plus the Selector's pick on lw-balanced.
  // Consecutive cells take consecutive sizes of the 500-700 stride-50 grid,
  // so each panel covers the whole grid. The seed picks the input data only:
  // host time depends on the sizes, and a seed that moved them would move
  // the pass's cost with it.
  constexpr std::size_t kSizes[] = {500, 550, 600, 650, 700};
  std::size_t k = 0;
  const auto next_size = [&] { return kSizes[k++ % std::size(kSizes)]; };
  const std::uint64_t data_seed = mix(seed);
  const Collective panels[] = {Collective::kAllgather, Collective::kAlltoall,
                               Collective::kReduceScatter,
                               Collective::kBroadcast, Collective::kReduce,
                               Collective::kAllreduce};
  for (const Collective c : panels) {
    for (const PaperVariant v : scc::harness::variants_for(c))
      w.ops.push_back(fig9_op(c, v, next_size(), false, data_seed));
    if (scc::harness::algo_kind(c)) {
      w.ops.push_back(fig9_op(c, PaperVariant::kLwBalanced, next_size(), true,
                              data_seed));
    }
  }
  w.warmup = fig9_op(Collective::kAllreduce, PaperVariant::kLwBalanced, 552,
                     false, data_seed);
  return w;
}

// --- gcmc_app ----------------------------------------------------------------

constexpr int kGcmcTrajectories = 4;
constexpr int kGcmcMoves = 3;

Op gcmc_op(PaperVariant v, std::uint64_t app_seed, int moves,
           std::string name) {
  Op op;
  op.name = std::move(name);
  op.groups = {stack_group(v), "gcmc.run_ms"};
  op.run = [v, app_seed, moves](const OpContext& ctx) {
    scc::gcmc::AppParams params;
    params.model.kmaxvecs = 276;  // the paper's 552-double Allreduce
    params.particles_total = 240;
    params.max_local_particles = 12;
    params.cycles = moves;
    params.seed = app_seed;
    scc::gcmc::AppResult r;
    {
      ScopedSpan span(*ctx.spans, "gcmc.run_app", ctx.op_span, ctx.op_id);
      r = scc::gcmc::run_app(params, v);
    }
    OpOutcome out;
    Digest d;
    d.add(r.runtime.femtoseconds());
    d.add_double(r.final_energy);
    d.add(static_cast<std::uint64_t>(r.accepted));
    d.add(static_cast<std::uint64_t>(r.attempted));
    d.add(static_cast<std::uint64_t>(r.final_particles));
    out.digest = d.value();
    out.sim_us = r.runtime.us();
    return out;
  };
  return op;
}

Workload gcmc_app(std::uint64_t seed) {
  Workload w;
  w.name = "gcmc_app";
  const PaperVariant variants[] = {
      PaperVariant::kRckmpi,     PaperVariant::kBlocking,
      PaperVariant::kIrcce,      PaperVariant::kLightweight,
      PaperVariant::kLwBalanced, PaperVariant::kMpb};
  for (int t = 0; t < kGcmcTrajectories; ++t) {
    const std::uint64_t app_seed =
        mix(seed * 31 + static_cast<std::uint64_t>(t));
    for (const PaperVariant v : variants) {
      w.ops.push_back(gcmc_op(
          v, app_seed, kGcmcMoves,
          scc::strprintf("t%d/%s", t,
                         std::string(scc::harness::variant_name(v)).c_str())));
    }
  }
  w.warmup = gcmc_op(PaperVariant::kLwBalanced, mix(seed * 31 + 97), 1,
                     "warmup");
  return w;
}

// --- traffic_nbc -------------------------------------------------------------

constexpr int kTrafficSchedules = 8;
constexpr int kTrafficRequestsPerStream = 32;

struct Scenario {
  const char* name;
  const char* group;  // per-scenario timing metric
  PaperVariant variant;
  bool serialize;
  int lanes;
};

constexpr Scenario kScenarios[] = {
    {"serialized", "coll.nbc.serialized.ms", PaperVariant::kLightweight, true,
     1},
    {"lanes1", "coll.nbc.lanes1.ms", PaperVariant::kLightweight, false, 1},
    {"lanes2", "coll.nbc.lanes2.ms", PaperVariant::kLightweight, false, 2},
    {"lanes4", "coll.nbc.lanes4.ms", PaperVariant::kLightweight, false, 4},
    {"ircce_lanes2", nullptr, PaperVariant::kIrcce, false, 2},
};

/// The traffic_gen defaults (4 streams, 96 doubles, 60 µs mean gap on the
/// 8-core mesh) with the request count raised.
scc::harness::TrafficSpec traffic_spec(const Scenario& s,
                                       std::uint64_t schedule_seed) {
  scc::harness::TrafficSpec spec;
  spec.streams = 4;
  spec.requests_per_stream = kTrafficRequestsPerStream;
  spec.elements = 96;
  spec.mean_interarrival = scc::SimTime::from_us(60.0);
  spec.seed = schedule_seed;
  spec.variant = s.variant;
  spec.serialize = s.serialize;
  spec.lanes = s.lanes;
  spec.verify = true;
  return spec;
}

Op traffic_op(const Scenario& s, std::uint64_t schedule_seed,
              std::string name) {
  Op op;
  op.name = std::move(name);
  op.groups = {stack_group(s.variant)};
  if (s.group != nullptr) op.groups.emplace_back(s.group);
  const scc::harness::TrafficSpec spec = traffic_spec(s, schedule_seed);
  op.run = [spec](const OpContext& ctx) {
    scc::harness::TrafficResult r;
    {
      ScopedSpan span(*ctx.spans, "harness.run_traffic", ctx.op_span,
                      ctx.op_id);
      r = scc::harness::run_traffic(spec);
    }
    OpOutcome out;
    Digest d;
    for (const scc::SimTime t : r.latencies) d.add(t.femtoseconds());
    d.add(r.makespan.femtoseconds());
    d.add(r.requests);
    d.add(r.lines_sent);
    d.add(r.line_hops);
    out.digest = d.value();
    out.sim_us = r.makespan.us();
    if (ctx.traced) {
      // run_traffic exports only these machine counters.
      out.counters = {{"sim.events", r.events},
                      {"noc.lines_sent", r.lines_sent},
                      {"noc.line_hops", r.line_hops}};
    }
    return out;
  };
  return op;
}

Workload traffic_nbc(std::uint64_t seed) {
  Workload w;
  w.name = "traffic_nbc";
  for (int t = 0; t < kTrafficSchedules; ++t) {
    const std::uint64_t schedule_seed =
        mix(seed * 17 + static_cast<std::uint64_t>(t));
    for (const Scenario& s : kScenarios) {
      w.ops.push_back(
          traffic_op(s, schedule_seed, scc::strprintf("s%d/%s", t, s.name)));
    }
  }
  w.warmup = traffic_op(kScenarios[2], mix(seed * 17 + 97), "warmup");
  return w;
}

}  // namespace

const std::vector<std::string_view>& workload_names() {
  static const std::vector<std::string_view> names = {
      "fig9_sweep", "gcmc_app", "traffic_nbc"};
  return names;
}

scc::harness::TrafficSpec traffic_probe_spec(std::uint64_t seed) {
  return traffic_spec(kScenarios[2], mix(seed * 17));
}

std::optional<Workload> make_workload(std::string_view name,
                                      std::uint64_t seed) {
  if (name == "fig9_sweep") return fig9_sweep(seed);
  if (name == "gcmc_app") return gcmc_app(seed);
  if (name == "traffic_nbc") return traffic_nbc(seed);
  return std::nullopt;
}

}  // namespace hostbench
