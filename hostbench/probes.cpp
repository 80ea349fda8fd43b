// Layer probes and observability rows, run only in the traced run.
//
// Each probe is a timed loop over one layer's public calls with inputs shaped
// like the workloads (48 cores, a 552-double footprint); it reports the
// median over several batches, per call. Every probed result is folded into
// a checksum so the compiler cannot elide the calls.
//
// The observability rows run one fixed op (Allreduce, 552 doubles,
// lw-balanced) plain and with collect_metrics, a sampler and a trace
// recorder each turned on, interleaved, and report each one's wall increase
// over plain, fastest run against fastest run. Observation must never
// change a simulated result, so a row whose latencies differ from the plain
// run counts as a failed op.
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "harness/runner.hpp"
#include "harness/traffic.hpp"
#include "machine/scc_machine.hpp"
#include "mem/cache.hpp"
#include "mem/latency.hpp"
#include "noc/contention.hpp"
#include "noc/topology.hpp"
#include "sim/engine.hpp"
#include "sim/event_heap.hpp"
#include "trace/recorder.hpp"

namespace hostbench {

namespace {

constexpr int kBatches = 7;
constexpr int kCores = 48;
constexpr std::size_t kFootprintBytes = 552 * sizeof(double);

/// Runs `batch` kBatches times; returns the median ns per call, where one
/// batch makes `calls` calls.
template <typename Batch>
double ns_per_call(std::uint64_t calls, Batch&& batch) {
  std::vector<double> samples;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    batch();
    samples.push_back(ms_between(t0, Clock::now()) * 1e6 /
                      static_cast<double>(calls));
  }
  return median(samples);
}

struct Chain {
  scc::sim::Engine* engine = nullptr;
  std::uint64_t remaining = 0;
};

void arm(Chain* c) {
  c->engine->schedule_call(c->engine->now() + scc::SimTime::from_ns(1), [c] {
    if (c->remaining == 0) return;
    --c->remaining;
    arm(c);
  });
}

/// Bare sim::Engine drain: 64 interleaved self-rescheduling chains.
double engine_probe(std::uint64_t& checksum) {
  constexpr std::uint64_t kChains = 64;
  constexpr std::uint64_t kPerChain = 4096;
  return ns_per_call(kChains * kPerChain, [&] {
    scc::sim::Engine engine;
    std::vector<Chain> chains(kChains);
    for (Chain& c : chains) {
      c.engine = &engine;
      c.remaining = kPerChain;
      arm(&c);
    }
    engine.run();
    checksum += engine.events_processed() + engine.now().femtoseconds();
  });
}

struct QItem {
  std::uint64_t key = 0;
  std::uint64_t seq = 0;
};
struct QGreater {
  bool operator()(const QItem& a, const QItem& b) const {
    return a.key != b.key ? a.key > b.key : a.seq > b.seq;
  }
};

/// MoveHeap push + pop at a steady depth of 64, jittered keys.
double queue_probe(std::uint64_t& checksum) {
  constexpr std::uint64_t kPops = 1 << 18;
  return ns_per_call(kPops, [&] {
    scc::sim::MoveHeap<QItem, QGreater> heap;
    std::uint64_t seq = 0;
    for (std::uint64_t i = 0; i < 64; ++i) heap.push(QItem{i * 7, seq++});
    for (std::uint64_t n = 0; n < kPops; ++n) {
      const QItem item = heap.pop_min();
      checksum ^= item.key + item.seq;
      const std::uint64_t jitter = (item.seq * 2654435761ULL >> 13) & 63;
      heap.push(QItem{item.key + 1 + jitter, seq++});
    }
  });
}

/// LatencyCalculator over every (accessor, owner) pair of the 48-core chip.
double latency_probe(const scc::mem::HwCostModel& hw,
                     const scc::noc::Topology& topo, std::uint64_t& checksum) {
  const scc::mem::LatencyCalculator lat(hw, topo);
  const scc::mem::CacheAccessResult access{kFootprintBytes / 32, 4, 1, 0};
  constexpr int kSweeps = 8;
  constexpr std::uint64_t kCalls = std::uint64_t{kSweeps} * kCores * kCores * 4;
  return ns_per_call(kCalls, [&] {
    scc::SimTime total;
    for (int s = 0; s < kSweeps; ++s) {
      for (int a = 0; a < kCores; ++a) {
        for (int b = 0; b < kCores; ++b) {
          total += lat.mpb_line_access(a, b, true);
          total += lat.mpb_line_access(a, b, false);
          total += lat.mpb_bulk(a, b, kFootprintBytes, (a + b) % 2 == 0);
          total += lat.priv_access(a, access);
        }
      }
    }
    checksum += total.femtoseconds();
  });
}

/// CacheModel reads and writes over a 552-double in/tmp/out footprint;
/// reported per cache line touched.
double cache_probe(const scc::mem::HwCostModel& hw, std::uint64_t& checksum) {
  constexpr std::uintptr_t kIn = 0x100000;
  constexpr std::uintptr_t kTmp = 0x200000;
  constexpr std::uintptr_t kOut = 0x300000;
  constexpr int kRounds = 256;
  constexpr std::uint64_t kLines =
      std::uint64_t{kRounds} * 3 * (kFootprintBytes / 32);
  return ns_per_call(kLines, [&] {
    scc::mem::CacheModel cache(hw);
    for (int r = 0; r < kRounds; ++r) {
      const auto a = cache.touch_read(kIn, kFootprintBytes);
      const auto b = cache.touch_read(kTmp, kFootprintBytes);
      const auto c = cache.touch_write(kOut, kFootprintBytes);
      checksum += a.hits + b.misses + c.writebacks + c.uncached_writes;
    }
  });
}

/// LinkContention::occupy for a 552-double transfer over every core pair.
double contention_probe(const scc::mem::HwCostModel& hw,
                        const scc::noc::Topology& topo,
                        std::uint64_t& checksum) {
  constexpr int kSweeps = 4;
  constexpr std::uint64_t kCalls = std::uint64_t{kSweeps} * kCores * kCores;
  return ns_per_call(kCalls, [&] {
    scc::noc::LinkContention links(topo, hw.mesh_clock(),
                                   hw.link_service_mesh_cycles_per_line,
                                   hw.mesh_cycles_per_hop);
    scc::SimTime now;
    scc::SimTime delay;
    for (int s = 0; s < kSweeps; ++s) {
      for (int a = 0; a < kCores; ++a) {
        for (int b = 0; b < kCores; ++b) {
          delay += links.occupy(a, b, kFootprintBytes / 32, now);
          now += scc::SimTime::from_ns(5);
        }
      }
    }
    checksum += delay.femtoseconds() + links.delayed_transfers();
  });
}

/// SccMachine construction on the paper's 48-core configuration.
double machine_ctor_ms(std::uint64_t& checksum) {
  std::vector<double> samples;
  for (int i = 0; i < 15; ++i) {
    const auto t0 = Clock::now();
    auto machine = std::make_unique<scc::machine::SccMachine>(
        scc::machine::SccConfig::paper_default());
    samples.push_back(ms_between(t0, Clock::now()));
    checksum += static_cast<std::uint64_t>(machine->num_cores());
  }
  return median(samples);
}

double traffic_schedule_ms(std::uint64_t seed, std::uint64_t& checksum) {
  const scc::harness::TrafficSpec spec = traffic_probe_spec(seed);
  const int p = spec.tiles_x * spec.tiles_y * 2;
  std::vector<double> samples;
  for (int i = 0; i < 31; ++i) {
    const auto t0 = Clock::now();
    const auto schedule = scc::harness::traffic_schedule(spec, p);
    samples.push_back(ms_between(t0, Clock::now()));
    checksum += schedule.size() + schedule.back().arrival.femtoseconds();
  }
  return median(samples);
}

enum Row { kPlain, kCollect, kSampler, kRecorder, kRows };
constexpr const char* kRowNames[kRows] = {
    "plain", "metrics.collect_overhead", "metrics.sampler_overhead",
    "trace.recorder_overhead"};

/// The fixed op with one observability hook turned on; returns the latency
/// digest so the caller can check that observation changed nothing.
std::uint64_t fixed_op(Row row, Spans& spans, std::uint64_t parent,
                       double& wall_ms) {
  scc::harness::RunSpec spec;
  spec.collective = scc::harness::Collective::kAllreduce;
  spec.variant = scc::harness::PaperVariant::kLwBalanced;
  spec.elements = 552;
  spec.repetitions = 2;
  spec.warmup = 1;
  spec.verify = true;
  std::unique_ptr<scc::trace::Recorder> recorder;
  if (row == kCollect) spec.collect_metrics = true;
  if (row == kSampler) spec.sample_interval = scc::SimTime::from_us(1.0);
  if (row == kRecorder) {
    recorder = std::make_unique<scc::trace::Recorder>();
    spec.trace = recorder.get();
  }
  const auto t0 = Clock::now();
  scc::harness::RunResult r;
  {
    ScopedSpan span(spans, "harness.run_collective", parent, 0);
    r = scc::harness::run_collective(spec);
  }
  wall_ms = ms_between(t0, Clock::now());
  Digest d;
  for (const scc::SimTime t : r.latencies) d.add(t.femtoseconds());
  d.add(r.lines_sent);
  return d.value();
}

}  // namespace

ProbeReport run_probes(std::uint64_t seed, Spans& spans) {
  ProbeReport report;
  const scc::machine::SccConfig config =
      scc::machine::SccConfig::paper_default();
  const scc::noc::Topology topo(config.tiles_x, config.tiles_y,
                                config.cores_per_tile);
  const auto probe = [&](const char* metric, auto&& fn) {
    ScopedSpan span(spans, std::string("probe.") + metric, 0, 0);
    report.metrics[metric] = fn();
  };
  std::uint64_t& sum = report.checksum;
  probe("sim.engine_probe_ns", [&] { return engine_probe(sum); });
  probe("sim.queue_probe_ns", [&] { return queue_probe(sum); });
  probe("mem.latency_probe_ns",
        [&] { return latency_probe(config.cost.hw, topo, sum); });
  probe("mem.cache_probe_ns", [&] { return cache_probe(config.cost.hw, sum); });
  probe("noc.contention_probe_ns",
        [&] { return contention_probe(config.cost.hw, topo, sum); });
  probe("machine.ctor_ms", [&] { return machine_ctor_ms(sum); });
  probe("harness.traffic_schedule_ms",
        [&] { return traffic_schedule_ms(seed, sum); });

  constexpr int kReps = 11;
  std::vector<double> walls[kRows];
  std::uint64_t plain_digest = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    for (int row = kPlain; row < kRows; ++row) {
      ScopedSpan span(spans, std::string("obs.") + kRowNames[row], 0, 0);
      double wall = 0.0;
      ++report.attempted;
      try {
        const std::uint64_t digest =
            fixed_op(static_cast<Row>(row), spans, span.id(), wall);
        if (row == kPlain && rep == 0) plain_digest = digest;
        if (digest != plain_digest) ++report.failed;
        sum += digest;
      } catch (const std::exception&) {
        ++report.failed;
      }
      walls[row].push_back(wall);
    }
  }
  const double plain = fastest(walls[kPlain]);
  for (int row = kCollect; row < kRows; ++row)
    report.metrics[kRowNames[row]] = fastest(walls[row]) / plain - 1.0;
  return report;
}

}  // namespace hostbench
