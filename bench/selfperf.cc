// Simulator self-performance benchmark: host wall-clock throughput of the
// simulator itself, not virtual latencies. Five scenarios:
//
//   engine_hot_loop  -- a raw sim::Engine draining K self-rescheduling
//                       callables (pure push/pop/invoke: the MoveHeap +
//                       SmallCallable hot path, no machine model attached);
//   allreduce_552    -- one full collective run at the paper's Allreduce
//                       spotlight size (the end-to-end cost of an event
//                       once caches, MPB and NoC are in the loop);
//   sweep_serial /   -- a Fig. 9f-style (size x variant) sweep, first with
//   sweep_jobs          jobs=1 and then fanned out over --jobs host
//                       threads; the ratio is the host-parallel speedup.
//   queue_moveheap   -- the engine_hot_loop event pattern run directly
//                       against the event heap (no engine, no callables).
//
//   selfperf [--events=N] [--from=A] [--to=B] [--step=S] [--reps=K]
//            [--jobs=N]
//
// Prints a table (events, wall ms, ns/event, Mevents/s, speedup) and
// writes bench_results/selfperf.csv with the full data. The scc-bench-v1
// JSON (bench_results/selfperf.json) deliberately carries only the
// lower-is-better wall_ms column of the host-independent scenarios --
// bench/compare's one-sided gate treats increases as regressions, so a
// higher-is-better column (events/s, speedup) would fail on improvement,
// and sweep_jobs' wall time depends on host core count.
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "exec/executor.hpp"
#include "harness/sweep.hpp"
#include "sim/engine.hpp"
#include "sim/event_heap.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// One chain of self-rescheduling events; K chains interleave so the heap
/// keeps K live entries and every pop percolates through a realistic depth.
struct ChainState {
  scc::sim::Engine* engine = nullptr;
  std::uint64_t remaining = 0;
};

void arm(ChainState* s) {
  s->engine->schedule_call(s->engine->now() + scc::SimTime::from_ns(1),
                           [s] {
                             if (s->remaining == 0) return;
                             --s->remaining;
                             arm(s);
                           });
}

struct Row {
  std::string scenario;
  std::uint64_t events = 0;  // 0: not tracked (sweep scenarios)
  double wall_ms = 0.0;
  bool gated = false;  // included in the compare-gated JSON
};

/// The queue-structure microbench: the engine_hot_loop event pattern (64
/// interleaved self-rescheduling chains, jittered increments) run directly
/// against a priority-queue implementation -- no engine, no callables, so
/// the row isolates the data structure itself.
struct QItem {
  std::uint64_t key = 0;
  std::uint64_t seq = 0;
};

template <typename Queue>
std::uint64_t drive_queue(Queue& queue, std::uint64_t pops) {
  constexpr std::uint64_t kChains = 64;
  std::uint64_t seq = 0;
  for (std::uint64_t i = 0; i < kChains; ++i)
    queue.push(QItem{i * 7, seq++});
  std::uint64_t checksum = 0;
  for (std::uint64_t n = 0; n < pops; ++n) {
    const QItem item = queue.pop_min();
    checksum ^= item.key + item.seq;
    const std::uint64_t jitter = (item.seq * 2654435761ULL >> 13) & 63;
    queue.push(QItem{item.key + 1 + jitter, seq++});
  }
  return checksum;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto flags = scc::CliFlags::parse(argc, argv);
    const auto events_target = flags.get_int("events", 2'000'000);
    const auto from = flags.get_int("from", 500);
    const auto to = flags.get_int("to", 700);
    const auto step = flags.get_int("step", 25);
    const int reps = flags.get_positive_int("reps", 1);
    const int jobs = scc::exec::jobs_flag(flags);
    for (const std::string& name : flags.unconsumed()) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
      return 2;
    }
    if (events_target < 1 || from < 1 || to < from || step < 1 || reps < 1) {
      std::fprintf(stderr,
                   "usage: selfperf [--events=N>=1] [--from=A] [--to=B>=A] "
                   "[--step=S>=1] [--reps=K>=1] [--jobs=N>=1]\n");
      return 2;
    }

    std::vector<Row> rows;

    {
      // Scenario 1: the bare engine. 64 chains, events_target total pops.
      constexpr std::uint64_t kChains = 64;
      scc::sim::Engine engine;
      std::vector<ChainState> chains(kChains);
      const auto per_chain =
          static_cast<std::uint64_t>(events_target) / kChains;
      const auto t0 = Clock::now();
      for (ChainState& c : chains) {
        c.engine = &engine;
        c.remaining = per_chain;
        arm(&c);
      }
      engine.run();
      rows.push_back(
          Row{"engine_hot_loop", engine.events_processed(), ms_since(t0),
              /*gated=*/true});
    }

    {
      // Scenario 2: one end-to-end collective at the paper's spotlight
      // size (Allreduce, lw-balanced, 552 doubles on the full 6x4 mesh).
      scc::harness::RunSpec spec;
      spec.collective = scc::harness::Collective::kAllreduce;
      spec.variant = scc::harness::PaperVariant::kLwBalanced;
      spec.elements = 552;
      spec.repetitions = reps;
      spec.warmup = 0;
      spec.verify = false;
      const auto t0 = Clock::now();
      const scc::harness::RunResult result =
          scc::harness::run_collective(spec);
      rows.push_back(Row{"allreduce_552", result.events, ms_since(t0),
                         /*gated=*/true});
    }

    scc::harness::SweepSpec sweep;
    sweep.collective = scc::harness::Collective::kAllreduce;
    sweep.from = static_cast<std::size_t>(from);
    sweep.to = static_cast<std::size_t>(to);
    sweep.step = static_cast<std::size_t>(step);
    sweep.repetitions = reps;
    sweep.warmup = 1;
    sweep.verify = false;
    {
      sweep.jobs = 1;
      const auto t0 = Clock::now();
      (void)scc::harness::run_sweep(sweep);
      rows.push_back(Row{"sweep_serial", 0, ms_since(t0), /*gated=*/true});
    }
    const int resolved_jobs = scc::exec::resolve_jobs(jobs);
    {
      sweep.jobs = jobs;
      const auto t0 = Clock::now();
      (void)scc::harness::run_sweep(sweep);
      rows.push_back(Row{scc::strprintf("sweep_jobs%d", resolved_jobs), 0,
                         ms_since(t0), /*gated=*/false});
    }

    // Scenario 5: the queue-structure microbench.
    const auto queue_pops = static_cast<std::uint64_t>(events_target);
    {
      struct QGreater {
        bool operator()(const QItem& a, const QItem& b) const {
          if (a.key != b.key) return a.key > b.key;
          return a.seq > b.seq;
        }
      };
      scc::sim::MoveHeap<QItem, QGreater> heap;
      const auto t0 = Clock::now();
      // The volatile sink keeps the pops observable to the optimizer.
      [[maybe_unused]] volatile std::uint64_t checksum =
          drive_queue(heap, queue_pops);
      rows.push_back(
          Row{"queue_moveheap", queue_pops, ms_since(t0), /*gated=*/true});
    }

    scc::Table table(
        {"scenario", "events", "wall_ms", "ns_per_event", "Mevents_per_s"});
    for (const Row& r : rows) {
      table.add_row(
          {r.scenario,
           scc::strprintf("%llu", static_cast<unsigned long long>(r.events)),
           scc::strprintf("%.2f", r.wall_ms),
           r.events > 0 ? scc::strprintf("%.1f", r.wall_ms * 1e6 /
                                                     static_cast<double>(
                                                         r.events))
                        : std::string(),
           r.events > 0 ? scc::strprintf("%.2f", static_cast<double>(
                                                     r.events) /
                                                     (r.wall_ms * 1e3))
                        : std::string()});
    }
    std::cout << "=== simulator self-performance (host wall-clock) ===\n";
    table.print(std::cout);
    const double serial_ms = rows[2].wall_ms;
    const double jobs_ms = rows[3].wall_ms;
    std::cout << scc::strprintf(
        "\nsweep speedup with %d host thread(s): %.2fx "
        "(%.0f ms -> %.0f ms)\n",
        resolved_jobs, jobs_ms > 0.0 ? serial_ms / jobs_ms : 0.0, serial_ms,
        jobs_ms);

    std::filesystem::create_directories("bench_results");
    table.write_csv_file("bench_results/selfperf.csv");
    scc::Table gate({"scenario", "wall_ms"});
    for (const Row& r : rows) {
      if (r.gated)
        gate.add_row({r.scenario, scc::strprintf("%.2f", r.wall_ms)});
    }
    gate.write_json_file("bench_results/selfperf.json", "selfperf");
    std::cout << "written to bench_results/selfperf.csv and "
                 "bench_results/selfperf.json\n";
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "selfperf: %s\n", e.what());
    return 2;
  }
}
