// Host-thread parallel executor for independent simulation runs.
//
// Every paper artifact -- a Fig. 9 sweep, a conformance matrix, a soak
// round -- is a fan-out of FULLY INDEPENDENT simulations: each job builds
// its own SccMachine (and therefore its own sim::Engine, MPB, caches,
// traffic matrix...), so jobs share no mutable state and can run on host
// threads without any locking in the simulated world. Determinism is
// preserved by construction:
//
//   1. each simulation is bit-identical no matter which host thread runs
//      it (the virtual world never reads host time, host thread ids, or
//      global mutable state);
//   2. results are collected into a slot per job index and MERGED IN SPEC
//      ORDER after the pool drains, so every CSV/JSON/table byte equals
//      the serial (jobs=1) output;
//   3. exceptions are captured per job and rethrown in job-index order --
//      the error the caller sees is the one the serial run would have hit
//      first, regardless of which thread finished when.
//
// jobs == 1 runs inline on the calling thread (no pool, no thread spawn):
// the serial path stays exactly the serial path, which keeps debuggers and
// deterministic replay simple. Shared-recorder work (tracing) must use it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/contracts.hpp"

namespace scc {
class CliFlags;
}

namespace scc::exec {

/// Worker threads to use when the caller passed 0 ("auto"): the host's
/// hardware concurrency, at least 1. Overridable with SCC_JOBS (strictly
/// parsed; garbage aborts rather than silently running serial).
[[nodiscard]] int default_jobs();

/// Maps a user-facing --jobs value to a worker count: 0 -> default_jobs(),
/// N >= 1 -> N. Negative values are a precondition violation (CLIs reject
/// them before calling in).
[[nodiscard]] int resolve_jobs(int jobs);

/// Reads --jobs=N from parsed CLI flags: absent -> 0 ("auto", resolved to
/// default_jobs() at the executor). An explicit value must be a
/// well-formed integer >= 1 -- 0, negatives and garbage throw
/// std::runtime_error through CliFlags' hardened get_int path.
[[nodiscard]] int jobs_flag(const CliFlags& flags);

/// Reads --workers=N (PDES drain threads inside each simulated machine;
/// RunSpec::pdes_workers) from parsed CLI flags: absent -> 0 (serial
/// machines, the pre-PDES path). Same validation and error style as
/// --jobs: an explicit value must be a well-formed integer >= 1.
[[nodiscard]] int workers_flag(const CliFlags& flags);

/// Executor introspection counters (WorkerPool::pool_stats).
///
/// rounds/tasks are pure work-volume counts, deterministic for a given
/// program. The *_ns timers are HOST wall-clock (steady_clock) and are only
/// populated when the pool was built with instrument = true: they vary run
/// to run and must never flow into determinism-gated artifacts -- they are
/// for human diagnosis ("workers spend 80% of the window parked waiting for
/// the straggler partition"), exported via metrics::collect_worker_pool.
struct WorkerPoolStats {
  std::uint64_t rounds = 0;  // run_round calls with count > 0
  std::uint64_t tasks = 0;   // indices executed across all rounds
  bool instrumented = false;
  std::uint64_t busy_ns = 0;          // total time inside fn across workers
  std::uint64_t park_ns = 0;          // helpers waiting between rounds
  std::uint64_t barrier_wait_ns = 0;  // caller waiting on round completion
  /// Per-worker busy time; helpers 0..n-2 first, the calling thread last.
  std::vector<std::uint64_t> worker_busy_ns;
};

/// Persistent bounded worker pool for repeated index fan-outs.
///
/// for_each_index spawns and joins threads per call, which is fine for a
/// sweep (a handful of fan-outs, each seconds long) but hopeless for an
/// intra-run PDES drain that executes tens of thousands of short window
/// rounds: thread creation would dominate. A WorkerPool keeps `threads - 1`
/// helpers parked on one condition variable across rounds, and park/notify
/// is batched per ROUND, not per task: run_round() publishes the whole round
/// and issues a single notify_all; helpers then self-serve indices from an
/// atomic counter, and only the last finisher signals completion. Helpers
/// and the caller poll for about 50 us before they park, so back-to-back
/// rounds (PDES windows) usually skip the futex wake-up entirely.
///
/// run_round(count, fn) runs fn(0..count-1) across the pool (the calling
/// thread participates as worker 0) and returns when every index completed.
/// The first exception IN INDEX ORDER is rethrown after the round drains --
/// the same schedule-independent error contract as for_each_index. Rounds
/// are strictly sequential: run_round must not be called concurrently or
/// reentrantly (SCC_EXPECTS-checked).
class WorkerPool {
 public:
  /// `threads` >= 1: maximum concurrent executors, including the caller.
  /// threads == 1 spawns nothing and makes run_round a plain inline loop.
  /// `instrument` additionally samples steady_clock around fn/park/barrier
  /// waits (see WorkerPoolStats); off by default so the PDES window hot
  /// path pays no clock syscalls.
  explicit WorkerPool(int threads, bool instrument = false);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] int threads() const {
    return static_cast<int>(helpers_.size()) + 1;
  }

  void run_round(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// Snapshot of the cumulative counters. Must not race a running round
  /// (query between rounds / after the last one, like the PDES drain does).
  [[nodiscard]] WorkerPoolStats pool_stats() const;

 private:
  struct Round {
    std::size_t count = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{0};
    std::vector<std::exception_ptr> errors;
  };

  void helper_loop(std::size_t worker);
  /// Returns nanoseconds spent inside fn by this worker (0 uninstrumented).
  std::uint64_t work(Round& round);

  mutable std::mutex mutex_;
  std::condition_variable cv_work_;   // helpers park here between rounds
  std::condition_variable cv_done_;   // run_round parks here for the tail
  Round* round_ = nullptr;            // published under mutex_
  // Both change only under mutex_; atomic so the waits can poll them
  // before they park.
  std::atomic<std::uint64_t> epoch_{0};  // bumped per round (helper wake)
  std::atomic<int> active_{0};           // helpers inside the current round
  bool stop_ = false;
  bool in_round_ = false;
  bool instrument_ = false;
  // Work-volume counters (caller thread only; rounds are sequential).
  std::uint64_t rounds_ = 0;
  std::uint64_t tasks_ = 0;
  // Host timers, written only under mutex_ (helpers already take it at
  // round exit, so instrumentation adds no extra synchronization points).
  std::uint64_t busy_ns_ = 0;
  std::uint64_t park_ns_ = 0;
  std::uint64_t barrier_wait_ns_ = 0;
  std::vector<std::uint64_t> worker_busy_ns_;  // helpers first, caller last
  std::vector<std::thread> helpers_;
};

/// Runs fn(0..count-1) on a bounded pool of `jobs` workers and returns
/// when every index completed. Indices are handed out in order (work
/// stealing from one atomic counter); completion order is unspecified.
/// The first exception IN INDEX ORDER is rethrown after the pool drains.
/// jobs <= 1 (after resolve) runs inline in index order. One-shot
/// convenience over WorkerPool (a transient pool per call).
void for_each_index(std::size_t count, int jobs,
                    const std::function<void(std::size_t)>& fn);

/// Typed fan-out: returns fn(i) for i in [0, count), in index order.
/// R must be default-constructible (slots are pre-sized).
template <typename R>
[[nodiscard]] std::vector<R> parallel_map(
    std::size_t count, int jobs, const std::function<R(std::size_t)>& fn) {
  std::vector<R> results(count);
  for_each_index(count, jobs,
                 [&](std::size_t i) { results[i] = fn(i); });
  return results;
}

}  // namespace scc::exec
