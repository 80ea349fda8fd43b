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
//      ORDER after every thread joined, so every CSV/JSON/table byte
//      equals the serial (jobs=1) output;
//   3. exceptions are captured per job and rethrown in job-index order --
//      the error the caller sees is the one the serial run would have hit
//      first, regardless of which thread finished when.
//
// jobs == 1 runs inline on the calling thread (no thread spawn):
// the serial path stays exactly the serial path, which keeps debuggers and
// deterministic replay simple. Shared-recorder work (tracing) must use it.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

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

/// Runs fn(0..count-1) on min(jobs, count) threads -- the caller plus
/// spawned helpers, joined before returning -- and returns when every
/// index completed. Indices are handed out in order from one atomic
/// counter; completion order is unspecified. The first exception IN INDEX
/// ORDER is rethrown after every thread joined. jobs <= 1 (after resolve)
/// runs inline in index order.
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
