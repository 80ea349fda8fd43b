#include "exec/executor.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>

#include "common/cli.hpp"

namespace scc::exec {

namespace {

/// Strict SCC_JOBS parse (mirrors bench_support's env_size discipline): a
/// mistyped SCC_JOBS=1O must abort, not quietly run serial.
int jobs_from_env() {
  const char* value = std::getenv("SCC_JOBS");
  if (value == nullptr) return 0;
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || parsed < 1 ||
      parsed > std::numeric_limits<int>::max()) {
    std::fprintf(stderr, "error: SCC_JOBS='%s' is not a positive integer\n",
                 value);
    std::exit(2);
  }
  return static_cast<int>(parsed);
}

/// Monotonic host-time delta in nanoseconds (instrumentation only).
std::uint64_t ns_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// Polls `ready()`, yielding the core between polls, until it holds or
/// about 50 us have passed; the caller then re-checks its condition under
/// the lock and parks if it still fails. PDES windows follow each other
/// within microseconds, sooner than a futex park/wake round trip, so a
/// brief poll lets a helper catch the next round, and the caller the
/// round's end, without a context switch.
template <typename Ready>
void poll_until(const Ready& ready) {
  constexpr auto kPollBudget = std::chrono::microseconds(50);
  const auto deadline = std::chrono::steady_clock::now() + kPollBudget;
  while (!ready() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
}

}  // namespace

int default_jobs() {
  static const int env = jobs_from_env();
  if (env > 0) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int resolve_jobs(int jobs) {
  SCC_EXPECTS(jobs >= 0);
  return jobs == 0 ? default_jobs() : jobs;
}

int jobs_flag(const CliFlags& flags) {
  // auto (absent) = 0: default_jobs() at the executor.
  return flags.get_positive_int("jobs", 0);
}

int workers_flag(const CliFlags& flags) {
  // absent = 0: serial machines (no PDES drain threads).
  return flags.get_positive_int("workers", 0);
}

WorkerPool::WorkerPool(int threads, bool instrument)
    : instrument_(instrument) {
  SCC_EXPECTS(threads >= 1);
  worker_busy_ns_.resize(static_cast<std::size_t>(threads), 0);
  helpers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int t = 1; t < threads; ++t) {
    helpers_.emplace_back(
        [this, t] { helper_loop(static_cast<std::size_t>(t - 1)); });
  }
}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& helper : helpers_) helper.join();
}

std::uint64_t WorkerPool::work(Round& round) {
  std::uint64_t busy = 0;
  for (;;) {
    const std::size_t i = round.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= round.count) return busy;
    const auto t0 = instrument_ ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point{};
    try {
      (*round.fn)(i);
    } catch (...) {
      round.errors[i] = std::current_exception();
    }
    if (instrument_) busy += ns_since(t0);
    // The release increment pairs with run_round's acquire read: every
    // fn(i) effect (including errors[i]) happens-before the round's end.
    // Only the LAST finisher takes the mutex and notifies -- one park/notify
    // round trip per round, not per index.
    if (round.completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        round.count) {
      const std::lock_guard<std::mutex> lock(mutex_);
      cv_done_.notify_all();
    }
  }
}

void WorkerPool::helper_loop(std::size_t worker) {
  std::uint64_t seen = 0;
  for (;;) {
    Round* round = nullptr;
    const auto park0 = instrument_ ? std::chrono::steady_clock::now()
                                   : std::chrono::steady_clock::time_point{};
    poll_until([&] { return epoch_.load(std::memory_order_acquire) != seen; });
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_work_.wait(lock, [&] { return stop_ || epoch_ != seen; });
      // park_ns_ accumulates under the lock the wait reacquired -- the
      // instrumentation adds no synchronization the pool didn't already do.
      if (instrument_) park_ns_ += ns_since(park0);
      if (stop_) return;
      seen = epoch_;
      round = round_;
      // Register as active under the same lock that published round_: the
      // round's stack frame stays alive until every registered helper has
      // deregistered, so a straggler can never touch a dead Round (its last
      // next.fetch_add probes past count AFTER all indices completed).
      if (round != nullptr) ++active_;
    }
    if (round != nullptr) {
      const std::uint64_t busy = work(*round);
      const std::lock_guard<std::mutex> lock(mutex_);
      if (instrument_) {
        busy_ns_ += busy;
        worker_busy_ns_[worker] += busy;
      }
      if (--active_ == 0) cv_done_.notify_all();
    }
  }
}

void WorkerPool::run_round(std::size_t count,
                           const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  ++rounds_;
  tasks_ += count;
  if (helpers_.empty() || count == 1) {
    // Exactly the serial path: inline, in order, first failure propagates
    // from its own frame.
    const auto t0 = instrument_ ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point{};
    for (std::size_t i = 0; i < count; ++i) fn(i);
    if (instrument_) {
      const std::uint64_t busy = ns_since(t0);
      busy_ns_ += busy;
      worker_busy_ns_.back() += busy;
    }
    return;
  }

  Round round;
  round.count = count;
  round.fn = &fn;
  round.errors.resize(count);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    SCC_EXPECTS(!in_round_);
    in_round_ = true;
    round_ = &round;
    ++epoch_;
  }
  cv_work_.notify_all();  // one batched wakeup for the whole round
  const std::uint64_t caller_busy = work(round);  // the caller is a worker too
  const auto wait0 = instrument_ ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{};
  poll_until([&] {
    return round.completed.load(std::memory_order_acquire) == count &&
           active_.load(std::memory_order_acquire) == 0;
  });
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_done_.wait(lock, [&] {
      return round.completed.load(std::memory_order_acquire) == count &&
             active_ == 0;
    });
    if (instrument_) {
      barrier_wait_ns_ += ns_since(wait0);
      busy_ns_ += caller_busy;
      worker_busy_ns_.back() += caller_busy;
    }
    round_ = nullptr;
    in_round_ = false;
  }

  // One slot per index; the first failing INDEX (not the first failing
  // thread) is rethrown so the surfaced error is schedule-independent.
  for (std::exception_ptr& e : round.errors) {
    if (e) std::rethrow_exception(e);
  }
}

WorkerPoolStats WorkerPool::pool_stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  WorkerPoolStats s;
  s.rounds = rounds_;
  s.tasks = tasks_;
  s.instrumented = instrument_;
  s.busy_ns = busy_ns_;
  s.park_ns = park_ns_;
  s.barrier_wait_ns = barrier_wait_ns_;
  s.worker_busy_ns = worker_busy_ns_;
  return s;
}

void for_each_index(std::size_t count, int jobs,
                    const std::function<void(std::size_t)>& fn) {
  const int workers = resolve_jobs(jobs);
  if (count == 0) return;
  if (workers <= 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // A transient pool: spawn, one round, join -- the historical
  // for_each_index contract, now sharing the WorkerPool implementation the
  // PDES drain reuses across tens of thousands of rounds.
  WorkerPool pool(static_cast<int>(
      std::min(static_cast<std::size_t>(workers), count)));
  pool.run_round(count, fn);
}

}  // namespace scc::exec
