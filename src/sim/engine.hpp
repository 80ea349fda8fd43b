// Discrete-event simulation engine.
//
// Single-threaded, deterministic: events at equal times fire in the order
// they were scheduled (monotone sequence numbers break ties), so a given
// program and seed always produce the identical virtual-time trace.
//
// Schedule perturbation (testing mode): enable_perturbation() replaces the
// scheduling-order tie-break with a seeded pseudo-random key, so events at
// equal times fire in a seed-dependent permutation, and can additionally
// inject a small random delay into every scheduled event. Each seed still
// yields one exactly-reproducible trace -- the point is to explore *other*
// legal interleavings than the default one, which is how ordering bugs in
// the relaxed-synchronization protocols are flushed out (see DESIGN.md,
// "Determinism & schedule perturbation").
#pragma once

#include <coroutine>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/event_heap.hpp"
#include "sim/task.hpp"
#include "trace/recorder.hpp"

namespace scc::sim {

/// Cumulative scheduler counters. All time-type for conformance purposes:
/// park/notify counts depend on the interleaving (a waiter woken into a
/// still-false predicate re-parks), and the delay counters exist only under
/// perturbation.
struct EngineStats {
  std::uint64_t parks = 0;            // coroutines parked on a WaitQueue
  std::uint64_t notifies = 0;         // notify_all() calls
  std::uint64_t waiters_woken = 0;    // waiters resumed across all notifies
  std::uint64_t perturb_delays = 0;   // nonzero injected event delays
  SimTime perturb_delay_total;        // sum of injected delays
};

/// Settings for the engine's schedule-perturbation mode.
struct PerturbConfig {
  /// Seeds the tie-break/delay stream. Equal seeds reproduce the identical
  /// interleaving; distinct seeds explore distinct ones.
  std::uint64_t seed = 0;
  /// When nonzero, every scheduled event is additionally delayed by a
  /// uniform pseudo-random duration in [0, max_delay]. Zero keeps virtual
  /// timestamps exact and only permutes equal-time ordering.
  SimTime max_delay = SimTime::zero();
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Switches the engine into perturbation mode. Must be called before any
  /// event is scheduled (the permutation covers the whole trace or none of
  /// it -- a half-perturbed trace would not be reproducible from the seed).
  void enable_perturbation(PerturbConfig config);

  [[nodiscard]] bool perturbation_enabled() const {
    return perturb_.has_value();
  }
  /// The active perturbation seed; only valid when perturbation_enabled().
  [[nodiscard]] std::uint64_t perturbation_seed() const {
    SCC_EXPECTS(perturb_.has_value());
    return perturb_->seed;
  }

  /// Attaches a trace recorder (nullptr detaches). The engine records
  /// scheduler instants -- task spawn/done/stuck, wait-queue park/notify,
  /// perturbation delay injections -- under trace::kEnginePid. Recording is
  /// purely observational: it never changes what is scheduled or when.
  void set_trace(trace::Recorder* recorder) { trace_ = recorder; }
  [[nodiscard]] trace::Recorder* trace() const { return trace_; }

  /// Count/trace hooks for WaitQueue. Counting is unconditional (host-side
  /// bookkeeping); the trace instants still require an attached recorder.
  void note_park() {
    ++stats_.parks;
    if (trace_) trace_->instant(trace::kEnginePid, "waitqueue", "park", now_);
  }
  void note_notify(std::size_t waiters) {
    ++stats_.notifies;
    stats_.waiters_woken += waiters;
    if (trace_ && waiters > 0) {
      // One fixed-size stack buffer; no temporary string concatenation on
      // the notify path (hot under tracing).
      char detail[32];
      std::snprintf(detail, sizeof detail, "%zu waiter(s)", waiters);
      trace_->instant(trace::kEnginePid, "waitqueue", "notify", now_, detail);
    }
  }

  /// Installs a deterministic cadence probe: `fn` fires exactly at the
  /// virtual instants now() + interval, now() + 2 * interval, ... -- each
  /// call made after every event with timestamp < the tick instant has been
  /// processed and before any event with timestamp >= it runs, with `t`
  /// being the exact tick instant (now() reads `t` during the call). Ticks
  /// with no later event pending never fire (the series ends at the last
  /// event), and the cadence saturates at SimTime::max(). The probe must be
  /// purely observational: it may read state but must not schedule events,
  /// and it adds one branch per dispatched event when idle. Replaces any
  /// previous probe.
  void set_probe(SimTime interval, std::function<void(SimTime)> fn);
  void clear_probe();

  /// Resume `h` at absolute time `when` (must be >= now()).
  void schedule_resume(SimTime when, std::coroutine_handle<> h);

  /// Run `fn` at absolute time `when` (must be >= now()). The callable is
  /// invoked exactly once.
  void schedule_call(SimTime when, std::function<void()> fn);

  /// Awaitable: suspend the current coroutine for `duration`.
  /// Zero-duration sleeps still round-trip through the queue so two tasks
  /// "running at the same instant" interleave deterministically.
  /// The awaiter is trivially copyable (an engine pointer and a wake time),
  /// so leaf awaiters built on it never own state a co_await temporary could
  /// double-free (DESIGN.md §16). [[nodiscard]]: a CoreApi op records its
  /// charge when called, so dropping the awaiter would profile time that
  /// never passed.
  struct [[nodiscard]] Sleep {
    Engine* engine;
    SimTime wake;
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      engine->schedule_resume(wake, h);
    }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] Sleep sleep_for(SimTime duration) {
    return Sleep{this, now_ + duration};
  }

  /// Registers a root task (e.g. one simulated core's program). The engine
  /// owns it for the duration of run(); the task starts at time now().
  /// `name` appears in deadlock diagnostics.
  void spawn(Task<> task, std::string name);

  /// Runs until the event queue drains, then releases every root task. A
  /// root task that completed *with an exception* is a failure, not a
  /// deadlock: the first such exception (in spawn order) is rethrown even
  /// when other roots are stuck -- deadlock plus exception is a double
  /// fault, and the exception is the more specific diagnosis. Otherwise
  /// throws std::runtime_error if any root task is still unfinished
  /// (deadlock), listing the stuck tasks and the perturbation seed when
  /// perturbation is active.
  void run();

  /// Like run() but returns false instead of throwing when root tasks are
  /// deadlocked (used by tests that *expect* deadlock).
  [[nodiscard]] bool run_detect_deadlock();

  [[nodiscard]] std::uint64_t events_processed() const {
    return events_processed_;
  }
  [[nodiscard]] const EngineStats& stats() const { return stats_; }

 private:
  /// Heap key: 32 trivially copyable bytes, so every sift step is a plain
  /// copy. `payload` is a coroutine frame address (resume events; frames
  /// are at least pointer-aligned, so the low bit is free) or, with the low
  /// bit set, `(slot << 1) | 1` for a callable parked in `calls_`.
  struct Event {
    SimTime when;
    std::uint64_t tie;  // 0 unperturbed; seeded-random key under perturbation
    std::uint64_t seq;
    std::uintptr_t payload;
    friend bool operator>(const Event& a, const Event& b) {
      if (a.when != b.when) return a.when > b.when;
      if (a.tie != b.tie) return a.tie > b.tie;
      return a.seq > b.seq;
    }
  };
  static_assert(sizeof(Event) == 32);
  static_assert(std::is_trivially_copyable_v<Event>);

  struct Root {
    Task<> task;
    std::string name;
  };

  /// Resets running_ when a drain exits, including by exception: a throwing
  /// event handler must not latch the engine into a state where every later
  /// drain()/enable_perturbation() dies on its !running_ precondition.
  struct RunningGuard {
    bool* flag;
    explicit RunningGuard(bool* f) : flag(f) { *flag = true; }
    ~RunningGuard() { *flag = false; }
    RunningGuard(const RunningGuard&) = delete;
    RunningGuard& operator=(const RunningGuard&) = delete;
  };

  /// Processes every queued event (run() is drain() plus deadlock
  /// diagnostics and root-exception rethrow).
  void drain();
  /// drain(), then the root scan run() and run_detect_deadlock() share:
  /// traces each root's done/stuck instant, clears roots_, rethrows the
  /// first root exception in spawn order, and otherwise returns the stuck
  /// roots' names ("" when every root finished).
  [[nodiscard]] std::string drain_and_settle();
  void dispatch(Event ev);
  void push_event(SimTime when, std::uintptr_t payload);
  void fire_probe(SimTime limit);

  MoveHeap<Event, std::greater<>> queue_;
  // Callable slab: schedule_call parks its callable here and the event
  // carries the slot index. Slots are recycled through free_slots_, so the
  // slab grows to the peak number of pending callables and no further.
  std::vector<std::function<void()>> calls_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Root> roots_;
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  EngineStats stats_;
  bool running_ = false;
  std::optional<PerturbConfig> perturb_;
  Xoshiro256 perturb_rng_;
  trace::Recorder* trace_ = nullptr;
  // Cadence probe (set_probe). probe_due_ == SimTime::max() doubles as the
  // "no probe" sentinel, so the dispatch hot path pays exactly one compare
  // when sampling is off.
  SimTime probe_due_ = SimTime::max();
  SimTime probe_interval_ = SimTime::zero();
  std::function<void(SimTime)> probe_;
};

}  // namespace scc::sim
