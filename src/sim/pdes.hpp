// Conservative-PDES partitioned drain over per-partition event heaps.
//
// A single big-mesh simulation is serial in sim::Engine: one heap, one
// clock, one thread. PdesEngine partitions the event loop by topology: each
// partition is a full sim::Engine (own MoveHeap, own virtual clock, own
// sequence counter, own stats), and the classic conservative window
// protocol (Chandy/Misra/Bryant lookahead) runs them in parallel on a
// persistent exec::WorkerPool:
//
//   1. BARRIER:  t_min   = min over partitions of next_event_time()
//                horizon = t_min + lookahead          (saturating)
//   2. WINDOW:   every partition drains events with when < horizon in
//                parallel (Engine::drain_until) -- including events those
//                events schedule locally inside the window;
//   3. MERGE:    cross-partition events posted during the window were
//                buffered in per-(source,target) outboxes; they are merged
//                into the target heaps in (source index, FIFO) order, then
//                the loop repeats.
//
// The lookahead is the minimum virtual latency of ANY cross-partition
// interaction (derived from the mesh cost model's per-hop charge -- see
// machine::pdes_lookahead). That is what makes the window safe: an event
// executing at time t >= t_min can only post across a partition boundary at
// when >= t + lookahead >= horizon, so nothing a remote partition does this
// window can affect events before the horizon. The contract is enforced:
// the merge step SCC_EXPECTS every posted timestamp >= horizon.
//
// Determinism (bit-identity to the serial schedule, any worker count):
//   - within a partition, execution is the plain serial Engine -- fully
//     deterministic;
//   - window boundaries depend only on heap minima, which are themselves
//     deterministic;
//   - the merge order of posted events is fixed by (source, FIFO), so the
//     target's tie-break sequence numbers are assigned identically no
//     matter which host thread ran which partition when;
//   - partition state must be disjoint: an event handler may only touch its
//     own partition's state, and may only reach other partitions through
//     post(). (This is the same contract the machine's cost model
//     guarantees physically: remote effects travel over the mesh and pay
//     at least one hop of latency.)
//
// Perturbation composes per partition: enable it on partition(p) before
// scheduling and each partition perturbs its own schedule from its own
// seeded stream -- still deterministic for any worker count, because
// injected delays only ever ADD latency and pushes happen in deterministic
// per-partition order.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/contracts.hpp"
#include "common/time.hpp"
#include "exec/executor.hpp"
#include "sim/callable.hpp"
#include "sim/engine.hpp"

namespace scc::sim {

struct PdesConfig {
  /// Event-loop partitions (each a full Engine). >= 1.
  int partitions = 1;
  /// Host threads draining windows (1 = serial window execution; the window
  /// protocol and therefore every output byte is identical either way).
  int workers = 1;
  /// Conservative lookahead: a lower bound on the virtual latency of every
  /// cross-partition interaction. Must be > 0 (zero lookahead would make
  /// windows empty and the drain unable to progress).
  SimTime lookahead;
  /// Enables host wall-clock instrumentation on the worker pool (per-worker
  /// busy/park/barrier-wait time; see exec::WorkerPoolStats). Purely
  /// observational overhead -- never changes simulated results -- but the
  /// timers themselves are nondeterministic, so keep them out of
  /// determinism-gated artifacts.
  bool instrument_workers = false;
};

/// Coordinator-side counters (windows are a PDES-only concept; per-partition
/// engine counters live in the partition engines). Every field is a pure
/// function of the window protocol's deterministic schedule: identical for
/// any worker count (the identity tests diff artifacts built from these).
struct PdesStats {
  std::uint64_t windows = 0;          // barrier rounds executed
  std::uint64_t posts_delivered = 0;  // cross-partition events merged
  std::uint64_t max_window_events = 0;  // busiest window (all partitions)
  std::uint64_t saturated_windows = 0;  // windows with horizon at max()
  std::uint64_t max_window_posts = 0;   // busiest single merge
  /// Posts merged with when exactly at the window horizon -- the tightest
  /// legal case of the conservative contract (slack zero).
  std::uint64_t posts_at_floor = 0;
  /// Minimum (when - horizon) over every in-window post: how close the
  /// workload comes to violating the lookahead. SimTime::max() until the
  /// first in-window post is merged.
  SimTime min_post_slack = SimTime::max();
};

class PdesEngine {
 public:
  explicit PdesEngine(PdesConfig config);

  PdesEngine(const PdesEngine&) = delete;
  PdesEngine& operator=(const PdesEngine&) = delete;

  [[nodiscard]] int partitions() const {
    return static_cast<int>(engines_.size());
  }
  [[nodiscard]] int workers() const { return config_.workers; }
  [[nodiscard]] SimTime lookahead() const { return config_.lookahead; }

  /// The partition's engine: schedule setup events, spawn root tasks,
  /// attach a per-partition trace recorder, or enable perturbation here.
  /// During a window, partition p's engine is driven exclusively by the
  /// worker draining p.
  [[nodiscard]] Engine& partition(int p) {
    SCC_EXPECTS(p >= 0 && p < partitions());
    return *engines_[static_cast<std::size_t>(p)];
  }

  /// Schedules `fn` at `when` on partition `target` from an event handler
  /// currently executing in partition `source`. Cross-partition posts are
  /// buffered in the source's outbox (no locks: the outbox row is owned by
  /// the worker draining `source`) and merged at the next barrier in
  /// (source, FIFO) order. `when` must respect the conservative contract:
  /// at least `lookahead` after the posting event's time -- checked as
  /// when >= the current window's horizon at merge time. A same-partition
  /// post degenerates to a plain schedule_call.
  void post(int source, int target, SimTime when, SmallCallable fn);

  /// Runs windows until every partition heap and outbox drains, then runs
  /// each partition engine's root bookkeeping (deadlock diagnostics,
  /// first-exception rethrow) in partition order. With a single partition
  /// the window protocol is skipped entirely and the call delegates to the
  /// partition engine's run() -- bit-identical to a bare sim::Engine.
  void run();

  /// Like run() but returns false instead of throwing when root tasks are
  /// deadlocked, with the same exception-over-deadlock contract as
  /// Engine::run_detect_deadlock applied in partition order.
  [[nodiscard]] bool run_detect_deadlock();

  /// Installs a quiescence hook: fired on the coordinator thread whenever
  /// every partition heap and outbox is dry (between windows, workers
  /// parked). Returning true means the hook scheduled more work (e.g. a
  /// machine-level barrier releasing its waiters) and the window loop
  /// continues; false ends the drain. Cross-partition coordination that has
  /// no mesh latency of its own (zero-cost harness barriers) hangs off this
  /// hook instead of violating the lookahead contract with zero-latency
  /// posts. Empty function clears.
  void set_quiescence_hook(std::function<bool()> hook) {
    quiescence_hook_ = std::move(hook);
  }

  /// Sum of events processed across partitions.
  [[nodiscard]] std::uint64_t events_processed() const;

  /// Max partition clock (the virtual end time of the simulation).
  [[nodiscard]] SimTime now() const;

  /// Engine scheduler counters summed across partitions in partition order.
  [[nodiscard]] EngineStats aggregated_stats() const;

  [[nodiscard]] const PdesStats& stats() const { return stats_; }

  /// Worker-pool execution counters (host-side; see WorkerPoolStats for
  /// what is deterministic and what is wall-clock).
  [[nodiscard]] exec::WorkerPoolStats worker_stats() const {
    return pool_.pool_stats();
  }

  /// Installs a barrier-cadence probe: `fn` fires once per window, after the
  /// window's outboxes merged, with the window horizon (the drain's
  /// deterministic virtual-time frontier; now() for the saturated final
  /// window). This is the PDES analogue of Engine::set_probe -- it runs on
  /// the coordinator thread between rounds, so a sampler ticked from it may
  /// read any partition's counters without racing workers. Must be purely
  /// observational. Replaces any previous probe; empty function clears.
  void set_window_probe(std::function<void(SimTime)> fn) {
    window_probe_ = std::move(fn);
  }

 private:
  struct Pending {
    SimTime when;
    SmallCallable fn;
  };

  void flush_outboxes(SimTime floor);
  /// The conservative window loop shared by run()/run_detect_deadlock():
  /// returns once every heap and outbox is dry and the quiescence hook (if
  /// any) declined to schedule more work.
  void drain_windows();

  PdesConfig config_;
  std::vector<std::unique_ptr<Engine>> engines_;
  /// outboxes_[source * partitions + target]: written only by the worker
  /// draining `source` during a window, drained only by the coordinator at
  /// the barrier (the pool round is the synchronization point).
  std::vector<std::vector<Pending>> outboxes_;
  /// posted_[source] != 0 when `source`'s outbox row is non-empty (same
  /// single-writer rule), so a window without posts skips the merge scan.
  std::vector<std::uint8_t> posted_;
  /// Each partition's next event time as of its last change (see
  /// drain_windows); written by the partition's drain worker or by the
  /// coordinator between rounds.
  std::vector<std::optional<SimTime>> next_;
  exec::WorkerPool pool_;
  PdesStats stats_;
  std::function<void(SimTime)> window_probe_;
  std::function<bool()> quiescence_hook_;
};

}  // namespace scc::sim
