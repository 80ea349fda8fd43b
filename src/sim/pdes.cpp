#include "sim/pdes.hpp"

#include <algorithm>

namespace scc::sim {

namespace {

/// t + d without overflowing SimTime's checked arithmetic; saturates at
/// SimTime::max() (events clamped there are handled by the full drain).
SimTime saturating_add(SimTime t, SimTime d) {
  const SimTime headroom = SimTime::max() - t;
  return d > headroom ? SimTime::max() : t + d;
}

}  // namespace

PdesEngine::PdesEngine(PdesConfig config)
    : config_(config),
      outboxes_(static_cast<std::size_t>(config.partitions) *
                static_cast<std::size_t>(config.partitions)),
      posted_(static_cast<std::size_t>(config.partitions), 0),
      next_(static_cast<std::size_t>(config.partitions)),
      pool_(std::min(std::max(config.workers, 1), config.partitions),
            config.instrument_workers) {
  SCC_EXPECTS(config.partitions >= 1);
  SCC_EXPECTS(config.workers >= 1);
  SCC_EXPECTS(config.lookahead > SimTime::zero());
  engines_.reserve(static_cast<std::size_t>(config.partitions));
  for (int p = 0; p < config.partitions; ++p)
    engines_.push_back(std::make_unique<Engine>());
}

void PdesEngine::post(int source, int target, SimTime when, SmallCallable fn) {
  SCC_EXPECTS(source >= 0 && source < partitions());
  SCC_EXPECTS(target >= 0 && target < partitions());
  SCC_EXPECTS(static_cast<bool>(fn));
  if (source == target) {
    // Local: no conservatism needed, the partition's own heap orders it.
    engines_[static_cast<std::size_t>(source)]->schedule_call(when,
                                                              std::move(fn));
    return;
  }
  outboxes_[static_cast<std::size_t>(source) *
                static_cast<std::size_t>(partitions()) +
            static_cast<std::size_t>(target)]
      .push_back(Pending{when, std::move(fn)});
  posted_[static_cast<std::size_t>(source)] = 1;
}

void PdesEngine::flush_outboxes(SimTime floor) {
  // Fixed (target, source, FIFO) order: the target engine's sequence
  // counters advance identically for every worker count -- this is the
  // deterministic merge that keeps the whole drain bit-identical to serial.
  // Sources that posted nothing this window have empty rows and are
  // skipped, which leaves the order unchanged.
  if (std::find(posted_.begin(), posted_.end(), 1) == posted_.end()) return;
  const auto num = static_cast<std::size_t>(partitions());
  std::uint64_t merged = 0;
  for (std::size_t target = 0; target < num; ++target) {
    Engine& engine = *engines_[target];
    const std::uint64_t merged_before = merged;
    for (std::size_t source = 0; source < num; ++source) {
      if (posted_[source] == 0) continue;
      std::vector<Pending>& box = outboxes_[source * num + target];
      for (Pending& pending : box) {
        // The conservative contract: nothing posted during a window may
        // land before the window's horizon. A violation means the posting
        // code charged less than the configured lookahead for a
        // cross-partition interaction -- a correctness bug, not a timing
        // detail, so it aborts.
        SCC_EXPECTS(pending.when >= floor);
        // Slack introspection (in-window merges only: the pre-run flush has
        // no conservative floor and would report meaningless huge slack).
        if (floor > SimTime::zero()) {
          const SimTime slack = pending.when - floor;
          if (slack == SimTime::zero()) ++stats_.posts_at_floor;
          stats_.min_post_slack = std::min(stats_.min_post_slack, slack);
        }
        engine.schedule_call(pending.when, std::move(pending.fn));
        ++stats_.posts_delivered;
        ++merged;
      }
      box.clear();
    }
    if (merged != merged_before) next_[target] = engine.next_event_time();
  }
  std::fill(posted_.begin(), posted_.end(), 0);
  stats_.max_window_posts = std::max(stats_.max_window_posts, merged);
}

void PdesEngine::drain_windows() {
  const auto num = static_cast<std::size_t>(partitions());
  // A window drains only the partitions with an event below its horizon:
  // any other partition's drain_until would return at once, since nothing
  // reaches a heap mid-window (cross-partition posts wait in the
  // outboxes). Each partition's next event time is cached in next_ and
  // refreshed only where its heap can have changed: by the worker that
  // drains it and by flush_outboxes for each target it merges into; setup
  // code, the quiescence hook and a saturated drain are followed by a full
  // refresh. Touching only the busy partitions' state is what keeps a
  // window cheap. The round body is built once and reads `horizon` and
  // `busy` by reference; each call writes only its own partition's slot.
  SimTime horizon;
  std::vector<std::size_t> busy;
  busy.reserve(num);
  const std::function<void(std::size_t)> drain_busy = [&](std::size_t i) {
    Engine& engine = *engines_[busy[i]];
    engine.drain_until(horizon);
    next_[busy[i]] = engine.next_event_time();
  };
  const auto refresh_all = [&] {
    for (std::size_t p = 0; p < num; ++p)
      next_[p] = engines_[p]->next_event_time();
  };
  refresh_all();
  for (;;) {
    std::optional<SimTime> t_min;
    for (const std::optional<SimTime>& t : next_)
      if (t && (!t_min || *t < *t_min)) t_min = t;
    if (!t_min) {
      // Heaps are dry. Posts buffered outside a window (setup code calling
      // post() before run()) may still be pending; merge them with no
      // conservative floor -- nothing is executing -- and keep going.
      if (std::find(posted_.begin(), posted_.end(), 1) != posted_.end()) {
        flush_outboxes(SimTime::zero());
        continue;
      }
      // Fully quiescent. Machine-level coordination with no mesh latency of
      // its own (the harness barrier) gets one chance to release waiters;
      // if it schedules anything the window loop keeps going.
      if (quiescence_hook_ && quiescence_hook_()) {
        refresh_all();
        continue;
      }
      break;
    }

    horizon = saturating_add(*t_min, config_.lookahead);
    const std::uint64_t before = events_processed();
    ++stats_.windows;
    if (horizon == SimTime::max()) {
      // Saturated horizon: drain_until's strict < would strand events
      // clamped exactly at SimTime::max(); the unbounded drain takes them.
      ++stats_.saturated_windows;
      pool_.run_round(num, [&](std::size_t p) { engines_[p]->drain(); });
      refresh_all();
    } else {
      busy.clear();
      for (std::size_t p = 0; p < num; ++p)
        if (next_[p] && *next_[p] < horizon) busy.push_back(p);
      pool_.run_round(busy.size(), drain_busy);
    }
    stats_.max_window_events =
        std::max(stats_.max_window_events, events_processed() - before);
    flush_outboxes(horizon);
    if (window_probe_) {
      // Coordinator thread, between rounds: workers are parked, so the probe
      // may read any partition's counters. A saturated horizon is reported
      // as the actual end time (max() would be a useless timestamp).
      window_probe_(horizon == SimTime::max() ? now() : horizon);
    }
  }
}

void PdesEngine::run() {
  if (partitions() == 1) {
    // Degenerate case: one partition IS a serial engine. Skip the window
    // protocol (and its WorkerPool round overhead) entirely -- the drain,
    // deadlock diagnostics and exception surfacing are bit-identical to a
    // bare sim::Engine. The quiescence hook still participates: run() once,
    // consult the hook, repeat while it schedules more work.
    Engine& engine = *engines_[0];
    do {
      engine.run();
    } while (quiescence_hook_ && quiescence_hook_());
    return;
  }
  drain_windows();

  // Root bookkeeping in partition order: deadlock diagnostics and the
  // first root failure surface exactly as a serial engine would surface
  // them, partition by partition.
  for (auto& engine : engines_) engine->run();
}

bool PdesEngine::run_detect_deadlock() {
  if (partitions() == 1) {
    Engine& engine = *engines_[0];
    bool ok = engine.run_detect_deadlock();
    while (ok && quiescence_hook_ && quiescence_hook_())
      ok = engine.run_detect_deadlock();
    return ok;
  }
  drain_windows();

  // Partition order, same exception-over-deadlock contract as the serial
  // engine: the first root exception (spawn order within the earliest
  // affected partition) outranks any deadlock diagnosis.
  bool ok = true;
  for (auto& engine : engines_) ok = engine->run_detect_deadlock() && ok;
  return ok;
}

std::uint64_t PdesEngine::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& engine : engines_) total += engine->events_processed();
  return total;
}

SimTime PdesEngine::now() const {
  SimTime latest = SimTime::zero();
  for (const auto& engine : engines_)
    latest = std::max(latest, engine->now());
  return latest;
}

EngineStats PdesEngine::aggregated_stats() const {
  EngineStats total;
  for (const auto& engine : engines_) {
    const EngineStats& s = engine->stats();
    total.parks += s.parks;
    total.notifies += s.notifies;
    total.waiters_woken += s.waiters_woken;
    total.perturb_delays += s.perturb_delays;
    total.perturb_delay_total += s.perturb_delay_total;
  }
  return total;
}

}  // namespace scc::sim
