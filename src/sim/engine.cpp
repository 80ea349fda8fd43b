#include "sim/engine.hpp"

#include <stdexcept>

namespace scc::sim {

void Engine::enable_perturbation(PerturbConfig config) {
  SCC_EXPECTS(!running_);
  SCC_EXPECTS(queue_.empty() && next_seq_ == 0);
  SCC_EXPECTS(config.max_delay < SimTime::max());
  perturb_ = config;
  perturb_rng_ = Xoshiro256(config.seed);
}

void Engine::push_event(SimTime when, std::uintptr_t payload) {
  std::uint64_t tie = 0;
  if (perturb_) {
    tie = perturb_rng_();
    if (perturb_->max_delay > SimTime::zero()) {
      const SimTime drawn{
          perturb_rng_.below(perturb_->max_delay.femtoseconds() + 1)};
      // Saturate at SimTime::max(): enable_perturbation only bounds the
      // per-event delay, not when + delay, so an event scheduled near the
      // end of representable time must clamp instead of overflowing the
      // SimTime arithmetic contract. The RNG draw happens either way, so
      // clamping never shifts the seed stream of later events.
      const SimTime headroom = SimTime::max() - when;
      const SimTime delay = drawn > headroom ? headroom : drawn;
      when += delay;
      if (delay > SimTime::zero()) {
        ++stats_.perturb_delays;
        stats_.perturb_delay_total += delay;
        if (trace_) {
          char detail[40];
          std::snprintf(detail, sizeof detail, "+%llu fs",
                        static_cast<unsigned long long>(delay.femtoseconds()));
          trace_->instant(trace::kEnginePid, "perturb", "inject-delay", now_,
                          detail);
        }
      }
    }
  }
  queue_.push(Event{when, tie, next_seq_++, payload});
}

void Engine::schedule_resume(SimTime when, std::coroutine_handle<> h) {
  SCC_EXPECTS(when >= now_);
  SCC_EXPECTS(h != nullptr);
  const auto address = reinterpret_cast<std::uintptr_t>(h.address());
  SCC_ASSERT((address & 1) == 0);
  push_event(when, address);
}

void Engine::schedule_call(SimTime when, std::function<void()> fn) {
  SCC_EXPECTS(when >= now_);
  SCC_EXPECTS(static_cast<bool>(fn));
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(calls_.size());
    calls_.push_back(std::move(fn));
    // Every slot can be free at once: with room reserved here, dispatch's
    // push_back never allocates.
    free_slots_.reserve(calls_.capacity());
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    calls_[slot] = std::move(fn);
  }
  push_event(when, (std::uintptr_t{slot} << 1) | 1);
}

void Engine::spawn(Task<> task, std::string name) {
  SCC_EXPECTS(task.valid());
  if (trace_) {
    trace_->instant(trace::kEnginePid, "tasks", "spawn", now_, name);
  }
  if (roots_.empty()) {
    // Pre-size the pools once per program: typical machines launch tens of
    // root tasks and keep a bounded frontier of pending events, so the hot
    // loop then never grows either vector.
    roots_.reserve(64);
    queue_.reserve(256);
  }
  roots_.push_back(Root{std::move(task), std::move(name)});
  // Task is lazy; kick it off at the current time through the queue so
  // spawn order equals first-run order (under perturbation the start order
  // is permuted like any other equal-time batch).
  schedule_resume(now_, roots_.back().task.native_handle());
}

void Engine::set_probe(SimTime interval, std::function<void(SimTime)> fn) {
  SCC_EXPECTS(!running_);
  SCC_EXPECTS(interval > SimTime::zero());
  SCC_EXPECTS(static_cast<bool>(fn));
  probe_interval_ = interval;
  const SimTime headroom = SimTime::max() - now_;
  probe_due_ = interval > headroom ? SimTime::max() : now_ + interval;
  probe_ = std::move(fn);
}

void Engine::clear_probe() {
  SCC_EXPECTS(!running_);
  probe_due_ = SimTime::max();
  probe_interval_ = SimTime::zero();
  probe_ = nullptr;
}

void Engine::fire_probe(SimTime limit) {
  // Every tick instant <= the event about to run fires, in order, with
  // now() pinned at the tick instant -- the probe observes exactly the
  // state produced by events strictly before the tick. The cadence
  // saturates: a tick that would overflow SimTime lands on max(), which the
  // loop guard treats as "no further ticks" (an event clamped at max() is
  // still covered by `<= limit` on the prior ticks).
  while (probe_due_ <= limit && probe_due_ < SimTime::max()) {
    const SimTime at = probe_due_;
    const SimTime headroom = SimTime::max() - probe_due_;
    probe_due_ = probe_interval_ > headroom ? SimTime::max()
                                            : probe_due_ + probe_interval_;
    now_ = at;
    probe_(at);
  }
}

void Engine::dispatch(Event ev) {
  SCC_ASSERT(ev.when >= now_);
  if (ev.when >= probe_due_) fire_probe(ev.when);
  now_ = ev.when;
  ++events_processed_;
  if ((ev.payload & 1) == 0) {
    std::coroutine_handle<>::from_address(reinterpret_cast<void*>(ev.payload))
        .resume();
    return;
  }
  // Move the callable out and free its slot before invoking it: the call
  // may schedule further callables, which can reuse the slot or grow (and
  // so relocate) the slab. A throwing call then leaves no slot behind.
  const auto slot = static_cast<std::uint32_t>(ev.payload >> 1);
  std::function<void()> call = std::move(calls_[slot]);
  free_slots_.push_back(slot);
  call();
}

void Engine::drain() {
  SCC_EXPECTS(!running_);
  const RunningGuard guard{&running_};
  while (!queue_.empty()) {
    // Events are 32-byte trivially copyable keys; a callable stays in its
    // slab slot until dispatch, so the hot loop never relocates one.
    dispatch(queue_.pop_min());
  }
}

std::string Engine::drain_and_settle() {
  drain();
  // Diagnostic strings are assembled only here, after the event loop has
  // fully drained -- never inside drain().
  std::string stuck;
  std::exception_ptr first;
  for (auto& root : roots_) {
    const bool done = root.task.done();
    if (trace_) {
      trace_->instant(trace::kEnginePid, "tasks", done ? "done" : "stuck",
                      now_, root.name);
    }
    if (!done) {
      if (!stuck.empty()) stuck += ", ";
      stuck += root.name;
    } else if (!first) {
      first = root.task.failure();
    }
  }
  // Clear roots_ BEFORE rethrowing: the exception_ptr keeps the exception
  // alive past the frame destruction, and every exit must leave the engine
  // re-runnable, not holding dead or stuck coroutine frames.
  roots_.clear();
  if (first) std::rethrow_exception(first);
  return stuck;
}

void Engine::run() {
  const std::string stuck = drain_and_settle();
  if (stuck.empty()) return;
  std::string msg = "simulation deadlock";
  msg += perturb_ ? " [perturbation seed " +
                        std::to_string(perturb_->seed) + "]"
                  : " [perturbation off]";
  msg += ": event queue empty but tasks still blocked: ";
  msg += stuck;
  throw std::runtime_error(msg);
}

bool Engine::run_detect_deadlock() { return drain_and_settle().empty(); }

}  // namespace scc::sim
