// MPB synchronization flags with timed visibility.
//
// Each core owns a small array of one-byte flags living (conceptually) in
// its MPB. A core polls flags in its *own* MPB cheaply and sets flags in a
// peer's MPB with a posted remote write -- the RCCE discipline. Waits are
// event-driven in the simulator (the waiter parks on the flag's wait queue
// and is resumed when a write lands), which is observationally equivalent
// to busy polling under a contention-free mesh model; the detection read's
// latency is still charged by CoreApi.
#pragma once

#include <cstdint>
#include <vector>

#include "common/contracts.hpp"
#include "sim/wait_queue.hpp"

namespace scc::machine {

using FlagValue = std::uint8_t;

struct FlagRef {
  int owner_core = 0;  // whose MPB holds the flag
  int index = 0;
};

/// Cumulative flag-traffic counters. `sets` is volume-type (one per
/// protocol deposit, schedule-invariant); `polls` and `wakeups` are
/// time-type (wait re-checks and notify fan-out depend on the
/// interleaving, so they may drift under schedule perturbation).
struct FlagStats {
  std::uint64_t sets = 0;     // deposits (including deposit_add)
  std::uint64_t polls = 0;    // value() reads (wait re-checks, probes, peeks)
  std::uint64_t wakeups = 0;  // waiters resumed by deposits
};

class FlagFile {
 public:
  /// Every flag's wait queue is bound to `engine`.
  FlagFile(sim::Engine& engine, int num_cores, int flags_per_core);

  [[nodiscard]] FlagValue value(FlagRef ref) const {
    ++stats_.polls;
    return slot(ref).value;
  }

  /// Makes `v` visible at the engine's *current* time and wakes waiters.
  /// Callers are responsible for charging the write latency first and for
  /// scheduling delayed visibility (CoreApi does both).
  void deposit(FlagRef ref, FlagValue v);

  /// Atomic-increment deposit (used by barrier counters).
  FlagValue deposit_add(FlagRef ref, FlagValue delta);

  [[nodiscard]] sim::WaitQueue& waiters(FlagRef ref) {
    return slot(ref).queue;
  }

  [[nodiscard]] int flags_per_core() const { return flags_per_core_; }

  [[nodiscard]] const FlagStats& stats() const { return stats_; }

 private:
  struct Slot {
    explicit Slot(sim::Engine& e) : queue(e) {}
    FlagValue value = 0;
    sim::WaitQueue queue;
  };

  [[nodiscard]] Slot& slot(FlagRef ref) {
    SCC_EXPECTS(ref.owner_core >= 0 && ref.owner_core < num_cores_);
    SCC_EXPECTS(ref.index >= 0 && ref.index < flags_per_core_);
    return slots_[static_cast<std::size_t>(ref.owner_core) *
                      static_cast<std::size_t>(flags_per_core_) +
                  static_cast<std::size_t>(ref.index)];
  }
  [[nodiscard]] const Slot& slot(FlagRef ref) const {
    return const_cast<FlagFile*>(this)->slot(ref);
  }

  int num_cores_;
  int flags_per_core_;
  std::vector<Slot> slots_;
  // Mutable: polls are counted on the const read path; purely
  // observational, never feeds back into timing.
  mutable FlagStats stats_;
};

}  // namespace scc::machine
