// Structured phase-interval tracing.
//
// The paper motivates its first optimization with a time-attribution
// profile ("cores spend up to 50% of their time in rcce_wait_until"), but
// machine::CoreProfile only keeps per-phase *totals*. The Recorder keeps
// the intervals those totals are summed from -- {core, phase, t0, t1,
// detail} -- plus scheduler instants (task spawn/park/notify, perturbation
// decisions) and per-link occupancy windows from the contention model, so a
// run can be replayed into a visual timeline (chrome://tracing; see
// chrome_export.hpp) and per-link utilization can be derived.
//
// Invariants:
//   - Totals are derivable: summing a core's intervals per phase lane
//     reproduces its CoreProfile counters exactly (tested).
//   - Bounded memory: at most `capacity` events are kept; later events are
//     counted in dropped() instead of stored (cap + drop counter).
//   - Deterministic: recording only reads virtual time, so given the same
//     program and (engine, perturbation) seeds the event stream -- and the
//     exported JSON -- is bit-identical run to run.
//   - Observational: recording never charges time or schedules events, so
//     traced and untraced runs have identical timing (tested).
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"

namespace scc::trace {

/// Pseudo-pids for event sources that are not a core. Core events use the
/// core's rank (>= 0).
inline constexpr int kEnginePid = -1;  // scheduler instants
inline constexpr int kLinkPid = -2;    // NoC link occupancy windows

enum class EventKind : std::uint8_t {
  kInterval,    // phase interval on a core lane
  kInstant,     // point event (scheduler decisions etc.)
  kLinkWindow,  // one link busy window of one transfer
};

struct Event {
  EventKind kind = EventKind::kInstant;
  /// Run scope (see Recorder::begin_run); 0 until the first begin_run.
  int run = 0;
  /// Core rank, kEnginePid or kLinkPid.
  int pid = 0;
  /// Lane within the pid: phase name for intervals, link name for link
  /// windows, scheduler lane for instants. Interned/static storage.
  std::string_view lane;
  /// Event name (instants); intervals reuse the lane name.
  std::string_view name;
  SimTime t0;
  SimTime t1;     // == t0 for instants
  SimTime extra;  // kLinkWindow: queueing delay the transfer suffered here
  std::string detail;  // small free-form annotation (args.detail in chrome)
};

class Recorder {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 18;

  explicit Recorder(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {
    run_labels_.emplace_back();  // implicit run 0
  }

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Opens a new run scope (e.g. one harness::run_collective invocation):
  /// subsequent events carry the new run index and the exporter gives each
  /// (run, core) its own process group, so one trace can hold a whole sweep.
  void begin_run(std::string label) {
    run_labels_.push_back(std::move(label));
  }

  /// Phase interval [t0, t1] on a core's `lane` (zero-length is allowed:
  /// a satisfied flag wait still mirrors its CoreProfile::add call).
  void interval(int core, std::string_view lane, SimTime t0, SimTime t1,
                std::string detail = {}) {
    if (!admit()) return;
    events_.push_back(Event{EventKind::kInterval, current_run(), core, lane,
                            lane, t0, t1, SimTime::zero(),
                            std::move(detail)});
  }

  /// Point event at `t` (scheduler decisions, perturbation injections...).
  void instant(int pid, std::string_view lane, std::string_view name,
               SimTime t, std::string detail = {}) {
    if (!admit()) return;
    events_.push_back(Event{EventKind::kInstant, current_run(), pid, lane,
                            name, t, t, SimTime::zero(), std::move(detail)});
  }

  /// One transfer's busy window [t0, t1] on directed link `link`, plus the
  /// queueing delay it suffered waiting for the link to drain.
  void link_window(std::string_view link, SimTime t0, SimTime t1,
                   SimTime queue_delay) {
    if (!admit()) return;
    events_.push_back(Event{EventKind::kLinkWindow, current_run(), kLinkPid,
                            link, link, t0, t1, queue_delay, {}});
  }

  /// Stable storage for dynamically-built lane names (e.g. link names):
  /// the returned view lives as long as the recorder; repeats share a copy.
  std::string_view intern(const std::string& s) {
    return *interned_.insert(s).first;
  }

  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  [[nodiscard]] const std::vector<std::string>& run_labels() const {
    return run_labels_;
  }
  [[nodiscard]] int current_run() const {
    return static_cast<int>(run_labels_.size()) - 1;
  }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Drops recorded events and run scopes (interned names are kept -- views
  /// handed out earlier must stay valid).
  void clear() {
    events_.clear();
    run_labels_.assign(1, std::string{});
    dropped_ = 0;
  }

 private:
  [[nodiscard]] bool admit() {
    if (events_.size() >= capacity_) {
      ++dropped_;
      return false;
    }
    return true;
  }

  std::size_t capacity_;
  std::vector<Event> events_;
  std::vector<std::string> run_labels_;
  std::uint64_t dropped_ = 0;
  // std::set: node-based, so element addresses (and the views intern()
  // hands out) are stable across inserts.
  std::set<std::string, std::less<>> interned_;
};

}  // namespace scc::trace
