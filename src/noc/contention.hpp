// Optional link-contention timing model.
//
// The paper's latency formulas (and this simulator's default) assume a
// contention-free mesh: every transfer sees only its hop latency. That is
// accurate for the mostly neighbour-local ring schedules the collectives
// use, but dense patterns (Alltoall) do share links. This model adds
// first-order queueing: each directed link keeps a busy-until horizon;
// a transfer crossing occupied links is delayed by the residual busy time
// and then occupies each link for lines * service_cycles.
//
// Timing of the per-link windows is wormhole-style: the head flit reaches
// link i only after traversing the i preceding links, so link i's window
// starts hop_latency * i after the transfer leaves the source router (plus
// any queueing accumulated upstream). Modelling this offset matters in both
// directions: a transfer does NOT collide with traffic that drains off a
// far link before its head arrives there, and trailing links stay occupied
// after nearer ones free up, delaying later transfers that enter mid-route.
//
// Enabled via HwCostModel::model_link_contention (default off, so the
// calibrated figures are unchanged); the abl_contention benchmark
// quantifies its effect. Deterministic: state depends only on the
// (deterministic) transfer sequence.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "noc/topology.hpp"
#include "trace/recorder.hpp"

namespace scc::noc {

/// Cumulative per-directed-link occupancy counters. `windows` is
/// volume-type (one per link crossing, schedule-invariant); the times are
/// time-type (queueing depends on the interleaving of transfers).
struct LinkStats {
  std::uint64_t windows = 0;  // transfers that crossed this link
  SimTime busy;               // total service time
  SimTime queue;              // total residual queueing suffered here
  SimTime max_queue;          // worst single-transfer queueing delay here
};

class LinkContention {
 public:
  /// Route override (fault reroutes around dead links); must outlive the
  /// model. Per-link latency multiplier (slow links); 1.0 = healthy.
  using RouteFn =
      std::function<const std::vector<LinkId>&(CoreId, CoreId)>;
  using LinkFactorFn = std::function<double(const LinkId&)>;

  LinkContention(const Topology& topo, Clock mesh_clock,
                 std::uint32_t service_cycles_per_line,
                 std::uint32_t hop_mesh_cycles)
      : topo_(&topo),
        mesh_clock_(mesh_clock),
        service_cycles_per_line_(service_cycles_per_line),
        hop_latency_(mesh_clock.cycles(hop_mesh_cycles)) {}

  /// Install fault hooks (set by SccMachine when a FaultSpec is active):
  /// transfers then follow the degraded routes, and each link's service
  /// window and traversal latency stretch by its factor. Empty functions
  /// reset to the healthy mesh; factor 1.0 everywhere is bit-identical to
  /// no hooks at all.
  void set_fault_hooks(RouteFn route, LinkFactorFn factor) {
    route_fn_ = std::move(route);
    link_factor_fn_ = std::move(factor);
  }

  /// Registers a transfer of `lines` cache lines from core a's router to
  /// core b's starting at `now`; returns the extra queueing delay the
  /// transfer suffers from earlier traffic still draining on its links.
  SimTime occupy(CoreId a, CoreId b, std::uint64_t lines, SimTime now);

  /// Total queueing delay handed out so far (for reporting).
  [[nodiscard]] SimTime total_delay() const { return total_delay_; }
  [[nodiscard]] std::uint64_t delayed_transfers() const {
    return delayed_transfers_;
  }

  /// Per-link cumulative stats, "(x,y)->(x,y)" name first, sorted by link
  /// coordinates (deterministic order for the metrics snapshot).
  [[nodiscard]] std::vector<std::pair<std::string, LinkStats>> link_stats()
      const;

  /// Attaches a trace recorder (nullptr detaches): every occupy() then
  /// records one busy window per crossed link, named "(x,y)->(x,y)".
  void set_trace(trace::Recorder* recorder) {
    if (recorder != trace_) names_.clear();  // views live in the recorder
    trace_ = recorder;
  }

  void reset();

 private:
  using Key = std::tuple<int, int, int, int>;  // from.x,from.y,to.x,to.y
  static Key key_of(const LinkId& link) {
    return {link.from.x, link.from.y, link.to.x, link.to.y};
  }

  [[nodiscard]] std::string_view link_name(const LinkId& link);

  const Topology* topo_;
  Clock mesh_clock_;
  std::uint32_t service_cycles_per_line_;
  SimTime hop_latency_;
  RouteFn route_fn_;
  LinkFactorFn link_factor_fn_;
  std::map<Key, SimTime> busy_until_;
  std::map<Key, LinkStats> stats_;
  SimTime total_delay_;
  std::uint64_t delayed_transfers_ = 0;
  trace::Recorder* trace_ = nullptr;
  std::map<Key, std::string_view> names_;  // interned link names
};

}  // namespace scc::noc
