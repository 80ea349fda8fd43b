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

#include <algorithm>
#include <string>
#include <string_view>
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
  /// Transfers follow `topo`'s routes, and each link's service window and
  /// traversal latency stretch by its link factor (exactly unscaled at 1.0).
  LinkContention(const Topology& topo, Clock mesh_clock,
                 std::uint32_t service_cycles_per_line,
                 std::uint32_t hop_mesh_cycles)
      : topo_(&topo),
        mesh_clock_(mesh_clock),
        service_cycles_per_line_(service_cycles_per_line),
        hop_latency_(mesh_clock.cycles(hop_mesh_cycles)),
        busy_until_(topo.num_links()),
        stats_(topo.num_links()),
        names_(topo.num_links()) {}

  /// Registers a transfer of `lines` cache lines from core a's router to
  /// core b's starting at `now`; returns the extra queueing delay the
  /// transfer suffers from earlier traffic still draining on its links.
  SimTime occupy(CoreId a, CoreId b, std::uint64_t lines, SimTime now);

  /// Total queueing delay handed out so far (for reporting).
  [[nodiscard]] SimTime total_delay() const { return total_delay_; }
  [[nodiscard]] std::uint64_t delayed_transfers() const {
    return delayed_transfers_;
  }

  /// Cumulative stats of every link a transfer has crossed, "(x,y)->(x,y)"
  /// name first, tile by tile.
  [[nodiscard]] std::vector<std::pair<std::string, LinkStats>> link_stats()
      const;

  /// Attaches a trace recorder (nullptr detaches): every occupy() then
  /// records one busy window per crossed link, named "(x,y)->(x,y)".
  void set_trace(trace::Recorder* recorder) {
    if (recorder != trace_) {  // views live in the recorder
      std::fill(names_.begin(), names_.end(), std::string_view{});
    }
    trace_ = recorder;
  }

 private:
  [[nodiscard]] std::string_view link_name(std::uint32_t link);

  const Topology* topo_;
  Clock mesh_clock_;
  std::uint32_t service_cycles_per_line_;
  SimTime hop_latency_;
  // Per Topology::link_index.
  std::vector<SimTime> busy_until_;
  std::vector<LinkStats> stats_;
  std::vector<std::string_view> names_;  // interned link names
  SimTime total_delay_;
  std::uint64_t delayed_transfers_ = 0;
  trace::Recorder* trace_ = nullptr;
};

}  // namespace scc::noc
