// Per-core communication stack for the collectives, parameterized over the
// point-to-point primitive layer. Selecting the layer changes ONLY the
// synchronization structure and software overhead of each exchange -- the
// wire protocol and data results are identical -- which is exactly the
// comparison the paper makes.
#pragma once

#include <array>
#include <coroutine>
#include <optional>
#include <span>
#include <string_view>

#include "common/aligned.hpp"

#include "lwnb/lwnb.hpp"
#include "rcce/rcce.hpp"
#include "sim/task.hpp"

namespace scc::coll {

enum class Prims {
  kBlocking,     // RCCE send/recv with odd-even ordering (Fig. 4)
  kIrcce,        // iRCCE isend/irecv + wait_all (Fig. 5), at iRCCE's cost
  kLightweight,  // the paper's single-slot non-blocking primitives
};

/// The three message-passing stacks, in the paper's presentation order.
/// Differential checkers iterate this: all three must produce element-wise
/// identical collective results for any legal schedule.
inline constexpr std::array<Prims, 3> kAllPrims = {
    Prims::kBlocking, Prims::kIrcce, Prims::kLightweight};

[[nodiscard]] constexpr std::string_view prims_name(Prims p) {
  switch (p) {
    case Prims::kBlocking: return "blocking";
    case Prims::kIrcce: return "ircce";
    case Prims::kLightweight: return "lightweight";
  }
  return "?";
}

/// The yield state of one progress-engine lane (coll/nbc.hpp), written by
/// the round gates of the Stack attached to it. Detached (the default),
/// round boundaries are free no-ops, so blocking calls are bit-identical
/// to a build without the hook.
struct LaneYield {
  std::coroutine_handle<> resume;   // where the lane's next step resumes
  std::coroutine_handle<> stepper;  // the progress pass running this step
  /// Set when the engine interleaves MORE than one lane on this core. A
  /// schedule step that blocks on a peer's flag then pins the whole core
  /// and can close a cross-lane wait cycle (core A stuck in lane 0 waiting
  /// on B while B is stuck in lane 1 waiting on A), so cooperative lanes
  /// poll-and-yield at completion points instead of blocking mid-step.
  /// Single-lane engines keep the blocking waits -- and their bit-exact
  /// blocking-API timing.
  bool cooperative = false;
};

class Stack {
 public:
  /// Both non-blocking rungs run the single-slot engine (lwnb/lwnb.hpp);
  /// they differ only in its per-call (issue, complete) cycles.
  Stack(machine::CoreApi& api, const rcce::Layout& layout, Prims prims)
      : rcce_(api, layout), prims_(prims) {
    if (prims == Prims::kIrcce) {
      lwnb_.emplace(rcce_, mem::sw::ircce_issue, mem::sw::ircce_complete);
    }
    if (prims == Prims::kLightweight) {
      lwnb_.emplace(rcce_, mem::sw::lwnb_issue, mem::sw::lwnb_complete);
    }
  }

  [[nodiscard]] int rank() const { return rcce_.rank(); }
  [[nodiscard]] int num_cores() const { return rcce_.num_cores(); }
  [[nodiscard]] Prims prims() const { return prims_; }
  [[nodiscard]] machine::CoreApi& api() { return rcce_.api(); }
  [[nodiscard]] const rcce::Layout& layout() const { return rcce_.layout(); }

  /// One ring/pairwise round: send `sbuf` to `dest` while receiving `rbuf`
  /// from `src`.
  ///  - blocking: odd cores receive first, even cores send first (the
  ///    deadlock-avoiding odd-even ordering whose barrier-like coupling the
  ///    paper identifies as optimization point A);
  ///  - iRCCE / lightweight: post both, then complete both.
  sim::Task<> exchange(std::span<const std::byte> sbuf, int dest,
                       std::span<std::byte> rbuf, int src);

  /// Pairwise variant for tournament rounds where send and receive involve
  /// the SAME partner. The blocking ordering is decided by rank comparison
  /// (the lower rank sends first), which is deadlock-free because the pairs
  /// of one round are disjoint; odd-even ordering is not safe here since a
  /// pair can have equal parity.
  sim::Task<> exchange_pair(std::span<const std::byte> sbuf,
                            std::span<std::byte> rbuf, int partner);

  /// Shift-pattern round (Bruck phases): send `sbuf` to (rank + dist) mod p
  /// while receiving `rbuf` from (rank - dist) mod p, dist != 0 mod p
  /// (negative distances allowed). Non-blocking layers post both and
  /// complete both. The blocking layer needs a distance-aware ordering:
  /// odd-even pairing is deadlock-free only when send and receive partners
  /// have opposite parity (p even and dist odd -- the ring case). For any
  /// other (p, dist) the shift permutation decomposes into gcd(p, dist)
  /// cycles whose members can share parity, so instead the smallest rank of
  /// each cycle (rank < gcd) receives first and everyone else sends first:
  /// the breaker drains its predecessor, completion propagates around each
  /// cycle, and no cycle of waiting sends can close. This serializes each
  /// cycle (the price the Selector charges Bruck on the blocking layer).
  sim::Task<> exchange_shift(std::span<const std::byte> sbuf,
                             std::span<std::byte> rbuf, int dist);

  /// One-directional transfer through the selected layer (tree phases of
  /// scatter/gather). Non-blocking layers post + immediately complete; the
  /// saving vs. blocking is their smaller call overhead.
  sim::Task<> send(std::span<const std::byte> data, int dest);
  sim::Task<> recv(std::span<std::byte> data, int src);

  sim::Task<> barrier() { return rcce_.barrier(); }

  /// Round-boundary awaitable. The collective kernels `co_await` this once
  /// per communication round: with no lane attached it is ready
  /// immediately (zero events, zero simulated time -- the blocking path is
  /// unchanged); with one attached it parks the suspended frame in the lane
  /// and transfers back to the stepping progress pass, so the non-blocking
  /// engine can interleave other work (DESIGN.md §17).
  struct RoundGate {
    LaneYield* lane;
    [[nodiscard]] bool await_ready() const noexcept { return lane == nullptr; }
    [[nodiscard]] std::coroutine_handle<> await_suspend(
        std::coroutine_handle<> frame) const noexcept {
      lane->resume = frame;
      return lane->stepper;
    }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] RoundGate round_gate() const { return RoundGate{lane_}; }
  void attach(LaneYield* lane) { lane_ = lane; }

  /// Persistent per-core scratch for the collective algorithms. Temporaries
  /// must not be heap-allocated per call: the cache model keys on host
  /// addresses, and allocator address reuse would make hit/miss patterns --
  /// and therefore simulated time -- depend on the host heap layout.
  /// Slots never shrink; reuse within a run is deterministic.
  [[nodiscard]] std::span<double> scratch(std::size_t elems, int slot) {
    SCC_EXPECTS(slot >= 0 && slot < static_cast<int>(scratch_.size()));
    auto& buf = scratch_[static_cast<std::size_t>(slot)];
    if (buf.size() < elems) buf.resize(elems);
    return {buf.data(), elems};
  }

 private:
  /// True when completion points must poll-and-yield (multi-lane engine).
  [[nodiscard]] bool cooperative() const {
    return lane_ != nullptr && lane_->cooperative;
  }
  /// Poll-and-yield completion of the pending slots: test each (the
  /// receive first, like wait_both), and while either is incomplete charge
  /// one poll tick and yield the schedule so the engine's other lanes keep
  /// making progress.
  sim::Task<> coop_wait_lwnb(bool pending_recv, bool pending_send);

  rcce::Rcce rcce_;
  std::optional<lwnb::Lwnb> lwnb_;
  Prims prims_;
  LaneYield* lane_ = nullptr;
  std::array<aligned_vector<double>, 3> scratch_;
};

}  // namespace scc::coll
