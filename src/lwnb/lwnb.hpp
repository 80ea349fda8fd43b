// Single-slot non-blocking primitives (the paper's Section IV-B), the one
// engine behind both non-blocking rungs of the variant ladder.
//
// The insight: collective algorithms organized in rounds exchange at most
// one message per peer per round, so the general iRCCE machinery (request
// lists, wildcards, cancellation, dynamic memory) is pure overhead there.
// This layer supports exactly ONE outstanding send and ONE outstanding
// receive, held in fixed slots -- no allocation, no list walking.
//
// The collectives never use what the general engine adds beyond that, so
// iRCCE's generality is modelled by its per-call cost alone: the engine is
// built with the (issue, complete) cycles of the rung it serves --
// mem::sw::ircce_* for the iRCCE variant, lwnb_* for the lightweight
// one -- and runs the identical Fig. 3 flag handshake either way, so the
// blocking and non-blocking layers are interchangeable correctness-wise;
// only the software path length differs.
#pragma once

#include <cstdint>
#include <span>

#include "rcce/rcce.hpp"
#include "sim/task.hpp"

namespace scc::lwnb {

class Lwnb {
 public:
  /// `issue_cycles` is charged by each isend/irecv, `complete_cycles` by
  /// each completed request.
  Lwnb(rcce::Rcce& rcce, std::uint32_t issue_cycles,
       std::uint32_t complete_cycles)
      : rcce_(&rcce),
        issue_cycles_(issue_cycles),
        complete_cycles_(complete_cycles) {}

  [[nodiscard]] int rank() const { return rcce_->rank(); }

  /// Starts the (single) non-blocking send: stages the first chunk into the
  /// local MPB and raises `sent` at `dest`. Precondition: no send pending.
  sim::Task<> isend(std::span<const std::byte> data, int dest);

  /// Posts the (single) non-blocking receive. Precondition: none pending.
  sim::Task<> irecv(std::span<std::byte> data, int src);

  /// Completes the pending send (waits for the receiver's ack; pushes any
  /// remaining chunks of an oversized message).
  sim::Task<> wait_send();

  /// Completes the pending receive (fetch + ack).
  sim::Task<> wait_recv();

  /// Completes both: the receive first (it moves data; the send ack arrives
  /// from the peer's own receive, overlapping with our copy).
  sim::Task<> wait_both();

  /// Non-blocking completion probes for cooperative progress engines: if
  /// the pending operation can finish without waiting on a peer (its flag
  /// is already up and the message fits one MPB chunk), complete it and
  /// return true; otherwise return false without charging wait time. Multi-
  /// chunk messages always answer false -- their remaining chunks need the
  /// blocking push loop of wait_send / wait_recv.
  sim::Task<bool> test_send();
  sim::Task<bool> test_recv();

  [[nodiscard]] bool send_pending() const { return send_pending_; }
  [[nodiscard]] bool recv_pending() const { return recv_pending_; }

 private:
  rcce::Rcce* rcce_;
  std::uint32_t issue_cycles_;
  std::uint32_t complete_cycles_;
  std::span<const std::byte> sdata_;
  std::span<std::byte> rdata_;
  int sdest_ = -1;
  int rsrc_ = -1;
  bool send_pending_ = false;
  bool recv_pending_ = false;
};

}  // namespace scc::lwnb
