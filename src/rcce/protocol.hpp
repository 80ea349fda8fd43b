// The RCCE wire protocol (Fig. 3 of the paper), factored into the four
// half-steps shared by the blocking and the non-blocking (lwnb) layers:
//
//   sender:    stage_and_signal .................. await_ack
//   receiver:  ............ await_and_fetch + ack_sender
//
// stage_and_signal: copy one chunk from the sender's private memory into
//   its own MPB payload, then set the `sent` flag in the receiver's MPB.
// await_and_fetch: wait for `sent`, clear it, copy the chunk out of the
//   sender's MPB into private memory (remote read over the mesh).
// ack_sender: set `ready` in the sender's MPB.
// await_ack: wait for `ready`, clear it -- only then may the sender reuse
//   its payload chunk.
//
// Messages with a trailing partial cache line cost an extra internal
// transfer call (the write-combining buffer only moves whole lines); this
// is the source of the period-4 latency spikes in Fig. 9.
#pragma once

#include <cstdint>
#include <span>

#include "machine/core_api.hpp"
#include "rcce/layout.hpp"
#include "sim/task.hpp"

namespace scc::rcce {

/// Sender half-step 1: stage `chunk` into the local MPB payload at
/// `payload_offset` and raise `sent` at the receiver.
sim::Task<> stage_and_signal(machine::CoreApi& api, const Layout& layout,
                             std::span<const std::byte> chunk, int dest,
                             std::size_t payload_offset = 0);

/// Sender half-step 2: wait for the receiver's `ready`, then clear it.
sim::Task<> await_ack(machine::CoreApi& api, const Layout& layout, int dest);

/// Receiver half-step 1: wait for `sent` from `src`, clear it, and copy the
/// staged chunk from `src`'s MPB into `chunk` (private memory).
sim::Task<> await_and_fetch(machine::CoreApi& api, const Layout& layout,
                            std::span<std::byte> chunk, int src,
                            std::size_t payload_offset = 0);

/// Receiver half-step 2: raise `ready` at the sender.
sim::Task<> ack_sender(machine::CoreApi& api, const Layout& layout, int src);

/// Probe spacing (core cycles) of the non-blocking completion loops:
/// complete_exchange below and coll::Stack's cooperative poll-and-yield.
inline constexpr std::uint64_t kPollCycles = 300;

/// True if `sent` from `src` is already raised (zero-cost probe used by the
/// non-blocking engine's test paths; the charged read happens on fetch).
[[nodiscard]] bool sent_is_up(machine::CoreApi& api, const Layout& layout,
                              int src);

/// Completes an in-flight bidirectional exchange whose messages may exceed
/// one MPB chunk: alternates between fetching available receive chunks from
/// `src` and, on ack, staging further send chunks to `dest`, polling every
/// kPollCycles core cycles when neither side is ready.
///
/// Completing the receive *before* pushing the remaining send chunks (what
/// the engine's plain wait paths do) deadlocks for multi-chunk messages in
/// any exchange cycle -- pairwise included: each peer waits for its
/// source's next chunk while its own next chunk sits unstaged behind the
/// completed-receive-first policy. The engine calls this only for the
/// oversized case, keeping single-chunk wait sequences (and their timing)
/// unchanged.
///
/// Preconditions: the first send chunk (`staged` bytes, min(chunk, total))
/// is already staged and signalled; the receive has fetched nothing yet.
/// Performs the receive's full fetch+ack chunk loop (at least one handshake
/// even for empty messages) and the send's remaining stage+ack loop; the
/// caller charges its own per-request completion overheads afterwards.
sim::Task<> complete_exchange(machine::CoreApi& api, const Layout& layout,
                              std::span<const std::byte> sdata,
                              std::size_t staged, int dest,
                              std::span<std::byte> rdata, int src);

}  // namespace scc::rcce
