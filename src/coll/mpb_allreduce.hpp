// MPB-direct Allreduce (the paper's Section IV-D).
//
// The ring ReduceScatter treats data blocks as in-transit data: received,
// reduced, and immediately forwarded. Instead of bouncing every block
// through private memory (remote MPB -> private, reduce in private,
// private -> local MPB), this routine:
//   - feeds the reduction directly from the LEFT neighbour's MPB (remote
//     read) and the local input vector,
//   - writes the result directly into the LOCAL MPB,
//   - double-buffers the MPB (split in half, Fig. 8) so a core can fill
//     one buffer while its right neighbour still reads the other,
//   - synchronizes buffers with filled/free handshake flags.
//
// The allgather phase forwards the reduced blocks through the same MPB
// buffers, copying each into the private result vector as it passes by.
//
// Why the measured gain is small on the real chip (and in the default
// config): the tile-MPB arbiter bug forces local MPB accesses through
// self-addressed packets (45 core + 8 mesh cycles/line instead of 15 core
// cycles), while the private-memory path it replaces is served from the
// cache after the first touch. Run with SccConfig::bug_fixed() to see the
// hypothetical gain (bench/abl_mpb_bug).
//
// Handshake flags carry 8-bit SEQUENCE numbers rather than booleans: each
// write/consume event uses the next value, so back-to-back invocations
// need no flag clearing and cannot confuse a stale token for a fresh one.
// Consequence: one MpbAllreduce object must persist across invocations on
// the same machine (both sides count events).
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/aligned.hpp"

#include "coll/block_split.hpp"
#include "machine/core_api.hpp"
#include "rcce/layout.hpp"
#include "rcce/rcce.hpp"
#include "sim/task.hpp"

namespace scc::coll {

class MpbAllreduce {
 public:
  MpbAllreduce(machine::CoreApi& api, const rcce::Layout& layout)
      : api_(&api), layout_(&layout) {}

  /// SPMD entry: every core calls run with its own input/output vectors.
  /// The vector's blocks must fit (see fits()).
  sim::Task<> run(std::span<const double> in, std::span<double> out,
                  rcce::ReduceOp op, SplitPolicy policy);

  /// True when the largest of `blocks` can be double-buffered in
  /// `layout`'s MPB payload.
  [[nodiscard]] static bool fits(const rcce::Layout& layout,
                                 const std::vector<Block>& blocks);

 private:
  struct BufferGeometry {
    std::size_t buf_bytes = 0;  // size of each half (32-byte aligned)
    std::size_t max_block = 0;  // elements
  };
  [[nodiscard]] static BufferGeometry geometry(
      const std::vector<Block>& blocks);

  [[nodiscard]] mem::MpbAddr buf_addr(int core, int buf,
                                      const BufferGeometry& g) const {
    return layout_->payload_addr(core,
                                 static_cast<std::size_t>(buf) * g.buf_bytes);
  }

  /// Waits until our right neighbour freed local buffer `buf` (no-op for
  /// its very first use ever), then writes `block` into it and signals
  /// `filled` to the right neighbour.
  sim::Task<> acquire_local_buffer(int buf);
  sim::Task<> publish_filled(int buf);
  /// Waits for the left neighbour's `filled` token for its buffer `buf`.
  sim::Task<> await_remote_filled(int buf);
  sim::Task<> release_remote_buffer(int buf);

  machine::CoreApi* api_;
  const rcce::Layout* layout_;

  // Sequence counters (wrap mod 256; 0 is the flags' initial value, so
  // counters start at 1).
  std::array<std::uint8_t, 2> filled_out_{{0, 0}};  // events sent right
  std::array<std::uint8_t, 2> filled_in_{{0, 0}};   // events expected from left
  std::array<std::uint8_t, 2> free_out_{{0, 0}};    // releases sent left
  std::array<std::uint8_t, 2> free_in_{{0, 0}};     // releases expected
  std::array<std::uint64_t, 2> writes_{{0, 0}};     // total writes per buffer
  /// Persistent block scratch (per-call heap temporaries would make cache
  /// behaviour depend on host allocator reuse -- see coll::Stack::scratch).
  aligned_vector<double> scratch_;
};

}  // namespace scc::coll
