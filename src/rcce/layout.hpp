// MPB layout shared by the RCCE-family communication layers.
//
// Each core's 8 KB MPB is divided into:
//   [ flag lines: one 32-byte line per remote writer ][ payload chunk ]
//
// Giving every potential writer its own line keeps flag writes free of
// read-modify-write races at line granularity (the write-combining buffer
// moves whole lines), mirroring RCCE's one-line-per-flag allocation.
// Flag *indices* map into the machine's FlagFile:
//   sent(from)    -- writer `from` staged a message for me
//   ready(from)   -- writer `from` consumed the message I staged
//   barrier(r)    -- dissemination-barrier round r (single writer each)
//   mpb_filled(b)/mpb_free(b) -- MPB-direct Allreduce double buffering
//
// Lane sublayouts (Layout::lane): the non-blocking progress engine runs
// several collectives concurrently over one untagged flag fabric, which is
// only safe if concurrent schedules never share a (flag, chunk) namespace.
// A lane is a vertical slice of the same MPB: lane L gets flag indices
// [L*flags_needed, (L+1)*flags_needed) and an equal cache-line-aligned cut
// of the shared payload region. The flag *lines* (one per writer) are
// shared -- a 32-byte line carries one byte per flag, so a handful of lanes
// fits the per-writer line with no extra MPB reservation; only the payload
// chunk shrinks. Lane 0 of 1 is bit-identical to the plain layout.
#pragma once

#include <cstddef>

#include "common/contracts.hpp"
#include "machine/flags.hpp"
#include "mem/cost_model.hpp"

namespace scc::rcce {

class Layout {
 public:
  /// The flags after sent/ready: one per dissemination-barrier round (room
  /// for 2^14 cores; max_cores() needs 8), then the MPB-direct Allreduce's
  /// filled and free flag per buffer.
  static constexpr int kBarrierRounds = 14;
  static constexpr int kMpbBuffers = 2;

  explicit Layout(int num_cores)
      : num_cores_(num_cores),
        payload_base_(flag_lines_bytes(num_cores)),
        payload_end_(mem::kMpbBytesPerCore) {
    SCC_EXPECTS(num_cores > 0 && num_cores <= max_cores());
  }

  /// Largest core count whose flag lines leave at least one payload line
  /// in the MPB.
  [[nodiscard]] static constexpr int max_cores() {
    return static_cast<int>(
        (mem::kMpbBytesPerCore - mem::kCacheLineBytes) / mem::kCacheLineBytes);
  }

  /// Lane `which` of `lanes` equal sublayouts of the same MPB (see the file
  /// comment). Lane payload cuts are cache-line aligned; the machine's
  /// flags_per_core must cover lane `lanes-1`'s flags_needed().
  [[nodiscard]] static Layout lane(int num_cores, int which, int lanes) {
    SCC_EXPECTS(lanes >= 1);
    SCC_EXPECTS(which >= 0 && which < lanes);
    Layout l(num_cores);
    const std::size_t shared = flag_lines_bytes(num_cores);
    const std::size_t per_lane = ((mem::kMpbBytesPerCore - shared) /
                                  static_cast<std::size_t>(lanes)) &
                                 ~(mem::kCacheLineBytes - 1);
    SCC_EXPECTS(per_lane >= mem::kCacheLineBytes);
    l.payload_base_ = shared + static_cast<std::size_t>(which) * per_lane;
    l.payload_end_ = l.payload_base_ + per_lane;
    l.flag_base_ = which * l.flags_needed();  // l's own flags start at 0
    return l;
  }

  [[nodiscard]] int num_cores() const { return num_cores_; }

  // --- flag indices ------------------------------------------------------
  [[nodiscard]] machine::FlagRef sent_flag(int at_core, int from) const {
    check_core(at_core);
    check_core(from);
    return {at_core, flag_base_ + from};
  }
  [[nodiscard]] machine::FlagRef ready_flag(int at_core, int from) const {
    check_core(at_core);
    check_core(from);
    return {at_core, flag_base_ + num_cores_ + from};
  }
  [[nodiscard]] machine::FlagRef barrier_flag(int at_core, int round) const {
    check_core(at_core);
    SCC_EXPECTS(round >= 0 && round < kBarrierRounds);
    return {at_core, flag_base_ + 2 * num_cores_ + round};
  }
  /// Double-buffer handshake for the MPB-direct Allreduce: `filled` is set
  /// by the left ring neighbour, `free` by the right one -- single writer
  /// per flag either way.
  [[nodiscard]] machine::FlagRef mpb_filled_flag(int at_core, int buf) const {
    check_core(at_core);
    SCC_EXPECTS(buf >= 0 && buf < kMpbBuffers);
    return {at_core, flag_base_ + 2 * num_cores_ + kBarrierRounds + buf};
  }
  [[nodiscard]] machine::FlagRef mpb_free_flag(int at_core, int buf) const {
    check_core(at_core);
    SCC_EXPECTS(buf >= 0 && buf < kMpbBuffers);
    return {at_core,
            flag_base_ + 2 * num_cores_ + kBarrierRounds + kMpbBuffers + buf};
  }
  /// Number of flag slots this layout requires per core (the one-past-the-
  /// end flag index, so a lane sublayout reports its own upper bound).
  [[nodiscard]] int flags_needed() const {
    return flag_base_ + 2 * num_cores_ + kBarrierRounds + 2 * kMpbBuffers;
  }

  // --- payload ------------------------------------------------------------
  /// First payload byte of this (sub)layout; one reserved line per remote
  /// writer precedes the payload of the full layout.
  [[nodiscard]] std::size_t payload_offset() const { return payload_base_; }
  [[nodiscard]] std::size_t payload_bytes() const {
    SCC_EXPECTS(payload_end_ > payload_base_);
    return payload_end_ - payload_base_;
  }
  /// Largest message staged in one piece (RCCE chunk size).
  [[nodiscard]] std::size_t chunk_bytes() const { return payload_bytes(); }

  [[nodiscard]] mem::MpbAddr payload_addr(int core,
                                          std::size_t offset = 0) const {
    check_core(core);
    SCC_EXPECTS(offset < payload_bytes());
    return {core, payload_base_ + offset};
  }

 private:
  void check_core(int core) const {
    SCC_EXPECTS(core >= 0 && core < num_cores_);
  }

  /// One reserved flag line per remote writer precedes the payload.
  [[nodiscard]] static constexpr std::size_t flag_lines_bytes(int num_cores) {
    return static_cast<std::size_t>(num_cores) * mem::kCacheLineBytes;
  }

  int num_cores_;
  std::size_t payload_base_;
  std::size_t payload_end_;
  int flag_base_ = 0;
};

}  // namespace scc::rcce
