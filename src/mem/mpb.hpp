// Message-passing buffer storage: the 8 KB of on-chip SRAM per core.
//
// This is the *functional* half of the MPB model -- real bytes move through
// these buffers, so collective results can be verified bit-for-bit. The
// *timing* half lives in LatencyCalculator.
#pragma once

#include <cstddef>
#include <cstring>
#include <span>
#include <vector>

#include "common/contracts.hpp"
#include "mem/cost_model.hpp"

namespace scc::mem {

/// An offset into one core's MPB.
struct MpbAddr {
  int core = 0;
  std::size_t offset = 0;
};

class MpbStorage {
 public:
  MpbStorage(int num_cores, std::size_t bytes_per_core = kMpbBytesPerCore);

  [[nodiscard]] std::size_t bytes_per_core() const { return bytes_per_core_; }
  [[nodiscard]] int num_cores() const { return num_cores_; }

  /// Mutable view of a range in a core's MPB; bounds-checked.
  [[nodiscard]] std::span<std::byte> range(MpbAddr addr, std::size_t bytes);
  [[nodiscard]] std::span<const std::byte> range(MpbAddr addr,
                                                 std::size_t bytes) const;

  void write(MpbAddr dst, std::span<const std::byte> src);
  void read(MpbAddr src, std::span<std::byte> dst) const;
  /// MPB-to-MPB copy (remote read + local write of the MPB-direct path).
  void copy(MpbAddr src, MpbAddr dst, std::size_t bytes);

  /// Highest end offset (offset + bytes) any access has touched in `core`'s
  /// MPB -- the protocol's footprint high-water mark. Volume-type:
  /// schedule-invariant for deterministic protocols.
  [[nodiscard]] std::size_t high_water(int core) const {
    SCC_EXPECTS(core >= 0 && core < num_cores_);
    return high_water_[static_cast<std::size_t>(core)];
  }

 private:
  [[nodiscard]] std::size_t flat_index(MpbAddr addr, std::size_t bytes) const;

  int num_cores_;
  std::size_t bytes_per_core_;
  std::vector<std::byte> storage_;
  // Footprint tracking is observational bookkeeping on a const path
  // (range() const is the read funnel), hence mutable.
  mutable std::vector<std::size_t> high_water_;
};

}  // namespace scc::mem
