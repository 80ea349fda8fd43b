#include "mem/mpb.hpp"

#include <algorithm>

namespace scc::mem {

MpbStorage::MpbStorage(int num_cores, std::size_t bytes_per_core)
    : num_cores_(num_cores),
      bytes_per_core_(bytes_per_core),
      storage_(static_cast<std::size_t>(num_cores) * bytes_per_core),
      high_water_(static_cast<std::size_t>(num_cores), 0) {
  SCC_EXPECTS(num_cores > 0);
  SCC_EXPECTS(bytes_per_core > 0);
}

std::size_t MpbStorage::flat_index(MpbAddr addr, std::size_t bytes) const {
  SCC_EXPECTS(addr.core >= 0 && addr.core < num_cores_);
  SCC_EXPECTS(addr.offset <= bytes_per_core_);
  SCC_EXPECTS(bytes <= bytes_per_core_ - addr.offset);
  auto& hw = high_water_[static_cast<std::size_t>(addr.core)];
  hw = std::max(hw, addr.offset + bytes);
  return static_cast<std::size_t>(addr.core) * bytes_per_core_ + addr.offset;
}

std::span<std::byte> MpbStorage::range(MpbAddr addr, std::size_t bytes) {
  return {storage_.data() + flat_index(addr, bytes), bytes};
}

std::span<const std::byte> MpbStorage::range(MpbAddr addr,
                                             std::size_t bytes) const {
  return {storage_.data() + flat_index(addr, bytes), bytes};
}

// Zero-byte copies still bounds-check and mark the high-water offset, but
// skip memcpy: an empty span may carry a null data() pointer, and memcpy
// with a null argument is undefined even for zero bytes.
void MpbStorage::write(MpbAddr dst, std::span<const std::byte> src) {
  auto out = range(dst, src.size());
  if (src.empty()) return;
  std::memcpy(out.data(), src.data(), src.size());
}

void MpbStorage::read(MpbAddr src, std::span<std::byte> dst) const {
  auto in = range(src, dst.size());
  if (dst.empty()) return;
  std::memcpy(dst.data(), in.data(), dst.size());
}

void MpbStorage::copy(MpbAddr src, MpbAddr dst, std::size_t bytes) {
  auto in = range(src, bytes);
  auto out = range(dst, bytes);
  std::memmove(out.data(), in.data(), bytes);
}

}  // namespace scc::mem
