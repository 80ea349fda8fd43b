#include "noc/traffic.hpp"

#include <algorithm>
#include <numeric>

namespace scc::noc {

void TrafficMatrix::record_transfer(CoreId a, CoreId b, std::uint64_t lines) {
  lines_sent_ += lines;
  for (const std::uint32_t link : topo_->route(a, b)) link_lines_[link] += lines;
}

std::uint64_t TrafficMatrix::total_line_hops() const {
  return std::accumulate(link_lines_.begin(), link_lines_.end(),
                         std::uint64_t{0});
}

std::uint64_t TrafficMatrix::max_link_load() const {
  return *std::max_element(link_lines_.begin(), link_lines_.end());
}

}  // namespace scc::noc
