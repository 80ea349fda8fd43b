#include "noc/traffic.hpp"

#include <algorithm>

namespace scc::noc {

void TrafficMatrix::record_transfer(CoreId a, CoreId b, std::uint64_t lines) {
  lines_sent_ += lines;
  if (route_fn_) {
    for (const LinkId& link : route_fn_(a, b)) link_lines_[link] += lines;
    return;
  }
  for (const LinkId& link : topo_->route(a, b)) link_lines_[link] += lines;
}

std::uint64_t TrafficMatrix::total_line_hops() const {
  std::uint64_t total = 0;
  for (const auto& [link, lines] : link_lines_) total += lines;
  return total;
}

std::uint64_t TrafficMatrix::max_link_load() const {
  std::uint64_t max_load = 0;
  for (const auto& [link, lines] : link_lines_)
    max_load = std::max(max_load, lines);
  return max_load;
}

std::vector<TrafficMatrix::LinkLoad> TrafficMatrix::loads() const {
  std::vector<LinkLoad> out;
  out.reserve(link_lines_.size());
  for (const auto& [link, lines] : link_lines_)
    if (lines > 0) out.push_back({link, lines});
  std::sort(out.begin(), out.end(),
            [](const LinkLoad& a, const LinkLoad& b) { return a.lines > b.lines; });
  return out;
}

void TrafficMatrix::reset() {
  link_lines_.clear();
  lines_sent_ = 0;
}

}  // namespace scc::noc
