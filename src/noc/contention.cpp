#include "noc/contention.hpp"

#include "common/string_util.hpp"

namespace scc::noc {

SimTime LinkContention::occupy(CoreId a, CoreId b, std::uint64_t lines,
                               SimTime now) {
  if (lines == 0) return SimTime::zero();
  const SimTime service =
      mesh_clock_.cycles(lines * service_cycles_per_line_);
  SimTime delay;
  // Head-flit progress: the head reaches link i only after traversing the
  // i preceding links, each at its (possibly fault-stretched) hop latency.
  SimTime head_offset;
  for (const std::uint32_t link : topo_->route(a, b)) {
    const double factor = topo_->link_factor(link);
    // The window starts once the head flit arrives (departure + upstream
    // traversal + queueing already accumulated upstream).
    const SimTime arrival = now + delay + head_offset;
    const SimTime link_service = scaled(service, factor);
    SimTime& busy = busy_until_[link];
    const SimTime start = std::max(arrival, busy);
    delay += start - arrival;  // residual queueing on this link
    busy = start + link_service;
    LinkStats& s = stats_[link];
    ++s.windows;
    s.busy += link_service;
    s.queue += start - arrival;
    s.max_queue = std::max(s.max_queue, start - arrival);
    if (trace_) {
      trace_->link_window(link_name(link), start, busy, start - arrival);
    }
    head_offset += scaled(hop_latency_, factor);
  }
  if (delay > SimTime::zero()) {
    total_delay_ += delay;
    ++delayed_transfers_;
  }
  return delay;
}

namespace {

std::string name_of(const LinkId& link) {
  return strprintf("(%d,%d)->(%d,%d)", link.from.x, link.from.y, link.to.x,
                   link.to.y);
}

}  // namespace

std::string_view LinkContention::link_name(std::uint32_t link) {
  std::string_view& name = names_[link];
  if (name.empty()) name = trace_->intern(name_of(topo_->link(link)));
  return name;
}

std::vector<std::pair<std::string, LinkStats>> LinkContention::link_stats()
    const {
  std::vector<std::pair<std::string, LinkStats>> out;
  for (std::size_t link = 0; link < stats_.size(); ++link) {
    const LinkStats& s = stats_[link];
    if (s.windows > 0) out.emplace_back(name_of(topo_->link(link)), s);
  }
  return out;
}

}  // namespace scc::noc
