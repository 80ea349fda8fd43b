#include "noc/contention.hpp"

#include <algorithm>

#include "common/string_util.hpp"

namespace scc::noc {

namespace {

/// t stretched by `factor`; exactly t at factor 1 so fault hooks with
/// all-healthy links leave contention timing bit-identical.
SimTime scale_time(SimTime t, double factor) {
  if (factor == 1.0) return t;
  const long double fs = static_cast<long double>(t.femtoseconds()) *
                         static_cast<long double>(factor);
  return SimTime{static_cast<std::uint64_t>(fs)};
}

}  // namespace

SimTime LinkContention::occupy(CoreId a, CoreId b, std::uint64_t lines,
                               SimTime now) {
  if (lines == 0) return SimTime::zero();
  const SimTime service =
      mesh_clock_.cycles(lines * service_cycles_per_line_);
  std::vector<LinkId> xy_route;
  if (!route_fn_) xy_route = topo_->route(a, b);
  const std::vector<LinkId>& route = route_fn_ ? route_fn_(a, b) : xy_route;
  SimTime delay;
  // Head-flit progress: the head reaches link i only after traversing the
  // i preceding links, each at its (possibly fault-stretched) hop latency.
  SimTime head_offset;
  for (const LinkId& link : route) {
    const double factor =
        link_factor_fn_ ? link_factor_fn_(link) : 1.0;
    // The window starts once the head flit arrives (departure + upstream
    // traversal + queueing already accumulated upstream).
    const SimTime arrival = now + delay + head_offset;
    const SimTime link_service = scale_time(service, factor);
    SimTime& busy = busy_until_[key_of(link)];
    const SimTime start = std::max(arrival, busy);
    delay += start - arrival;  // residual queueing on this link
    busy = start + link_service;
    LinkStats& s = stats_[key_of(link)];
    ++s.windows;
    s.busy += link_service;
    s.queue += start - arrival;
    s.max_queue = std::max(s.max_queue, start - arrival);
    if (trace_) {
      trace_->link_window(link_name(link), start, busy, start - arrival);
    }
    head_offset += scale_time(hop_latency_, factor);
  }
  if (delay > SimTime::zero()) {
    total_delay_ += delay;
    ++delayed_transfers_;
  }
  return delay;
}

std::string_view LinkContention::link_name(const LinkId& link) {
  const Key key = key_of(link);
  const auto it = names_.find(key);
  if (it != names_.end()) return it->second;
  const std::string_view name = trace_->intern(
      strprintf("(%d,%d)->(%d,%d)", link.from.x, link.from.y, link.to.x,
                link.to.y));
  names_.emplace(key, name);
  return name;
}

std::vector<std::pair<std::string, LinkStats>> LinkContention::link_stats()
    const {
  std::vector<std::pair<std::string, LinkStats>> out;
  out.reserve(stats_.size());
  for (const auto& [key, s] : stats_) {
    const auto& [fx, fy, tx, ty] = key;
    out.emplace_back(strprintf("(%d,%d)->(%d,%d)", fx, fy, tx, ty), s);
  }
  return out;
}

void LinkContention::reset() {
  busy_until_.clear();
  stats_.clear();
  total_delay_ = SimTime::zero();
  delayed_transfers_ = 0;
}

}  // namespace scc::noc
