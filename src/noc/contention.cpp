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
  for (const LinkId& link : topo_->route(a, b)) {
    const std::size_t index = topo_->link_index(link);
    const double factor = topo_->link_factor(link);
    // The window starts once the head flit arrives (departure + upstream
    // traversal + queueing already accumulated upstream).
    const SimTime arrival = now + delay + head_offset;
    const SimTime link_service = scaled(service, factor);
    SimTime& busy = busy_until_[index];
    const SimTime start = std::max(arrival, busy);
    delay += start - arrival;  // residual queueing on this link
    busy = start + link_service;
    LinkStats& s = stats_[index];
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

std::string_view LinkContention::link_name(const LinkId& link) {
  std::string_view& name = names_[topo_->link_index(link)];
  if (name.empty()) name = trace_->intern(name_of(link));
  return name;
}

std::vector<std::pair<std::string, LinkStats>> LinkContention::link_stats()
    const {
  std::vector<std::pair<std::string, LinkStats>> out;
  for (TileId tile = 0; tile < topo_->num_tiles(); ++tile) {
    const TileCoord from = topo_->coord_of_tile(tile);
    for (const TileCoord to : {TileCoord{from.x + 1, from.y},
                               TileCoord{from.x - 1, from.y},
                               TileCoord{from.x, from.y + 1},
                               TileCoord{from.x, from.y - 1}}) {
      const LinkStats& s = stats_[topo_->link_index({from, to})];
      if (s.windows > 0) out.emplace_back(name_of({from, to}), s);
    }
  }
  return out;
}

}  // namespace scc::noc
