#include "rcce/protocol.hpp"

#include "mem/latency.hpp"

namespace scc::rcce {

sim::Task<> stage_and_signal(machine::CoreApi& api, const Layout& layout,
                             std::span<const std::byte> chunk, int dest,
                             std::size_t payload_offset) {
  const int self = api.rank();
  if (!chunk.empty()) {
    // Load the user data (cacheable private memory) ...
    co_await api.priv_read(chunk.data(), chunk.size());
    // ... and stage it into the local MPB through the write-combining
    // buffer.
    co_await api.mpb_put(layout.payload_addr(self, payload_offset), chunk);
    if (mem::has_partial_line(chunk.size())) {
      co_await api.overhead(mem::sw::rcce_partial_line_call);
    }
  }
  co_await api.flag_set(layout.sent_flag(dest, self), 1);
}

sim::Task<> await_ack(machine::CoreApi& api, const Layout& layout, int dest) {
  const int self = api.rank();
  co_await api.flag_wait(layout.ready_flag(self, dest), 1);
  co_await api.flag_set(layout.ready_flag(self, dest), 0);
}

sim::Task<> await_and_fetch(machine::CoreApi& api, const Layout& layout,
                            std::span<std::byte> chunk, int src,
                            std::size_t payload_offset) {
  const int self = api.rank();
  co_await api.flag_wait(layout.sent_flag(self, src), 1);
  co_await api.flag_set(layout.sent_flag(self, src), 0);
  if (!chunk.empty()) {
    co_await api.mpb_get(layout.payload_addr(src, payload_offset), chunk);
    if (mem::has_partial_line(chunk.size())) {
      co_await api.overhead(mem::sw::rcce_partial_line_call);
    }
    // Store into the user buffer (cacheable private memory).
    co_await api.priv_write(chunk.data(), chunk.size());
  }
}

sim::Task<> ack_sender(machine::CoreApi& api, const Layout& layout, int src) {
  co_await api.flag_set(layout.ready_flag(src, api.rank()), 1);
}

bool sent_is_up(machine::CoreApi& api, const Layout& layout, int src) {
  return api.flag_peek(layout.sent_flag(api.rank(), src)) != 0;
}

sim::Task<> complete_exchange(machine::CoreApi& api, const Layout& layout,
                              std::span<const std::byte> sdata,
                              std::size_t staged, int dest,
                              std::span<std::byte> rdata, int src) {
  const int self = api.rank();
  std::size_t sdone = staged;
  std::size_t rdone = 0;
  bool recv_pending = true;  // >= one handshake even for an empty message
  bool send_pending = true;  // the pre-staged chunk is awaiting its ack
  while (recv_pending || send_pending) {
    bool progressed = false;
    if (recv_pending && sent_is_up(api, layout, src)) {
      const std::size_t len =
          std::min(layout.chunk_bytes(), rdata.size() - rdone);
      co_await await_and_fetch(api, layout, rdata.subspan(rdone, len), src);
      co_await ack_sender(api, layout, src);
      rdone += len;
      recv_pending = rdone < rdata.size();
      progressed = true;
    }
    if (send_pending &&
        api.flag_peek(layout.ready_flag(self, dest)) != 0) {
      co_await await_ack(api, layout, dest);
      if (sdone < sdata.size()) {
        const std::size_t len =
            std::min(layout.chunk_bytes(), sdata.size() - sdone);
        co_await stage_and_signal(api, layout, sdata.subspan(sdone, len),
                                  dest);
        sdone += len;
      } else {
        send_pending = false;
      }
      progressed = true;
    }
    if (!progressed) {
      co_await api.charge(machine::Phase::kFlagWait,
                          mem::HwCostModel::core_clock().cycles(kPollCycles));
    }
  }
}

}  // namespace scc::rcce
