#include "lwnb/lwnb.hpp"

#include <algorithm>

#include "rcce/protocol.hpp"

namespace scc::lwnb {

sim::Task<> Lwnb::isend(std::span<const std::byte> data, int dest) {
  SCC_EXPECTS(!send_pending_);
  SCC_EXPECTS(dest >= 0 && dest < rcce_->num_cores() && dest != rank());
  auto& api = rcce_->api();
  co_await api.overhead(issue_cycles_);
  sdata_ = data;
  sdest_ = dest;
  send_pending_ = true;
  const std::size_t chunk =
      std::min(rcce_->layout().chunk_bytes(), data.size());
  co_await rcce::stage_and_signal(api, rcce_->layout(), data.first(chunk),
                                  dest);
}

sim::Task<> Lwnb::irecv(std::span<std::byte> data, int src) {
  SCC_EXPECTS(!recv_pending_);
  SCC_EXPECTS(src >= 0 && src < rcce_->num_cores() && src != rank());
  auto& api = rcce_->api();
  co_await api.overhead(issue_cycles_);
  rdata_ = data;
  rsrc_ = src;
  recv_pending_ = true;
}

sim::Task<> Lwnb::wait_send() {
  SCC_EXPECTS(send_pending_);
  auto& api = rcce_->api();
  const rcce::Layout& layout = rcce_->layout();
  co_await rcce::await_ack(api, layout, sdest_);
  std::size_t done = std::min(layout.chunk_bytes(), sdata_.size());
  while (done < sdata_.size()) {
    const std::size_t len = std::min(layout.chunk_bytes(), sdata_.size() - done);
    co_await rcce::stage_and_signal(api, layout, sdata_.subspan(done, len),
                                    sdest_);
    co_await rcce::await_ack(api, layout, sdest_);
    done += len;
  }
  co_await api.overhead(complete_cycles_);
  send_pending_ = false;
}

sim::Task<> Lwnb::wait_recv() {
  SCC_EXPECTS(recv_pending_);
  auto& api = rcce_->api();
  const rcce::Layout& layout = rcce_->layout();
  std::size_t done = 0;
  do {
    const std::size_t len = std::min(layout.chunk_bytes(), rdata_.size() - done);
    co_await rcce::await_and_fetch(api, layout, rdata_.subspan(done, len),
                                   rsrc_);
    co_await rcce::ack_sender(api, layout, rsrc_);
    done += len;
  } while (done < rdata_.size());
  co_await api.overhead(complete_cycles_);
  recv_pending_ = false;
}

sim::Task<> Lwnb::wait_both() {
  // Messages that exceed one MPB chunk must progress both directions
  // interleaved: the receive-first sequence below deadlocks when every
  // peer's next send chunk waits behind its own unfinished receive (see
  // rcce::complete_exchange). Single-chunk exchanges keep the historical
  // sequence -- and its exact timing -- unchanged.
  const std::size_t chunk = rcce_->layout().chunk_bytes();
  if (send_pending_ && recv_pending_ &&
      (sdata_.size() > chunk || rdata_.size() > chunk)) {
    auto& api = rcce_->api();
    co_await rcce::complete_exchange(api, rcce_->layout(), sdata_,
                                     std::min(chunk, sdata_.size()), sdest_,
                                     rdata_, rsrc_);
    co_await api.overhead(complete_cycles_);  // the receive's
    co_await api.overhead(complete_cycles_);  // the send's
    recv_pending_ = false;
    send_pending_ = false;
    co_return;
  }
  if (recv_pending_) co_await wait_recv();
  if (send_pending_) co_await wait_send();
}

sim::Task<bool> Lwnb::test_send() {
  SCC_EXPECTS(send_pending_);
  auto& api = rcce_->api();
  const rcce::Layout& layout = rcce_->layout();
  if (sdata_.size() > layout.chunk_bytes()) co_return false;
  if (api.flag_peek(layout.ready_flag(rank(), sdest_)) == 0) co_return false;
  co_await rcce::await_ack(api, layout, sdest_);  // flag up: no wait
  co_await api.overhead(complete_cycles_);
  send_pending_ = false;
  co_return true;
}

sim::Task<bool> Lwnb::test_recv() {
  SCC_EXPECTS(recv_pending_);
  auto& api = rcce_->api();
  const rcce::Layout& layout = rcce_->layout();
  if (rdata_.size() > layout.chunk_bytes()) co_return false;
  if (!rcce::sent_is_up(api, layout, rsrc_)) co_return false;
  co_await rcce::await_and_fetch(api, layout, rdata_, rsrc_);
  co_await rcce::ack_sender(api, layout, rsrc_);
  co_await api.overhead(complete_cycles_);
  recv_pending_ = false;
  co_return true;
}

}  // namespace scc::lwnb
