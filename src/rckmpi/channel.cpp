#include "rckmpi/channel.hpp"

#include <algorithm>
#include <cstring>

#include "machine/scc_machine.hpp"

namespace scc::rckmpi {

namespace {
/// Duplex progress loop poll spacing when neither direction can move.
constexpr std::uint64_t kDuplexPollCycles = 150;
/// A ring holds a header line plus at least one payload line.
constexpr std::uint32_t kMinRingLines = 2;

/// Divides the payload area into one ring per peer, whole lines each.
std::uint32_t ring_lines_of(const rcce::Layout& base) {
  const std::size_t per_peer =
      base.payload_bytes() / static_cast<std::size_t>(base.num_cores());
  // In-flight lines must stay well under the mod-256 counter ambiguity;
  // tiny meshes would otherwise get huge rings (the real RCKMPI also caps
  // its per-peer region).
  return std::min<std::uint32_t>(
      static_cast<std::uint32_t>(per_peer / mem::kCacheLineBytes), 64);
}
}  // namespace

ChannelLayout::ChannelLayout(const rcce::Layout& base)
    : base_(&base),
      flag_base_(base.flags_needed()),
      ring_lines_(ring_lines_of(base)) {
  SCC_EXPECTS(ring_lines_ >= kMinRingLines);
}

int ChannelLayout::max_cores() {
  int p = rcce::Layout::max_cores();
  while (p > 1 && ring_lines_of(rcce::Layout(p)) < kMinRingLines) --p;
  return p;
}

mem::MpbAddr ChannelLayout::ring_line(int at_core, int from,
                                      std::uint32_t line_index) const {
  const std::size_t region =
      static_cast<std::size_t>(from) * ring_bytes();
  const std::size_t line_off =
      static_cast<std::size_t>(line_index % ring_lines_) *
      mem::kCacheLineBytes;
  return base_->payload_addr(at_core, region + line_off);
}

machine::FlagRef ChannelLayout::filled_flag(int at_core, int from) const {
  return {at_core, flag_base_ + from};
}

machine::FlagRef ChannelLayout::free_flag(int at_core, int from) const {
  return {at_core, flag_base_ + num_cores() + from};
}

Channel::Channel(machine::CoreApi& api, const ChannelLayout& layout)
    : api_(&api),
      layout_(&layout),
      tx_(static_cast<std::size_t>(layout.num_cores())),
      rx_(static_cast<std::size_t>(layout.num_cores())) {}

void Channel::advance_counter(std::uint32_t& counter,
                              std::uint8_t flag_value) {
  const std::uint8_t delta =
      static_cast<std::uint8_t>(flag_value - static_cast<std::uint8_t>(counter));
  counter += delta;
}

void Channel::refresh_tx(int dest) {
  auto& pair = tx_[static_cast<std::size_t>(dest)];
  advance_counter(pair.lines_acked,
                  api_->flag_peek(layout_->free_flag(rank(), dest)));
}

void Channel::refresh_rx(int src) {
  auto& pair = rx_[static_cast<std::size_t>(src)];
  advance_counter(pair.lines_written,
                  api_->flag_peek(layout_->filled_flag(rank(), src)));
}

std::uint32_t Channel::tx_credits(int dest) const {
  const auto& pair = tx_[static_cast<std::size_t>(dest)];
  SCC_ASSERT(pair.lines_sent - pair.lines_acked <= layout_->ring_lines());
  return layout_->ring_lines() - (pair.lines_sent - pair.lines_acked);
}

std::uint32_t Channel::rx_available(int src) const {
  const auto& pair = rx_[static_cast<std::size_t>(src)];
  return pair.lines_written - pair.lines_consumed;
}

sim::Task<> Channel::push_burst(int dest, std::span<const std::byte> payload,
                                int tag, std::uint32_t& line_cursor,
                                std::uint32_t max_lines) {
  auto& pair = tx_[static_cast<std::size_t>(dest)];
  const std::uint32_t payload_lines =
      static_cast<std::uint32_t>(mem::lines_for(payload.size()));
  const std::uint32_t total_lines = 1 + payload_lines;
  const std::uint32_t burst =
      std::min(max_lines, total_lines - line_cursor);
  SCC_EXPECTS(burst > 0);
  // Charge: user-buffer read for the payload part + the remote MPB write.
  if (line_cursor >= 1 || burst > 1) {
    const std::size_t first_byte =
        (line_cursor == 0 ? 0
                          : (static_cast<std::size_t>(line_cursor) - 1) *
                                mem::kCacheLineBytes);
    const std::size_t last_byte = std::min(
        payload.size(),
        static_cast<std::size_t>(line_cursor + burst - 1) *
            mem::kCacheLineBytes);
    if (last_byte > first_byte) {
      co_await api_->priv_read(payload.data() + first_byte,
                               last_byte - first_byte);
    }
  }
  co_await api_->mpb_charge(
      dest, static_cast<std::size_t>(burst) * mem::kCacheLineBytes,
      /*is_read=*/false);
  // Functional effect: header and/or payload lines into the (possibly
  // remote) ring, written once the charge has completed.
  ChannelStats& stats = layout_->stats();
  for (std::uint32_t i = 0; i < burst; ++i) {
    const std::uint32_t msg_line = line_cursor + i;
    const mem::MpbAddr addr =
        layout_->ring_line(dest, rank(), pair.lines_sent + i);
    if (msg_line == 0) {
      ++stats.messages;
      ++stats.header_lines;
      PacketHeader header;
      header.tag = tag;
      header.bytes = static_cast<std::uint32_t>(payload.size());
      std::memcpy(api_->mpb_window(addr, sizeof(header)).data(), &header,
                  sizeof(header));
    } else {
      ++stats.payload_lines;
      const std::size_t off =
          (static_cast<std::size_t>(msg_line) - 1) * mem::kCacheLineBytes;
      const std::size_t len =
          std::min(mem::kCacheLineBytes, payload.size() - off);
      std::memcpy(api_->mpb_window(addr, len).data(), payload.data() + off,
                  len);
    }
  }
  pair.lines_sent += burst;
  line_cursor += burst;
  co_await api_->flag_set(layout_->filled_flag(dest, rank()),
                          static_cast<std::uint8_t>(pair.lines_sent));
  co_await api_->overhead(mem::sw::mpi_packet);
}

sim::Task<PacketHeader> Channel::read_header(int src) {
  auto& pair = rx_[static_cast<std::size_t>(src)];
  refresh_rx(src);
  while (rx_available(src) == 0) {
    const auto value = co_await api_->flag_wait_change(
        layout_->filled_flag(rank(), src),
        static_cast<std::uint8_t>(pair.lines_written));
    advance_counter(pair.lines_written, value);
  }
  // The ring lives in the receiver's own MPB: a LOCAL access (hit by the
  // arbiter-bug workaround like every local MPB access).
  co_await api_->mpb_charge(rank(), mem::kCacheLineBytes, /*is_read=*/true);
  PacketHeader header;
  auto window = api_->mpb_window(
      layout_->ring_line(rank(), src, pair.lines_consumed),
      mem::kCacheLineBytes);
  std::memcpy(&header, window.data(), sizeof(header));
  SCC_ASSERT(header.magic == PacketHeader{}.magic);
  pair.lines_consumed += 1;
  ++layout_->stats().credit_updates;
  co_await api_->flag_set(layout_->free_flag(src, rank()),
                          static_cast<std::uint8_t>(pair.lines_consumed));
  co_await api_->overhead(mem::sw::mpi_match_attempt);
  co_return header;
}

sim::Task<> Channel::drain_burst(int src, std::span<std::byte> data,
                                 std::size_t& byte_cursor,
                                 std::uint32_t max_lines) {
  auto& pair = rx_[static_cast<std::size_t>(src)];
  const std::uint32_t remaining_lines = static_cast<std::uint32_t>(
      mem::lines_for(data.size() - byte_cursor));
  const std::uint32_t burst = std::min(max_lines, remaining_lines);
  SCC_EXPECTS(burst > 0);
  co_await api_->mpb_charge(rank(),
                            static_cast<std::size_t>(burst) *
                                mem::kCacheLineBytes,
                            /*is_read=*/true);
  std::size_t chunk_begin = byte_cursor;
  for (std::uint32_t i = 0; i < burst; ++i) {
    auto window = api_->mpb_window(
        layout_->ring_line(rank(), src, pair.lines_consumed + i),
        mem::kCacheLineBytes);
    const std::size_t len =
        std::min(mem::kCacheLineBytes, data.size() - byte_cursor);
    std::memcpy(data.data() + byte_cursor, window.data(), len);
    byte_cursor += len;
  }
  pair.lines_consumed += burst;
  ++layout_->stats().credit_updates;
  co_await api_->priv_write(data.data() + chunk_begin,
                            byte_cursor - chunk_begin);
  co_await api_->flag_set(layout_->free_flag(src, rank()),
                          static_cast<std::uint8_t>(pair.lines_consumed));
  co_await api_->overhead(mem::sw::mpi_packet);
}

sim::Task<> Channel::send(std::span<const std::byte> data, int dest,
                          int tag) {
  SCC_EXPECTS(dest >= 0 && dest < layout_->num_cores() && dest != rank());
  co_await api_->overhead(mem::sw::mpi_call);
  auto& pair = tx_[static_cast<std::size_t>(dest)];
  const std::uint32_t total_lines =
      1 + static_cast<std::uint32_t>(mem::lines_for(data.size()));
  std::uint32_t cursor = 0;
  while (cursor < total_lines) {
    refresh_tx(dest);
    if (tx_credits(dest) == 0) {
      ++layout_->stats().credit_stalls;
      const auto value = co_await api_->flag_wait_change(
          layout_->free_flag(rank(), dest),
          static_cast<std::uint8_t>(pair.lines_acked));
      advance_counter(pair.lines_acked, value);
      continue;
    }
    co_await push_burst(dest, data, tag, cursor, tx_credits(dest));
  }
}

sim::Task<> Channel::recv(std::span<std::byte> data, int src, int tag) {
  SCC_EXPECTS(src >= 0 && src < layout_->num_cores() && src != rank());
  co_await api_->overhead(mem::sw::mpi_call);
  const PacketHeader header = co_await read_header(src);
  SCC_EXPECTS(header.tag == tag);
  SCC_EXPECTS(header.bytes == data.size());
  std::size_t cursor = 0;
  auto& pair = rx_[static_cast<std::size_t>(src)];
  while (cursor < data.size()) {
    refresh_rx(src);
    if (rx_available(src) == 0) {
      const auto value = co_await api_->flag_wait_change(
          layout_->filled_flag(rank(), src),
          static_cast<std::uint8_t>(pair.lines_written));
      advance_counter(pair.lines_written, value);
      continue;
    }
    co_await drain_burst(src, data, cursor, rx_available(src));
  }
}

sim::Task<> Channel::sendrecv(std::span<const std::byte> sdata, int dest,
                              std::span<std::byte> rdata, int src, int tag,
                              std::uint32_t call_overhead_cycles) {
  SCC_EXPECTS(dest >= 0 && dest < layout_->num_cores() && dest != rank());
  SCC_EXPECTS(src >= 0 && src < layout_->num_cores() && src != rank());
  co_await api_->overhead(call_overhead_cycles != 0 ? call_overhead_cycles
                                                   : mem::sw::mpi_call);
  const std::uint32_t send_total =
      1 + static_cast<std::uint32_t>(mem::lines_for(sdata.size()));
  std::uint32_t send_cursor = 0;
  bool header_done = false;
  std::size_t recv_cursor = 0;
  const auto recv_done = [&] {
    return header_done && recv_cursor >= rdata.size();
  };
  while (send_cursor < send_total || !recv_done()) {
    bool progressed = false;
    if (!recv_done()) {
      refresh_rx(src);
      if (rx_available(src) > 0) {
        if (!header_done) {
          const PacketHeader header = co_await read_header(src);
          SCC_EXPECTS(header.tag == tag);
          SCC_EXPECTS(header.bytes == rdata.size());
          header_done = true;
        } else {
          co_await drain_burst(src, rdata, recv_cursor, rx_available(src));
        }
        progressed = true;
      }
    }
    if (send_cursor < send_total) {
      refresh_tx(dest);
      if (tx_credits(dest) > 0) {
        co_await push_burst(dest, sdata, tag, send_cursor, tx_credits(dest));
        progressed = true;
      }
    }
    if (!progressed) {
      ++layout_->stats().progress_polls;
      co_await api_->charge(
          machine::Phase::kFlagWait,
          mem::HwCostModel::core_clock().cycles(kDuplexPollCycles));
    }
  }
}

}  // namespace scc::rckmpi
