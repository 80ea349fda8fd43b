// SCCMPB-style channel: the transport under the RCKMPI baseline.
//
// RCKMPI (Comprés Ureña et al., EuroMPI'11) ports MPICH to the SCC with a
// channel that statically divides every core's MPB into one small region
// per peer and moves messages as fixed-size packets through those regions.
// Compared to RCCE's whole-chunk staging this gives:
//   - smooth latency in the message size (packets are always whole lines,
//     so there is no partial-cache-line extra call -> no period-4 spikes),
//   - much higher per-message software cost (packetization + MPI matching),
// which is exactly the trade-off visible in the paper's Fig. 9.
//
// Transport details of this implementation:
//   - per ordered pair (sender s -> receiver r): a byte ring of
//     `ring_lines` cache lines inside r's MPB region for s;
//   - credit-based flow control with two cumulative line counters kept in
//     MPB flags: `filled` (lines written, set by s at r) and `free` (lines
//     consumed, set by r at s). Counters wrap mod 256; in-flight lines are
//     bounded by the tiny ring, so differences are unambiguous;
//   - a message is framed as one 32-byte header line (tag + byte count)
//     followed by payload lines.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "machine/core_api.hpp"
#include "rcce/layout.hpp"
#include "sim/task.hpp"

namespace scc::rckmpi {

/// Wildcard tag for receives.
inline constexpr int kAnyTag = -1;

/// Cumulative transport counters, aggregated over every core's Channel
/// endpoint (the shared ChannelLayout owns them so the harness can read
/// totals after the per-core endpoints are gone). `messages`, `header_lines`
/// and `payload_lines` are volume-type (fixed by the communication pattern);
/// the rest are time-type (burst sizes and stalls depend on the schedule).
struct ChannelStats {
  std::uint64_t messages = 0;        // framed messages sent
  std::uint64_t header_lines = 0;    // header packets written
  std::uint64_t payload_lines = 0;   // payload packets written
  std::uint64_t credit_updates = 0;  // free-counter flag sets by receivers
  std::uint64_t credit_stalls = 0;   // sender blocked with zero credits
  std::uint64_t progress_polls = 0;  // duplex loop spins with no progress
};

/// MPB geometry/flag map of the channel. Flags live ABOVE the RCCE layout's
/// indices so both stacks can coexist on one machine.
class ChannelLayout {
 public:
  explicit ChannelLayout(const rcce::Layout& base);

  [[nodiscard]] int num_cores() const { return base_->num_cores(); }
  /// Ring capacity per ordered pair, in cache lines (header included).
  [[nodiscard]] std::uint32_t ring_lines() const { return ring_lines_; }
  [[nodiscard]] std::size_t ring_bytes() const {
    return static_cast<std::size_t>(ring_lines_) * mem::kCacheLineBytes;
  }

  /// MPB address of line `line_index % ring_lines` of the ring that sender
  /// `from` writes into `at_core`'s MPB.
  [[nodiscard]] mem::MpbAddr ring_line(int at_core, int from,
                                       std::uint32_t line_index) const;

  /// Cumulative count of lines written by `from` into `at_core`'s ring.
  [[nodiscard]] machine::FlagRef filled_flag(int at_core, int from) const;
  /// Cumulative count of lines `at_core` consumed from `from`'s... see
  /// note: the flag lives at the SENDER (`at_core`) and is set by the
  /// receiver (`from` = the consuming peer).
  [[nodiscard]] machine::FlagRef free_flag(int at_core, int from) const;

  [[nodiscard]] int flags_needed() const {
    return flag_base_ + 2 * num_cores();
  }

  /// Chip-wide transport counters. Mutable through the const layout
  /// reference endpoints hold: counting is purely observational and never
  /// feeds back into timing.
  [[nodiscard]] ChannelStats& stats() const { return stats_; }

 private:
  const rcce::Layout* base_;
  int flag_base_;
  std::uint32_t ring_lines_;
  mutable ChannelStats stats_;
};

/// Message header occupying the first ring line of every message.
struct PacketHeader {
  std::uint32_t magic = 0x52434B4D;  // "RCKM"
  std::int32_t tag = 0;
  std::uint32_t bytes = 0;
  std::uint32_t pad = 0;
};
static_assert(sizeof(PacketHeader) <= mem::kCacheLineBytes);

/// Per-core channel endpoint: packetized send/recv/duplex-sendrecv.
class Channel {
 public:
  Channel(machine::CoreApi& api, const ChannelLayout& layout);

  [[nodiscard]] int rank() const { return api_->rank(); }
  [[nodiscard]] machine::CoreApi& api() { return *api_; }
  [[nodiscard]] const ChannelLayout& layout() const { return *layout_; }

  /// Sends a tagged message; returns once every line is written (the tail
  /// may still sit in the receiver's ring -- eager semantics within the
  /// ring's capacity).
  sim::Task<> send(std::span<const std::byte> data, int dest, int tag);

  /// Receives a message from `src`; `tag` must match the sender's (or be
  /// kAnyTag). The per-pair ring is ordered, so matching is by position.
  sim::Task<> recv(std::span<std::byte> data, int src, int tag);

  /// Full-duplex exchange: pushes the outgoing message and drains the
  /// incoming one in alternation, overlapping the per-packet round trips
  /// in both directions (MPICH's sendrecv progress loop).
  /// `call_overhead_cycles` defaults to the full MPI_Sendrecv entry cost;
  /// collectives that pre-post nonblocking requests (alltoall, allgather)
  /// pass the cheaper posted-pair cost instead.
  sim::Task<> sendrecv(std::span<const std::byte> sdata, int dest,
                       std::span<std::byte> rdata, int src, int tag,
                       std::uint32_t call_overhead_cycles = 0);

  /// True when a header line from `src` is waiting (zero-cost probe).
  [[nodiscard]] bool incoming(int src) const;

  /// Folds the (mod-256) flag value into the 32-bit cumulative counter.
  /// Public (and static) so tests can exercise the wraparound arithmetic
  /// directly: correctness relies on in-flight lines being < 256, which
  /// ring_lines() <= 64 guarantees.
  static void advance_counter(std::uint32_t& counter, std::uint8_t flag_value);

  /// Free ring slots towards `dest` / unconsumed lines from `src`, from the
  /// last refreshed counters. Bounded by ring_lines() -- the invariant the
  /// wraparound tests pin across the mod-256 counter wrap.
  [[nodiscard]] std::uint32_t tx_credits(int dest) const;
  [[nodiscard]] std::uint32_t rx_available(int src) const;

 private:
  struct PairTx {  // per destination
    std::uint32_t lines_sent = 0;   // cumulative lines written
    std::uint32_t lines_acked = 0;  // cumulative credits returned
  };
  struct PairRx {  // per source
    std::uint32_t lines_written = 0;   // cumulative lines known written
    std::uint32_t lines_consumed = 0;  // cumulative lines consumed
  };

  /// Zero-cost refresh of the peer counters from flag peeks (the polling
  /// half of the duplex progress loop).
  void refresh_tx(int dest);
  void refresh_rx(int src);

  /// Sender-side: write up to `max_lines` lines of the framed message
  /// (header line + payload) and bump the filled counter once.
  sim::Task<> push_burst(int dest, std::span<const std::byte> payload,
                         int tag, std::uint32_t& line_cursor,
                         std::uint32_t max_lines);
  /// Receiver-side: consume up to `max_lines` payload lines into `data`.
  sim::Task<> drain_burst(int src, std::span<std::byte> data,
                          std::size_t& byte_cursor, std::uint32_t max_lines);
  sim::Task<PacketHeader> read_header(int src);

  machine::CoreApi* api_;
  const ChannelLayout* layout_;
  std::vector<PairTx> tx_;
  std::vector<PairRx> rx_;
};

}  // namespace scc::rckmpi
