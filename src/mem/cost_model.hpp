// Latency and software-overhead constants for the simulated SCC.
//
// Hardware numbers come from the paper (Section IV-D and V) and the SCC
// Programmer's Guide it cites:
//   - cores 533 MHz, mesh 800 MHz, DDR3 800 MHz ("standard preset"),
//   - local MPB access: 15 core cycles; with the tile-arbiter bug
//     workaround (self-addressed packets): 45 core cycles + 8 mesh cycles,
//   - remote MPB access: 45 core cycles + 4*hops mesh cycles per direction,
//   - off-chip DRAM: 40 core cycles + 8*d mesh cycles (d = hops to the
//     core's memory controller) plus DRAM service time,
//   - L1 line size 32 bytes; the write-combining buffer transfers whole
//     lines, so a trailing partial line costs an extra transfer call.
//
// Software overheads (per-call costs of the communication layers) cannot be
// taken from the paper directly -- it reports only their *effects* (speedup
// ratios). The values below are chosen so a 533 MHz P54C running RCCE
// under Linux lands in the paper's measured bands; EXPERIMENTS.md documents
// the calibration.
//
// Every calibrated value is a compile-time constant: the static members of
// HwCostModel and the constants of namespace sw. Editing one is a model
// change that moves the committed baselines. Only what an experiment
// varies per machine is a field: the arbiter-bug workaround, the
// link-contention model and the cache capacity.
#pragma once

#include <cstdint>

#include "common/time.hpp"

namespace scc::mem {

inline constexpr std::size_t kCacheLineBytes = 32;  // P54C L1 line
inline constexpr std::size_t kMpbBytesPerCore = 8192;

/// Hardware timing model.
struct HwCostModel {
  static constexpr double core_hz = 533e6;
  static constexpr double mesh_hz = 800e6;
  static constexpr double dram_hz = 800e6;

  // --- MPB (on-chip SRAM message-passing buffers) ---
  /// Local MPB access without the hardware bug: 15 core cycles per line.
  static constexpr std::uint32_t mpb_local_core_cycles = 15;
  /// Local MPB access via the bug workaround (self packets):
  /// 45 core cycles + 8 mesh cycles per line.
  static constexpr std::uint32_t mpb_local_bug_core_cycles = 45;
  static constexpr std::uint32_t mpb_local_bug_mesh_cycles = 8;
  /// The tile-MPB arbiter bug workaround is active on the evaluated chip.
  bool mpb_bug_workaround = true;

  /// Remote MPB access: core-side cost per line ...
  static constexpr std::uint32_t mpb_remote_core_cycles = 45;
  /// ... plus 4 mesh cycles per hop in each direction (reads are round
  /// trips; writes are posted and cost one direction at the issuing core).
  static constexpr std::uint32_t mesh_cycles_per_hop = 4;

  /// Consecutive lines of one bulk MPB transfer after the first (the
  /// iRCCE-optimized memcpy integrated into RCCE 1.1.0). The P54C has no
  /// hardware prefetch and MPBT lines are invalidated between transfers,
  /// so bulk copies stay latency-bound per line; 90 core cycles/line
  /// reproduces the ~150-200 MB/s band reported for optimized RCCE copies.
  static constexpr std::uint32_t mpb_pipelined_line_core_cycles = 90;

  /// Direct (non-memcpy) MPB accesses, per 32-bit word: the MPB-direct
  /// Allreduce feeds the reduction operator straight from MPB addresses,
  /// so operands move as individual uncached word accesses -- MPBT lines
  /// are invalidated every round (CL1INVMB) and stores issued through the
  /// arbiter-bug workaround do not write-combine. This is the
  /// microarchitectural reason Section IV-D's measured gain is only ~10%.
  /// + 2*4*h mesh per word
  static constexpr std::uint32_t mpb_word_remote_core_cycles = 28;
  static constexpr std::uint32_t mpb_word_local_core_cycles = 15;
  /// + 8 mesh
  static constexpr std::uint32_t mpb_word_local_bug_core_cycles = 45;

  /// Optional first-order link-contention model (noc::LinkContention).
  /// Off by default: the paper's formulas are contention-free, and the
  /// ring schedules the collectives use are mostly neighbour-local.
  bool model_link_contention = false;
  /// Per-link forwarding time of one 32-byte line when contention is on.
  static constexpr std::uint32_t link_service_mesh_cycles_per_line = 3;

  // --- private (off-chip, cacheable) memory ---
  static constexpr std::uint32_t cache_hit_core_cycles = 4;
  /// Off-chip access: 40 core cycles + 8*d mesh cycles + DRAM service.
  static constexpr std::uint32_t dram_core_cycles = 40;
  static constexpr std::uint32_t dram_mesh_cycles_per_hop = 8;
  static constexpr std::uint32_t dram_service_dram_cycles = 46;
  /// Consecutive missing lines of a bulk private-memory access pipeline:
  /// each additional miss costs this many core cycles.
  static constexpr std::uint32_t dram_pipelined_line_core_cycles = 30;
  /// Cached write (write-back): cycles per line at the core.
  static constexpr std::uint32_t cache_write_core_cycles = 4;

  // --- cache capacity (per core; fully associative, see mem/cache.hpp) ---
  std::uint32_t cache_bytes = 256 * 1024;

  [[nodiscard]] static constexpr Clock core_clock() { return Clock{core_hz}; }
  [[nodiscard]] static constexpr Clock mesh_clock() { return Clock{mesh_hz}; }
  [[nodiscard]] static constexpr Clock dram_clock() { return Clock{dram_hz}; }
};

struct CostModel {
  HwCostModel hw;
};

/// Per-call software overheads of each communication layer, in core cycles.
/// These model instruction-path lengths: argument checking, flag handling
/// code, request bookkeeping, MPI envelope processing. See DESIGN.md §4.
namespace sw {

// RCCE blocking primitives (Fig. 3 path). The measured per-call cost of
// RCCE_send/RCCE_recv (1400 cycles total each) splits into genuine entry
// overhead and the busy poll loop executed inside RCCE_wait_until -- the
// flag-read-and-test iterations that run even when the partner is already
// there. Function-level profilers attribute the poll cycles to
// rcce_wait_until (the paper's Section IV-A "up to 50%" observation), so
// they are charged to Phase::kFlagWait; the split leaves every latency
// bit-identical (same total cycles at the same point in the call).
inline constexpr std::uint32_t rcce_send_call = 400;
inline constexpr std::uint32_t rcce_recv_call = 400;
/// Busy wait_until poll-loop cycles per blocking send/recv call,
/// attributed to Phase::kFlagWait (see above).
inline constexpr std::uint32_t rcce_wait_until_poll = 1000;
/// Extra dispatch when a message has a trailing partial cache line
/// (the paper's period-4 spikes: a second internal transfer call).
inline constexpr std::uint32_t rcce_partial_line_call = 900;

// iRCCE general non-blocking engine (Section IV-B: linked-list request
// keeping, wildcard support, cancellation paths, dynamic memory).
inline constexpr std::uint32_t ircce_issue = 900;
inline constexpr std::uint32_t ircce_complete = 700;

// Paper's lightweight non-blocking primitives (one slot each way).
inline constexpr std::uint32_t lwnb_issue = 260;
inline constexpr std::uint32_t lwnb_complete = 220;

// Flag operations (set / detected read) beyond the raw MPB access.
inline constexpr std::uint32_t flag_op = 80;

// Collective-layer per-call and per-round dispatch.
inline constexpr std::uint32_t coll_call = 500;
inline constexpr std::uint32_t coll_round = 180;
// The MPB-direct Allreduce's per-round handshake/management code path.
inline constexpr std::uint32_t mpb_round = 150;

// RCKMPI: full MPI layer (ADI3 + CH3 + SCCMPB channel).
/// MPI_Send/Recv entry/exit
inline constexpr std::uint32_t mpi_call = 22000;
/// Posted nonblocking operation pair (MPICH's alltoall/allgather post
/// irecv/isend up front; rounds then only pay progress-engine costs).
inline constexpr std::uint32_t mpi_nb_call = 4000;
/// per packet burst staged via the channel
inline constexpr std::uint32_t mpi_packet = 250;
/// per matching-queue probe
inline constexpr std::uint32_t mpi_match_attempt = 140;
/// collective entry (algorithm pick)
inline constexpr std::uint32_t mpi_coll_call = 6500;

// Reduction kernel cost per element (load, FP add, store on a P54C).
inline constexpr std::uint32_t reduce_cycles_per_element = 9;
// Plain copy kernel cost per element where it is not already covered by
// MPB/cache charges.
inline constexpr std::uint32_t copy_cycles_per_element = 3;

}  // namespace sw

}  // namespace scc::mem
