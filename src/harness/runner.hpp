// Experiment harness: runs one collective under one of the paper's six
// library variants on a fresh simulated SCC and reports the measured
// virtual-time latency (plus correctness verification and per-core
// profiles). Bench binaries and tests are thin wrappers over this.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "coll/algos.hpp"
#include "coll/block_split.hpp"
#include "coll/stack.hpp"
#include "machine/config.hpp"
#include "machine/profile.hpp"
#include "mem/cache.hpp"
#include "metrics/registry.hpp"
#include "metrics/sampler.hpp"
#include "rcce/rcce.hpp"
#include "trace/recorder.hpp"

namespace scc::harness {

/// The six graphs of Fig. 9 / bars of Fig. 10.
enum class PaperVariant {
  kRckmpi,       // RCKMPI baseline (MPI over the packetized channel)
  kBlocking,     // RCCE_comm on blocking RCCE (the paper's reference)
  kIrcce,        // + relaxed synchronization (Section IV-A)
  kLightweight,  // + lightweight non-blocking primitives (Section IV-B)
  kLwBalanced,   // + balanced block splitting (Section IV-C)
  kMpb,          // + MPB-direct Allreduce (Section IV-D; Allreduce, n >= p)
};

[[nodiscard]] constexpr std::string_view variant_name(PaperVariant v) {
  switch (v) {
    case PaperVariant::kRckmpi: return "rckmpi";
    case PaperVariant::kBlocking: return "blocking";
    case PaperVariant::kIrcce: return "ircce";
    case PaperVariant::kLightweight: return "lightweight";
    case PaperVariant::kLwBalanced: return "lw-balanced";
    case PaperVariant::kMpb: return "mpb";
  }
  return "?";
}

enum class Collective {
  kAllgather,
  kAlltoall,
  kReduceScatter,
  kBroadcast,
  kReduce,
  kAllreduce,
  // Beyond Fig. 9: the remaining RCCE_comm entry points. Not part of the
  // paper's evaluation (no RCKMPI counterpart is wired up), but fuzzed and
  // conformance-checked like the rest.
  kScatter,
  kGather,
  kAllgatherv,
};

inline constexpr std::array<Collective, 9> kAllCollectives = {
    Collective::kAllgather,     Collective::kAlltoall,
    Collective::kReduceScatter, Collective::kBroadcast,
    Collective::kReduce,        Collective::kAllreduce,
    Collective::kScatter,       Collective::kGather,
    Collective::kAllgatherv};

[[nodiscard]] constexpr std::string_view collective_name(Collective c) {
  switch (c) {
    case Collective::kAllgather: return "allgather";
    case Collective::kAlltoall: return "alltoall";
    case Collective::kReduceScatter: return "reducescatter";
    case Collective::kBroadcast: return "broadcast";
    case Collective::kReduce: return "reduce";
    case Collective::kAllreduce: return "allreduce";
    case Collective::kScatter: return "scatter";
    case Collective::kGather: return "gather";
    case Collective::kAllgatherv: return "allgatherv";
  }
  return "?";
}

/// The primitive layer a variant's collectives run on (§IV-A/B); rckmpi
/// and mpb keep the lightweight layer for their Stack.
[[nodiscard]] constexpr coll::Prims prims_of(PaperVariant v) {
  switch (v) {
    case PaperVariant::kBlocking: return coll::Prims::kBlocking;
    case PaperVariant::kIrcce: return coll::Prims::kIrcce;
    default: return coll::Prims::kLightweight;
  }
}

/// The block split a variant uses (§IV-C): balanced from lw-balanced up.
[[nodiscard]] constexpr coll::SplitPolicy split_of(PaperVariant v) {
  return v == PaperVariant::kLwBalanced || v == PaperVariant::kMpb
             ? coll::SplitPolicy::kBalanced
             : coll::SplitPolicy::kStandard;
}

/// True for the variants whose collectives all run on coll::Stack -- the
/// ones an algorithm override and the non-blocking API apply to. RCKMPI
/// and the MPB-direct Allreduce have their own schedules.
[[nodiscard]] constexpr bool stack_based(PaperVariant v) {
  return v != PaperVariant::kRckmpi && v != PaperVariant::kMpb;
}

/// True when `v` runs an n-element Allreduce on p cores MPB-direct: only
/// when every core owns at least one element (Comm::run).
[[nodiscard]] constexpr bool mpb_direct(PaperVariant v, std::size_t n,
                                        int p) {
  return v == PaperVariant::kMpb && n >= static_cast<std::size_t>(p);
}

/// Collectives with a non-blocking i*() entry point (coll/nbc.hpp).
[[nodiscard]] constexpr bool nbc_supported(Collective c) {
  return c == Collective::kAllgather || c == Collective::kAlltoall ||
         c == Collective::kBroadcast || c == Collective::kAllreduce;
}

/// Inverses of variant_name / collective_name; nullopt for unknown names.
[[nodiscard]] std::optional<PaperVariant> parse_variant(std::string_view name);
[[nodiscard]] std::optional<Collective> parse_collective(
    std::string_view name);

/// Variants plotted for a given collective in Fig. 9 (e.g. the balanced
/// variant only exists for the splitting collectives; MPB only for
/// Allreduce).
[[nodiscard]] std::vector<PaperVariant> variants_for(Collective c);

/// Maps the collectives that have an algorithm dimension (coll/algos.hpp)
/// onto coll::CollKind; nullopt for the rest (broadcast, reduce, ...).
[[nodiscard]] std::optional<coll::CollKind> algo_kind(Collective c);

struct RunSpec {
  Collective collective = Collective::kAllreduce;
  PaperVariant variant = PaperVariant::kBlocking;
  std::size_t elements = 552;  // vector size (doubles); Alltoall: per pair
  int repetitions = 4;         // measured repetitions (averaged)
  int warmup = 2;              // unmeasured cache-warming repetitions
  std::uint64_t seed = 42;
  bool verify = true;          // compare against a serial reference
  bool collect_profiles = false;
  /// When true, RunResult carries a full MetricsRegistry snapshot of every
  /// counter the machine produced (see metrics/collect.hpp for the path
  /// schema). Purely observational: collection happens after the simulation
  /// and never changes timing.
  bool collect_metrics = false;
  /// When true, RunResult carries a copy of every core's final output
  /// buffer (differential checkers compare them across stacks and seeds).
  bool capture_outputs = false;
  /// Forces the block-split policy regardless of what the variant implies
  /// (the conformance harness exercises every stack under both policies).
  std::optional<coll::SplitPolicy> split_override;
  /// Algorithm override for the collectives that have variants (allgather,
  /// alltoall, reducescatter, allreduce; see coll/algos.hpp). Unset = the
  /// paper's algorithm, so existing call sites and committed baselines are
  /// bit-identical; coll::Algo::kAuto = the Selector picks from
  /// (collective, n, p, prims). Only valid for the RCCE-family variants.
  std::optional<coll::Algo> algo;
  /// When nonzero, attaches a metrics::Sampler flight recorder at this
  /// simulated-time cadence for the whole run (warmup included): the
  /// standard machine columns (metrics::add_machine_columns) are snapshotted
  /// every interval and returned in RunResult::timeseries. Purely
  /// observational -- enabling sampling changes no simulated result byte.
  SimTime sample_interval = SimTime::zero();
  /// When non-null, the run is traced into this recorder: a new run scope
  /// labelled "<collective>/<variant> n=<elements>" is opened and the
  /// machine's phase intervals, scheduler instants and link windows are
  /// recorded (see trace/recorder.hpp). Tracing never changes timing.
  trace::Recorder* trace = nullptr;
  /// 0 runs the blocking call. N >= 1 runs the collective through the
  /// non-blocking API (coll/nbc.hpp) on an N-lane per-core ProgressEngine:
  /// each repetition initiates an i*() request and drives it to completion
  /// with wait(). Only the RCCE-family variants (blocking/ircce/lightweight/
  /// lw-balanced) and the collectives with an i*() entry point (allgather,
  /// alltoall, broadcast, allreduce) support this; results must be
  /// identical to the blocking path. One lane is bit-identical to the
  /// blocking schedule; more lanes change the flag/MPB partitioning (and
  /// need a non-blocking stack). flags_per_core is raised automatically to
  /// cover the widest lane.
  int nbc_lanes = 0;
  machine::SccConfig config = machine::SccConfig::paper_default();
};

struct RunResult {
  SimTime mean_latency;  // per-operation, measured on core 0
  SimTime min_latency;
  SimTime max_latency;
  bool verified = false;  // true when verify was requested and passed
  std::uint64_t events = 0;
  std::uint64_t lines_sent = 0;  // end-to-end MPB cache-line transfers
  std::uint64_t line_hops = 0;   // sum over links (volume x distance)
  std::vector<machine::CoreProfile> profiles;  // when collect_profiles
  /// Per-core private-memory cache counters (when collect_profiles).
  std::vector<mem::CacheStats> cache_stats;
  std::vector<std::vector<double>> outputs;    // when capture_outputs
  /// Absolute [start, end] of each measured repetition on core 0 -- the
  /// windows the latencies are sampled from; feed one to
  /// metrics::analyze_blame together with the run's trace.
  std::vector<std::pair<SimTime, SimTime>> sample_windows;
  /// Per-repetition measured latencies on core 0, in repetition order
  /// (mean/min/max above are derived from these). Always filled; feed them
  /// to a metrics::Histogram for tail-latency aggregation across runs.
  std::vector<SimTime> latencies;
  /// Full counter snapshot (when collect_metrics).
  std::optional<metrics::MetricsRegistry> metrics;
  /// Flight-recorder series (when sample_interval was nonzero).
  std::optional<metrics::TimeSeries> timeseries;
};

/// Parses a --mesh=WxH value into config.tiles_x and config.tiles_y. The
/// core count W*H*cores_per_tile is computed in 64 bits and must fit the
/// RCCE MPB layout (rcce::Layout::max_cores()); anything else throws
/// std::runtime_error naming the flag.
void parse_mesh(std::string_view value, machine::SccConfig& config);

/// Throws std::runtime_error when run_collective cannot run `spec`: a
/// variant, collective, algorithm or nbc combination that does not exist,
/// a config.faults clause the mesh cannot have (noc::Topology::check),
/// rckmpi on more cores than its channel holds, or MPB-direct blocks that
/// cannot be double-buffered in the payload. The mesh itself is checked
/// by parse_mesh.
void check_spec(const RunSpec& spec);

/// Runs the experiment on a fresh machine. Throws std::runtime_error on a
/// spec check_spec rejects, on simulation deadlock and on verification
/// failure.
[[nodiscard]] RunResult run_collective(const RunSpec& spec);

}  // namespace scc::harness
