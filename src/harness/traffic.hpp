// Open-loop multi-tenant traffic generator over the non-blocking
// collectives (coll/nbc.hpp).
//
// Closed-loop benchmarks (runner.hpp) measure one collective at a time:
// initiate, drain, repeat. Real workloads on a many-core message-passing
// chip look different -- several tenants (streams) issue collectives at
// their own rates, requests queue behind each other, and the latency that
// matters is *completion time minus scheduled arrival time*, tail included.
// This harness builds that workload deterministically:
//
//   1. A global schedule is precomputed on the host: every stream draws
//      exponential interarrival gaps and a mixed collective kind per
//      request from its own seeded Xoshiro256 stream; the streams are then
//      merged into one arrival-ordered list shared by all cores. The
//      schedule is a pure function of (spec, p) -- initiation order is
//      SPMD by construction, which is exactly the contract the
//      ProgressEngine's lane assignment needs.
//   2. Open-loop issue: each core advances the engine until the next
//      request's arrival instant, charges any genuinely idle gap as
//      compute think-time, then initiates the request NON-BLOCKINGLY --
//      a late-running collective never delays the arrival of the next
//      one (that is what distinguishes open-loop from closed-loop load
//      generation, and what makes queueing delay visible in the tail).
//   3. Rank 0 observes completions at progress-pass boundaries and
//      records `now - scheduled_arrival` per request into a
//      metrics::Histogram (femtoseconds; log-bucketed, ~3% relative
//      error) -- p50/p99/p999 of *sojourn* latency, not service latency.
//
// `serialize = true` runs the identical schedule through the blocking API
// instead (requests drain strictly in order): the baseline every overlap
// claim in EXPERIMENTS.md is gated against. Everything simulated is
// bit-identical for every --jobs value, like the rest of the harness.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "harness/runner.hpp"
#include "metrics/histogram.hpp"
#include "metrics/sampler.hpp"

namespace scc::harness {

struct TrafficSpec {
  /// Independent tenant streams; each draws its own interarrival gaps and
  /// collective kinds from a per-stream RNG stream.
  int streams = 4;
  int requests_per_stream = 8;
  /// Vector size per collective (doubles); Alltoall: per (src, dst) pair.
  std::size_t elements = 64;
  /// Mean of the exponential interarrival distribution per stream. The
  /// aggregate offered rate is streams / mean_interarrival.
  SimTime mean_interarrival = SimTime::from_us(50.0);
  std::uint64_t seed = 42;
  /// RCCE-family variants only (the non-blocking engine has no RCKMPI or
  /// MPB-direct path). kBlocking is allowed, but only with lanes == 1.
  PaperVariant variant = PaperVariant::kLightweight;
  /// Progress-engine lanes (coll/nbc.hpp). More lanes buy more overlap
  /// between queued requests at the price of a smaller per-lane MPB chunk;
  /// every request's largest single message (elements * 8 bytes) must fit
  /// the narrowest lane's chunk, checked up front.
  int lanes = 2;
  /// Replays the identical schedule through the *blocking* API, strictly
  /// in arrival order (closed-loop drain). The serialized baseline for
  /// the overlap-win gate.
  bool serialize = false;
  /// Element-wise verification of every request's result against a serial
  /// reference computed on the host.
  bool verify = true;
  int tiles_x = 2;  // mesh shape; cores = tiles_x * tiles_y * 2
  int tiles_y = 2;
  /// When nonzero, attaches the metrics::Sampler flight recorder at this
  /// simulated-time cadence (TrafficResult::timeseries).
  SimTime sample_interval = SimTime::zero();
};

/// One scheduled request of the merged arrival-ordered global program.
struct TrafficRequest {
  SimTime arrival;   // offset from the post-setup barrier instant
  int stream = 0;    // issuing tenant
  /// Allreduce, allgather, alltoall or broadcast: the collectives with a
  /// non-blocking entry point (reduce and reduce_scatter have none).
  Collective kind = Collective::kAllreduce;
  int root = 0;      // broadcast root (stream % p); unused otherwise
};

/// The deterministic merged schedule for `p` cores -- a pure function of
/// (spec, p), exposed so tests and the bench CLI can print or replay it.
[[nodiscard]] std::vector<TrafficRequest> traffic_schedule(
    const TrafficSpec& spec, int p);

struct TrafficResult {
  /// Sojourn latency (completion - scheduled arrival) of every request,
  /// femtosecond values, recorded on rank 0 in completion-observation
  /// order. merge() this across scenario repeats for tail tables.
  metrics::Histogram latency;
  /// Same latencies indexed by request position in the schedule (tests
  /// diff these across jobs values and modes without histogram bucketing).
  std::vector<SimTime> latencies;
  /// Post-setup barrier to all-streams-drained barrier, on rank 0.
  SimTime makespan;
  std::size_t requests = 0;
  std::uint64_t events = 0;
  std::uint64_t lines_sent = 0;  // end-to-end MPB cache-line transfers
  std::uint64_t line_hops = 0;   // sum over links (volume x distance)
  /// Flight-recorder series (when sample_interval was nonzero).
  std::optional<metrics::TimeSeries> timeseries;
};

/// Runs one traffic scenario on a fresh machine. Throws std::runtime_error
/// on harness misuse (bad spec, oversized messages for the lane chunk),
/// simulation deadlock, or verification failure.
[[nodiscard]] TrafficResult run_traffic(const TrafficSpec& spec);

}  // namespace scc::harness
