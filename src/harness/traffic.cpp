#include "harness/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "harness/comm.hpp"
#include "machine/scc_machine.hpp"
#include "metrics/collect.hpp"

namespace scc::harness {

namespace {

/// The collectives a stream draws from, indexed by rng.below(4): the
/// order fixes every committed schedule.
constexpr Collective kTrafficCollectives[] = {
    Collective::kAllreduce, Collective::kAllgather, Collective::kAlltoall,
    Collective::kBroadcast};

/// Seed axis of the broadcast payloads, kept apart from the in-buffers.
constexpr std::uint64_t kBroadcastSeedAxis = 0xb40adca57ULL;

struct KindSizes {
  std::size_t in_elems = 0;
  std::size_t out_elems = 0;
};

KindSizes kind_sizes(Collective c, std::size_t n, int p) {
  const auto up = static_cast<std::size_t>(p);
  switch (c) {
    case Collective::kAllgather: return {n, n * up};
    case Collective::kAlltoall: return {n * up, n * up};
    case Collective::kBroadcast: return {0, n};  // in-place payload in out
    default: return {n, n};                      // allreduce
  }
}

/// Integer-valued inputs keyed on (run seed, request index, rank): every
/// reduction order agrees bit-for-bit with the host reference, and distinct
/// requests carry distinct payloads (a stale-buffer reuse would be caught).
void fill_request_input(aligned_vector<double>& v, std::uint64_t seed,
                        std::size_t request, int rank) {
  Xoshiro256 rng(seed + 1000003 * (request + 1) +
                 static_cast<std::uint64_t>(rank));
  for (double& x : v) x = static_cast<double>(rng.below(1000));
}

/// Per-core, per-request buffers. Every request owns its buffers for the
/// whole run -- queued requests overlap, so slots cannot be recycled until
/// completion, and dedicated slots keep results checkable afterwards.
struct TrafficCoreData {
  std::vector<aligned_vector<double>> in;   // one per scheduled request
  std::vector<aligned_vector<double>> out;  // one per scheduled request
};

/// Rank 0's measurements, written by the core program.
struct TrafficProbe {
  /// latency[i] = completion-observation instant minus scheduled arrival
  /// of schedule entry i.
  std::vector<SimTime> latency;
  /// Indices in the order completions were observed (histogram fill order).
  std::vector<std::size_t> completion_order;
  SimTime makespan;
};

/// Closed-loop baseline: the identical schedule, drained strictly in
/// arrival order through the blocking API. A request that arrives while an
/// earlier one is still in service waits in line -- its sojourn latency
/// includes the full head-of-line queueing delay.
sim::Task<> serialized_program(machine::CoreApi& api, const CommLayout& layout,
                               const TrafficSpec& spec,
                               const std::vector<TrafficRequest>& schedule,
                               TrafficCoreData& data, TrafficProbe& probe) {
  Comm comm(api, layout, spec.variant, split_of(spec.variant));
  co_await api.sync_barrier();
  const SimTime t0 = api.now();
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const SimTime target = t0 + schedule[i].arrival;
    if (api.now() < target) {
      co_await api.charge(machine::Phase::kCompute, target - api.now());
    }
    co_await comm.run(schedule[i].kind, data.in[i], data.out[i],
                      schedule[i].root);
    if (api.rank() == 0) {
      probe.latency[i] = api.now() - target;
      probe.completion_order.push_back(i);
    }
  }
  co_await api.sync_barrier();
  if (api.rank() == 0) probe.makespan = api.now() - t0;
}

/// Open-loop generator: the engine is driven until each arrival instant,
/// genuinely idle gaps are charged as compute think-time, and initiation
/// never blocks on earlier requests -- a backlogged engine simply carries
/// more in flight. Completions are observed (and timed) at progress-pass
/// boundaries, so the recorded latency includes the engine's poll
/// quantization, exactly as a real progress-loop client would see.
sim::Task<> open_loop_program(machine::CoreApi& api, const CommLayout& layout,
                              const TrafficSpec& spec,
                              const std::vector<TrafficRequest>& schedule,
                              TrafficCoreData& data, TrafficProbe& probe) {
  Comm comm(api, layout, spec.variant, split_of(spec.variant), std::nullopt,
            spec.lanes);
  coll::nbc::ProgressEngine& engine = comm.engine();
  // In initiation (id) order.
  std::vector<std::pair<std::size_t, coll::nbc::CollRequest>> in_flight;
  const auto lanes = static_cast<std::size_t>(spec.lanes);
  std::vector<char> blocked(lanes);
  co_await api.sync_barrier();
  const SimTime t0 = api.now();
  // Lane `id % lanes` retires in id order, so nothing behind a lane's first
  // unfinished request is done: the scan skips the rest of a blocked lane
  // and ends once every lane is blocked. Completions are recorded in id
  // order.
  const auto reap = [&] {
    std::fill(blocked.begin(), blocked.end(), 0);
    std::size_t open = lanes;
    auto kept = in_flight.begin();
    auto it = in_flight.begin();
    for (; it != in_flight.end() && open > 0; ++it) {
      char& lane_blocked = blocked[it->second.id() % lanes];
      if (!lane_blocked) {
        if (it->second.done()) {
          if (api.rank() == 0) {
            const std::size_t i = it->first;
            probe.latency[i] = api.now() - (t0 + schedule[i].arrival);
            probe.completion_order.push_back(i);
          }
          continue;
        }
        lane_blocked = 1;
        --open;
      }
      *kept++ = *it;
    }
    in_flight.erase(kept, it);
  };
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const SimTime target = t0 + schedule[i].arrival;
    while (api.now() < target && !engine.idle()) {
      co_await engine.progress();
      reap();
    }
    if (api.now() < target) {
      co_await api.charge(machine::Phase::kCompute, target - api.now());
    }
    in_flight.emplace_back(i, comm.start(schedule[i].kind, data.in[i],
                                         data.out[i], schedule[i].root));
  }
  while (!engine.idle()) {
    co_await engine.progress();
    reap();
  }
  co_await api.sync_barrier();
  if (api.rank() == 0) probe.makespan = api.now() - t0;
}

/// Every request's outputs against the shared serial reference. The span
/// lists and the broadcast reference are built once for the whole run.
void verify_requests(const TrafficSpec& spec,
                     const std::vector<TrafficRequest>& schedule,
                     const std::vector<TrafficCoreData>& data) {
  std::vector<std::span<const double>> in(data.size()), out(data.size());
  aligned_vector<double> payload(spec.elements);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const TrafficRequest& req = schedule[i];
    for (std::size_t r = 0; r < data.size(); ++r) {
      in[r] = data[r].in[i];
      out[r] = data[r].out[i];
    }
    if (req.kind == Collective::kBroadcast) {
      // The root's payload was staged in its own out slot; recompute it
      // from the deterministic fill rather than read that (possibly
      // repainted) buffer.
      fill_request_input(payload, spec.seed ^ kBroadcastSeedAxis, i,
                         req.root);
      in[static_cast<std::size_t>(req.root)] = payload;
    }
    const std::optional<std::string> bad =
        check_outputs({req.kind, spec.elements, req.root, in, out});
    if (bad) {
      throw std::runtime_error(strprintf(
          "traffic verification failed: request %zu (%s, stream %d) %s", i,
          std::string(collective_name(req.kind)).c_str(), req.stream,
          bad->c_str()));
    }
  }
}

}  // namespace

std::vector<TrafficRequest> traffic_schedule(const TrafficSpec& spec, int p) {
  SCC_EXPECTS(spec.streams >= 1 && spec.requests_per_stream >= 1);
  SCC_EXPECTS(spec.mean_interarrival > SimTime::zero());
  std::vector<TrafficRequest> merged;
  merged.reserve(static_cast<std::size_t>(spec.streams) *
                 static_cast<std::size_t>(spec.requests_per_stream));
  const double mean_fs =
      static_cast<double>(spec.mean_interarrival.femtoseconds());
  for (int s = 0; s < spec.streams; ++s) {
    // Per-stream RNG stream: interarrival gaps and kinds are drawn
    // interleaved, so adding a stream never perturbs the others.
    Xoshiro256 rng(spec.seed * std::uint64_t{0x9e3779b97f4a7c15} +
                   static_cast<std::uint64_t>(s));
    SimTime t = SimTime::zero();
    for (int q = 0; q < spec.requests_per_stream; ++q) {
      // Exponential interarrival via inverse transform; 1 - u in (0, 1]
      // keeps log() finite, and the 1 fs floor keeps arrivals strictly
      // increasing within a stream.
      const double u = rng.uniform();
      const double gap_fs = -std::log(1.0 - u) * mean_fs;
      t += SimTime{std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(gap_fs))};
      TrafficRequest req;
      req.arrival = t;
      req.stream = s;
      req.kind = kTrafficCollectives[rng.below(std::size(kTrafficCollectives))];
      req.root = req.kind == Collective::kBroadcast ? s % p : 0;
      merged.push_back(req);
    }
  }
  // Arrival-ordered global program; ties (possible only across streams)
  // break by stream id, so the merged order is a pure function of the spec.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TrafficRequest& a, const TrafficRequest& b) {
                     if (a.arrival != b.arrival) return a.arrival < b.arrival;
                     return a.stream < b.stream;
                   });
  return merged;
}

TrafficResult run_traffic(const TrafficSpec& spec) {
  if (!stack_based(spec.variant)) {
    throw std::runtime_error(strprintf(
        "traffic_gen supports the RCCE-family variants only, not %s",
        std::string(variant_name(spec.variant)).c_str()));
  }
  if (spec.lanes < 1) {
    throw std::runtime_error("TrafficSpec::lanes must be >= 1");
  }
  if (!spec.serialize && spec.lanes > 1 &&
      spec.variant == PaperVariant::kBlocking) {
    throw std::runtime_error(
        "the blocking stack cannot interleave lanes (no poll-and-yield "
        "completion); use TrafficSpec::lanes = 1 or a non-blocking variant");
  }
  if (spec.elements < 1) throw std::runtime_error("--elements must be >= 1");

  machine::SccConfig config = machine::SccConfig::paper_default();
  config.tiles_x = spec.tiles_x;
  config.tiles_y = spec.tiles_y;
  const int p = config.num_cores();
  if (!spec.serialize && spec.lanes > 1) {
    for (int lane = 0; lane < spec.lanes; ++lane) {
      const rcce::Layout sub = rcce::Layout::lane(p, lane, spec.lanes);
      if (spec.elements * sizeof(double) > sub.chunk_bytes()) {
        // Oversized messages fall back to blocking completion waits inside
        // a lane step, which can deadlock across lanes -- reject up front.
        throw std::runtime_error(strprintf(
            "elements=%zu (%zu bytes/message) exceeds lane %d's MPB chunk "
            "(%zu bytes) at TrafficSpec::lanes = %d; shrink the message or "
            "the lane count",
            spec.elements, spec.elements * sizeof(double), lane,
            sub.chunk_bytes(), spec.lanes));
      }
    }
  }
  const CommLayout layout(config, spec.variant,
                          spec.serialize ? 0 : spec.lanes);
  machine::SccMachine machine(config);
  std::optional<metrics::Sampler> sampler;
  const std::string label =
      strprintf("traffic/%s%s lanes=%d streams=%d",
                std::string(variant_name(spec.variant)).c_str(),
                spec.serialize ? " serialized" : "",
                spec.serialize ? 1 : spec.lanes, spec.streams);
  if (spec.sample_interval > SimTime::zero()) {
    sampler.emplace(spec.sample_interval);
    sampler->set_label(label);
    metrics::add_machine_columns(machine, *sampler);
    sampler->attach(machine.engine());
  }

  const std::vector<TrafficRequest> schedule = traffic_schedule(spec, p);
  std::vector<TrafficCoreData> data(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    auto& d = data[static_cast<std::size_t>(r)];
    d.in.resize(schedule.size());
    d.out.resize(schedule.size());
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const KindSizes sizes = kind_sizes(schedule[i].kind, spec.elements, p);
      d.in[i].resize(sizes.in_elems);
      d.out[i].resize(sizes.out_elems, 0.0);
      fill_request_input(d.in[i], spec.seed, i, r);
      if (schedule[i].kind == Collective::kBroadcast &&
          r == schedule[i].root) {
        // The broadcast payload lives in the root's out slot (in-place
        // API); a distinct seed axis keeps it disjoint from in-buffers.
        fill_request_input(d.out[i], spec.seed ^ kBroadcastSeedAxis, i, r);
      }
    }
  }

  TrafficProbe probe;
  probe.latency.assign(schedule.size(), SimTime::zero());
  for (int r = 0; r < p; ++r) {
    auto& d = data[static_cast<std::size_t>(r)];
    if (spec.serialize) {
      machine.launch(r, serialized_program(machine.core(r), layout, spec,
                                           schedule, d, probe));
    } else {
      machine.launch(r, open_loop_program(machine.core(r), layout, spec,
                                          schedule, d, probe));
    }
  }
  machine.run();

  if (spec.verify) verify_requests(spec, schedule, data);

  TrafficResult result;
  SCC_ASSERT(probe.completion_order.size() == schedule.size());
  for (const std::size_t i : probe.completion_order) {
    result.latency.record(probe.latency[i].femtoseconds());
  }
  result.latencies = std::move(probe.latency);
  result.makespan = probe.makespan;
  result.requests = schedule.size();
  result.events = machine.engine().events_processed();
  result.lines_sent = machine.traffic().total_lines_sent();
  result.line_hops = machine.traffic().total_line_hops();
  if (sampler) {
    machine.engine().clear_probe();
    result.timeseries = sampler->take();
  }
  return result;
}

}  // namespace scc::harness
