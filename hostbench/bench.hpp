// Shared types of the host-time benchmark driver: the span recorder, the
// op/workload description and the exact counters an op reports.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace scc::harness {
struct TrafficSpec;
}

namespace hostbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Host ms of one reference slice (reference.cpp): fixed work, timed beside
/// every op to gauge how fast the shared host runs at that moment.
[[nodiscard]] double reference_slice_ms();
/// The reference slice's host ms on the machine the committed numbers were
/// measured on, at its quiet speed.
inline constexpr double kReferenceSliceMs = 1.1;
/// When a shared host slows down, the simulator's host time grows about as
/// the reference slice's to this power (fitted on that machine: 1.0 suits
/// its mild slowdowns, 1.5-1.8 its 2x ones; 1.5 keeps both steadiest).
inline constexpr double kSpeedExponent = 1.5;

/// A host time (in any unit) scaled to the reference speed, given the
/// reference slice time measured beside it.
[[nodiscard]] double at_reference_speed(double host_time, double slice_ms);

[[nodiscard]] double median(std::vector<double> values);
/// The smallest value: the host time least disturbed by other work.
[[nodiscard]] double fastest(const std::vector<double>& values);

/// Global `operator new` calls made by the calling thread so far (the
/// driver replaces the global allocation functions to count them).
[[nodiscard]] std::uint64_t heap_allocs();

/// FNV-1a over 64-bit words: the digest of one op's simulated results.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add_double(double d);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// In-memory span recorder. Spans are opened by the driver's own code around
/// calls into the simulator's public functions and written out as JSON lines
/// when the run ends. Disabled, begin()/end() do nothing.
class Spans {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0: a root span
    std::uint64_t op = 0;      // the op this span belongs to; 0: none
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
  };

  void enable() {
    enabled_ = true;
    spans_.reserve(1 << 14);
  }

  std::uint64_t begin(std::string_view name, std::uint64_t parent,
                      std::uint64_t op);
  void end(std::uint64_t id);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Writes one JSON object per line; times are µs since `origin`.
  void write_jsonl(const std::string& path, Clock::time_point origin) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Spans& spans, std::string_view name, std::uint64_t parent,
             std::uint64_t op)
      : spans_(spans), id_(spans.begin(name, parent, op)) {}
  ~ScopedSpan() { spans_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  Spans& spans_;
  std::uint64_t id_;
};

/// Exact work counters of one op, keyed by per-layer metric name.
using Counters = std::map<std::string, std::uint64_t>;

/// What one op hands back to the driver.
struct OpOutcome {
  std::uint64_t digest = 0;  // over simulated results only, never host time
  double sim_us = 0.0;       // simulated µs the op completed
  Counters counters;         // filled only when the op ran traced
};

/// Context an op runs in: whether to collect counters, and where to hang
/// its layer-call spans.
struct OpContext {
  bool traced = false;
  Spans* spans = nullptr;
  std::uint64_t op_span = 0;
  std::uint64_t op_id = 0;
};

struct Op {
  std::string name;  // unique within the workload; keys the digest file
  /// Per-layer timing metrics this op's host time is grouped into (its
  /// stack, its collective or scenario).
  std::vector<std::string> groups;
  std::function<OpOutcome(const OpContext&)> run;
};

struct Workload {
  std::string name;
  std::vector<Op> ops;  // one pass
  Op warmup;            // untimed, run during set-up
};

/// The workloads, built from the seed. nullopt for an unknown name.
[[nodiscard]] std::optional<Workload> make_workload(std::string_view name,
                                                    std::uint64_t seed);
[[nodiscard]] const std::vector<std::string_view>& workload_names();
/// The traffic_nbc request schedule shape (lanes2 scenario, first schedule).
[[nodiscard]] scc::harness::TrafficSpec traffic_probe_spec(std::uint64_t seed);

/// Layer probes and observability rows (traced run only). Every value is a
/// per-layer metric name -> value; the checksum folds every probed result so
/// the calls cannot be elided.
struct ProbeReport {
  std::map<std::string, double> metrics;
  std::uint64_t checksum = 0;
  int attempted = 0;  // observability-row runs
  int failed = 0;     // ... whose simulated results differed from plain
};
[[nodiscard]] ProbeReport run_probes(std::uint64_t seed, Spans& spans);

}  // namespace hostbench
