// Host-time benchmark driver for the SCC simulator.
//
//   hostbench --workload <fig9_sweep|gcmc_app|traffic_nbc> [--seed <n>]
//             [--seconds <s>] [--trace <0|1>] [--digests-dir <dir>]
//             [--spans <file>] [--digests-out <file>]
//
// One process, one thread. Set-up (build the op list, load the expected
// digests, run one untimed warm-up op) is repeated nine times and its median
// is setup_s. The timed phase then repeats whole passes over the workload's
// ops for about --seconds.
//
// A shared host's speed moves by up to 2x over minutes, longer than a run,
// so every op is timed between two reference slices (reference.cpp) and its
// host time is scaled to the reference speed by their mean (a set-up's, by
// the slice after it; see at_reference_speed). An op's time is the fastest
// of its scaled runs, since interference from other work only ever adds
// time. wall_s is the sum of those over one pass; op_ms_p50 and op_ms_tail
// are order statistics over the ops. The unscaled figures are printed too.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// and traced passes (spans around every layer call, machine counters
// collected), then runs the layer probes and observability rows, reports
// the per-layer metrics and writes the spans to --spans.
//
// Every op is checked: an exception (deadlock, failed harness verification,
// GCMC cross-core disagreement), a digest that differs from the committed
// one at the digest file's seed, or from the op's own first run, counts as a
// failed op and never aborts the others. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Bad arguments exit 2.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "sim/frame_arena.hpp"

// --- global allocation counting (sim.heap_allocs) ----------------------------

namespace {
constinit thread_local std::uint64_t tl_heap_allocs = 0;

void* counted_alloc(std::size_t n) {
  ++tl_heap_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hostbench {

std::uint64_t heap_allocs() { return tl_heap_allocs; }

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

void Digest::add_double(double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  add(bits);
}

std::uint64_t Spans::begin(std::string_view name, std::uint64_t parent,
                           std::uint64_t op) {
  if (!enabled_) return 0;
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.op = op;
  s.name = std::string(name);
  s.start = Clock::now();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Spans::end(std::uint64_t id) {
  if (id == 0) return;
  spans_[id - 1].end = Clock::now();
}

void Spans::write_jsonl(const std::string& path,
                        Clock::time_point origin) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  for (const Span& s : spans_) {
    char line[512];
    std::snprintf(line, sizeof line,
                  "{\"id\":%" PRIu64 ",\"parent\":%" PRIu64 ",\"op\":%" PRIu64
                  ",\"name\":\"%s\",\"start_us\":%.3f,\"dur_us\":%.3f}\n",
                  s.id, s.parent, s.op, s.name.c_str(), us(s.start),
                  us(s.end) - us(s.start));
    out << line;
  }
}

namespace {

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The seed the committed digests are taken at.
constexpr std::uint64_t kDefaultSeed = 1;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string digests_dir = "hostbench/digests";
  std::string spans_path;
  std::string digests_out;
};

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end)
    throw UsageError(flag + " expects a non-negative integer, got '" + text +
                     "'");
  return v;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else {
      if (i + 1 >= argc) throw UsageError(flag + " needs a value");
      value = argv[++i];
    }
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_u64(flag, value);
      if (s < 1 || s > 600) throw UsageError("--seconds must be in 1..600");
      args.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw UsageError("--trace expects 0 or 1, got '" + value + "'");
      args.trace = value == "1";
    } else if (flag == "--digests-dir") {
      args.digests_dir = value;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else if (flag == "--digests-out") {
      args.digests_out = value;
    } else {
      throw UsageError("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) throw UsageError("--workload is required");
  return args;
}

/// Expected per-op digests: "seed <n>" then "<op> <hex digest>" lines. Only
/// binding when the run's seed equals the file's seed.
struct Expected {
  bool present = false;
  std::uint64_t seed = 0;
  std::map<std::string, std::uint64_t> digests;
};

Expected load_expected(const std::string& path) {
  Expected e;
  std::ifstream in(path);
  if (!in) return e;
  std::string word;
  if (!(in >> word) || word != "seed" || !(in >> e.seed))
    throw UsageError("malformed digest file " + path);
  std::string op, hex;
  while (in >> op >> hex) e.digests[op] = std::stoull(hex, nullptr, 16);
  e.present = true;
  return e;
}

struct Unit {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in report order. A layer a workload does not
/// exercise, or whose counters the called entry point does not export,
/// reads 0.
constexpr Unit kLayerMetrics[] = {
    {"sim.events", "count"},
    {"sim.parks", "count"},
    {"sim.notifies", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.frame_allocs", "count"},
    {"sim.frame_reuse_ratio", "ratio"},
    {"sim.frame_oversize", "count"},
    {"sim.heap_allocs", "count"},
    {"sim.engine_probe_ns", "ns"},
    {"sim.queue_probe_ns", "ns"},
    {"machine.flag_sets", "count"},
    {"machine.flag_polls", "count"},
    {"machine.flag_wakeups", "count"},
    {"machine.polls_per_set", "ratio"},
    {"machine.ctor_ms", "ms"},
    {"mem.cache_hits", "count"},
    {"mem.cache_misses", "count"},
    {"mem.cache_hit_ratio", "ratio"},
    {"mem.mpb_high_water_bytes", "bytes"},
    {"mem.latency_probe_ns", "ns"},
    {"mem.cache_probe_ns", "ns"},
    {"noc.lines_sent", "count"},
    {"noc.line_hops", "count"},
    {"noc.delayed_transfers", "count"},
    {"noc.contention_probe_ns", "ns"},
    {"rcce.op_ms", "ms"},
    {"ircce.op_ms", "ms"},
    {"lwnb.op_ms", "ms"},
    {"rckmpi.op_ms", "ms"},
    {"coll.mpb.op_ms", "ms"},
    {"rckmpi.messages", "count"},
    {"rckmpi.credit_updates", "count"},
    {"rckmpi.credit_stalls", "count"},
    {"rckmpi.progress_polls", "count"},
    {"coll.allgather.op_ms", "ms"},
    {"coll.alltoall.op_ms", "ms"},
    {"coll.reducescatter.op_ms", "ms"},
    {"coll.broadcast.op_ms", "ms"},
    {"coll.reduce.op_ms", "ms"},
    {"coll.allreduce.op_ms", "ms"},
    {"coll.algos.auto.op_ms", "ms"},
    {"coll.nbc.serialized.ms", "ms"},
    {"coll.nbc.lanes1.ms", "ms"},
    {"coll.nbc.lanes2.ms", "ms"},
    {"coll.nbc.lanes4.ms", "ms"},
    {"harness.ops", "count"},
    {"harness.traffic_schedule_ms", "ms"},
    {"gcmc.run_ms", "ms"},
    {"metrics.collect_overhead", "ratio"},
    {"metrics.sampler_overhead", "ratio"},
    {"trace.recorder_overhead", "ratio"},
    {"bench.span_overhead", "ratio"},
};

constexpr Unit kEndToEndMetrics[] = {
    {"wall_s", "s"},         {"sim_us_per_s", "us/s"},
    {"op_ms_p50", "ms"},     {"op_ms_tail", "ms"},
    {"peak_rss_mb", "MB"},   {"setup_s", "s"},
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string format_value(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

class Runner {
 public:
  Runner(const Args& args, Clock::time_point process_start)
      : args_(args), process_start_(process_start) {
    if (args.trace) spans_.enable();
  }

  int run();

 private:
  /// One op's host ms over the passes, as measured and at reference speed.
  struct OpTimes {
    std::vector<double> raw, scaled;
  };

  /// Builds the op list, loads the digests and runs the warm-up op.
  void set_up();
  /// Runs every op once, each followed by a reference slice; records host
  /// ms per op into `times`.
  void run_pass(bool traced, std::vector<OpTimes>& times);
  void check(std::size_t i, const OpOutcome& out);
  /// Writes the first pass's per-op digests in the digest-file format.
  void write_digests(const std::string& path) const;
  void report(const std::map<std::string, double>& metrics,
              const Unit* table, std::size_t count) const;

  const Args& args_;
  Clock::time_point process_start_;
  Spans spans_;
  Spans no_spans_;  // never enabled: untraced ops record nothing
  Workload workload_;
  Expected expected_;
  std::vector<double> setup_s_;  // at reference speed
  std::vector<double> slice_ms_;  // every reference slice of the timed phase
  std::vector<std::optional<std::uint64_t>> first_digest_;
  std::vector<double> sim_us_;
  Counters counters_;  // first traced pass
  bool have_counters_ = false;
  std::uint64_t next_op_id_ = 1;
  int attempted_ = 0;
  int failed_ = 0;
  bool warmup_failed_ = false;
};

void Runner::set_up() {
  auto w = make_workload(args_.workload, args_.seed);
  if (!w) {
    std::string names;
    for (const auto n : workload_names()) names += " " + std::string(n);
    throw UsageError("unknown workload '" + args_.workload +
                     "' (expected one of:" + names + ")");
  }
  workload_ = std::move(*w);
  const std::string digests = args_.digests_dir + "/" + workload_.name + ".txt";
  expected_ = load_expected(digests);
  if (!expected_.present && setup_s_.empty()) {
    std::fprintf(stderr,
                 "hostbench: no digest file %s; checking only that every op "
                 "repeats its first result\n",
                 digests.c_str());
  }
  try {
    OpContext ctx;
    ctx.spans = &no_spans_;
    (void)workload_.warmup.run(ctx);
  } catch (const std::exception& e) {
    warmup_failed_ = true;
    std::fprintf(stderr, "hostbench: warm-up op failed: %s\n", e.what());
  }
}

void Runner::check(std::size_t i, const OpOutcome& out) {
  const Op& op = workload_.ops[i];
  bool ok = true;
  if (expected_.present && expected_.seed == args_.seed) {
    const auto it = expected_.digests.find(op.name);
    ok = it != expected_.digests.end() && it->second == out.digest;
  }
  if (first_digest_[i] && *first_digest_[i] != out.digest) ok = false;
  if (!first_digest_[i]) {
    first_digest_[i] = out.digest;
    sim_us_[i] = out.sim_us;
  }
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "hostbench: digest mismatch on %s (%016" PRIx64 ")\n",
                 op.name.c_str(), out.digest);
  }
}

void Runner::run_pass(bool traced, std::vector<OpTimes>& times) {
  const bool first_traced = traced && !have_counters_;
  double slice_before = reference_slice_ms();
  for (std::size_t i = 0; i < workload_.ops.size(); ++i) {
    const Op& op = workload_.ops[i];
    OpContext ctx;
    ctx.traced = traced;
    ctx.spans = traced ? &spans_ : &no_spans_;
    ctx.op_id = next_op_id_++;
    ++attempted_;
    double ms = 0.0;
    const auto t0 = Clock::now();
    try {
      OpOutcome out;
      if (traced) {
        ScopedSpan span(spans_, "op:" + op.name, 0, ctx.op_id);
        ctx.op_span = span.id();
        out = op.run(ctx);
      } else {
        out = op.run(ctx);
      }
      ms = ms_between(t0, Clock::now());
      check(i, out);
      if (first_traced) {
        for (const auto& [name, v] : out.counters) {
          std::uint64_t& slot = counters_[name];
          slot = name == "mem.mpb_high_water_bytes" ? std::max(slot, v)
                                                    : slot + v;
        }
      }
    } catch (const std::exception& e) {
      ms = ms_between(t0, Clock::now());
      ++failed_;
      std::fprintf(stderr, "hostbench: op %s failed: %s\n", op.name.c_str(),
                   e.what());
    }
    const double slice_after = reference_slice_ms();
    slice_ms_.push_back(slice_after);
    times[i].raw.push_back(ms);
    times[i].scaled.push_back(
        at_reference_speed(ms, 0.5 * (slice_before + slice_after)));
    slice_before = slice_after;
  }
  if (first_traced) have_counters_ = true;
}

void Runner::write_digests(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write digest file " + path);
  out << "seed " << args_.seed << "\n";
  for (std::size_t i = 0; i < workload_.ops.size(); ++i) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016" PRIx64, first_digest_[i].value_or(0));
    out << workload_.ops[i].name << " " << hex << "\n";
  }
}

void Runner::report(const std::map<std::string, double>& metrics,
                    const Unit* table, std::size_t count) const {
  std::printf("  %-30s %20.4f ratio (%d failed of %d ops)\n", "error_rate",
              static_cast<double>(failed_) / static_cast<double>(attempted_),
              failed_, attempted_);
  std::string json = "{\"correct\": ";
  json += failed_ == 0 && !warmup_failed_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t k = 0; k < count; ++k) {
    const auto it = metrics.find(table[k].name);
    const double v = it == metrics.end() ? 0.0 : it->second;
    std::printf("  %-30s %20s %s\n", table[k].name, format_value(v).c_str(),
                table[k].unit);
    if (k > 0) json += ", ";
    json += "\"" + std::string(table[k].name) + "\": {\"value\": " +
            format_value(v) + ", \"unit\": \"" + table[k].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Runner::run() {
  constexpr int kSetups = 9;
  std::vector<double> raw_setup_s;
  for (int s = 0; s < kSetups; ++s) {
    const auto t0 = s == 0 ? process_start_ : Clock::now();
    set_up();
    raw_setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    setup_s_.push_back(
        at_reference_speed(raw_setup_s.back(), reference_slice_ms()));
  }
  const std::size_t n = workload_.ops.size();
  first_digest_.assign(n, std::nullopt);
  sim_us_.assign(n, 0.0);
  std::vector<OpTimes> plain(n), traced(n);

  // Whole passes until about --seconds have gone; in the traced run, an
  // untraced and a traced pass alternate so both see the same host state.
  const auto phase_start = Clock::now();
  const double budget_ms = args_.seconds * 1000.0;
  const auto frames0 = scc::sim::frame_arena_stats();
  const std::uint64_t heap0 = heap_allocs();
  std::map<std::string, double> layer;
  int rounds = 0;
  for (;;) {
    const auto round_start = Clock::now();
    run_pass(false, plain);
    if (rounds == 0) {
      const auto frames = scc::sim::frame_arena_stats();
      const auto allocs = frames.allocs - frames0.allocs;
      layer["sim.frame_allocs"] = static_cast<double>(allocs);
      layer["sim.frame_reuse_ratio"] =
          allocs == 0 ? 0.0
                      : static_cast<double>(frames.reuses - frames0.reuses) /
                            static_cast<double>(allocs);
      layer["sim.frame_oversize"] =
          static_cast<double>(frames.oversize - frames0.oversize);
      layer["sim.heap_allocs"] = static_cast<double>(heap_allocs() - heap0);
      if (!args_.digests_out.empty()) write_digests(args_.digests_out);
    }
    if (args_.trace) run_pass(true, traced);
    ++rounds;
    const double round_ms = ms_between(round_start, Clock::now());
    if (ms_between(phase_start, Clock::now()) + round_ms / 2 >= budget_ms)
      break;
  }

  std::vector<double> op_ms(n);
  double wall_ms = 0.0, raw_wall_ms = 0.0, traced_ms = 0.0, sim_us = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    op_ms[i] = fastest(plain[i].scaled);
    wall_ms += op_ms[i];
    raw_wall_ms += fastest(plain[i].raw);
    traced_ms += fastest(traced[i].scaled);
    sim_us += sim_us_[i];
  }
  std::vector<double> sorted = op_ms;
  std::sort(sorted.begin(), sorted.end());
  // The highest percentile with at least ten ops beyond it.
  const std::size_t tail_index = n > 10 ? n - 11 : n - 1;
  const double tail_pct =
      n > 10 ? 100.0 * static_cast<double>(n - 10) / static_cast<double>(n)
             : 100.0;

  Digest workload_digest;
  for (const auto& d : first_digest_) workload_digest.add(d.value_or(0));
  std::printf("workload %s seed %" PRIu64 ": %zu ops/pass, %d pass(es)%s, "
              "digest %016" PRIx64 "\n",
              workload_.name.c_str(), args_.seed, n, rounds,
              args_.trace ? " untraced + traced" : "",
              workload_digest.value());
  std::printf("  op_ms_tail is p%.1f of %zu op times\n", tail_pct, n);
  std::printf("  reference slice median %.4f ms (%.4f at reference speed); "
              "unscaled wall_s %.4f s, setup_s %.4f s\n",
              median(slice_ms_), kReferenceSliceMs, raw_wall_ms / 1000.0,
              median(raw_setup_s));

  if (!args_.trace) {
    const std::map<std::string, double> e2e = {
        {"wall_s", wall_ms / 1000.0},
        {"sim_us_per_s", wall_ms > 0.0 ? sim_us / (wall_ms / 1000.0) : 0.0},
        {"op_ms_p50", median(op_ms)},
        {"op_ms_tail", sorted[tail_index]},
        {"peak_rss_mb", peak_rss_mb()},
        {"setup_s", median(setup_s_)},
    };
    report(e2e, kEndToEndMetrics, std::size(kEndToEndMetrics));
    return 0;
  }

  for (const auto& [name, v] : counters_) layer[name] = static_cast<double>(v);
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  layer["sim.host_ns_per_event"] =
      ratio(wall_ms * 1e6, layer["sim.events"]);
  layer["machine.polls_per_set"] =
      ratio(layer["machine.flag_polls"], layer["machine.flag_sets"]);
  layer["mem.cache_hit_ratio"] =
      ratio(layer["mem.cache_hits"],
            layer["mem.cache_hits"] + layer["mem.cache_misses"]);
  std::map<std::string, std::vector<double>> groups;
  for (std::size_t i = 0; i < n; ++i)
    for (const std::string& g : workload_.ops[i].groups)
      groups[g].push_back(op_ms[i]);
  for (const auto& [g, values] : groups) layer[g] = median(values);
  layer["harness.ops"] = static_cast<double>(n);
  layer["bench.span_overhead"] = ratio(traced_ms, wall_ms) - 1.0;

  ProbeReport probes = run_probes(args_.seed, spans_);
  for (const auto& [name, v] : probes.metrics) layer[name] = v;
  attempted_ += probes.attempted;
  failed_ += probes.failed;
  std::printf("  probe checksum %016" PRIx64 "\n", probes.checksum);
  if (!args_.spans_path.empty()) {
    spans_.write_jsonl(args_.spans_path, process_start_);
    std::printf("  %zu spans written to %s\n", spans_.spans().size(),
                args_.spans_path.c_str());
  }
  report(layer, kLayerMetrics, std::size(kLayerMetrics));
  return 0;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
  const auto process_start = hostbench::Clock::now();
  try {
    const hostbench::Args args = hostbench::parse_args(argc, argv);
    hostbench::Runner runner(args, process_start);
    return runner.run();
  } catch (const hostbench::UsageError& e) {
    std::fprintf(stderr, "hostbench: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostbench: %s\n", e.what());
    return 1;
  }
}
