// Open-loop multi-tenant traffic generator with tail-latency reporting
// (harness/traffic.hpp): N tenant streams issue mixed collectives at
// exponential arrival times; per-request sojourn latency (completion minus
// scheduled arrival) lands in a log-bucketed metrics::Histogram and the
// p50/p99/p999 tail plus the drain makespan are reported per scenario.
//
//   traffic_gen [--streams=N] [--requests=N] [--elements=N] [--mean-us=F]
//               [--seed=N] [--jobs=N] [--sample-interval-us=F]
//
// The scenario matrix compares the serialized blocking drain against the
// non-blocking ProgressEngine at 1, 2 and 4 lanes on the same offered
// load. Every reported number is SIMULATED time: the whole table is a
// deterministic artifact, byte-identical for every --jobs value (host
// threads across scenarios), and gated byte for byte against a committed
// baseline by traffic_gen_smoke.cmake -- a tail quantile drifting LOW is
// as suspicious as one drifting high (it usually means requests stopped
// overlapping or the schedule changed).
//
// Writes bench_results/traffic_gen.csv (full table) and the gated
// scc-bench-v1 JSON bench_results/traffic_gen.json. When
// --sample-interval-us is set, additionally writes one flight-recorder
// timeseries CSV per scenario (bench_results/traffic_<scenario>.csv).
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "exec/executor.hpp"
#include "harness/traffic.hpp"

namespace {

struct Scenario {
  std::string name;
  scc::harness::PaperVariant variant =
      scc::harness::PaperVariant::kLightweight;
  bool serialize = false;
  int lanes = 1;
};

double q_us(const scc::metrics::Histogram& h, double q) {
  return scc::SimTime{h.value_at_quantile(q)}.us();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto flags = scc::CliFlags::parse(argc, argv);
    scc::harness::TrafficSpec base;
    base.streams = flags.get_positive_int("streams", 4);
    base.requests_per_stream = flags.get_positive_int("requests", 12);
    base.elements =
        static_cast<std::size_t>(flags.get_positive_int("elements", 96));
    const double mean_us = flags.get_double("mean-us", 60.0);
    base.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
    const double sample_us = flags.get_double("sample-interval-us", 0.0);
    const int jobs = scc::exec::jobs_flag(flags);
    for (const std::string& name : flags.unconsumed()) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
      return 2;
    }
    // Check before converting: SimTime cannot hold a negative or huge
    // duration (get_double has already rejected NaN and infinities).
    if (mean_us <= 0.0 || !scc::SimTime::representable_us(mean_us) ||
        !scc::SimTime::representable_us(sample_us)) {
      std::fprintf(stderr,
                   "usage: traffic_gen [--streams=N>=1] [--requests=N>=1] "
                   "[--elements=N>=1] [--mean-us=F>0] [--seed=N] "
                   "[--jobs=N>=1] [--sample-interval-us=F>=0]\n");
      return 2;
    }
    base.mean_interarrival = scc::SimTime::from_us(mean_us);
    base.sample_interval = scc::SimTime::from_us(sample_us);

    // The serialized blocking drain is the baseline every overlap claim is
    // measured against; the lanes sweep shows what each level of engine
    // concurrency buys on the identical offered load.
    const std::vector<Scenario> scenarios = {
        {"lightweight_serialized", scc::harness::PaperVariant::kLightweight,
         true, 1},
        {"lightweight_nbc_lanes1", scc::harness::PaperVariant::kLightweight,
         false, 1},
        {"lightweight_nbc_lanes2", scc::harness::PaperVariant::kLightweight,
         false, 2},
        {"lightweight_nbc_lanes4", scc::harness::PaperVariant::kLightweight,
         false, 4},
        {"ircce_serialized", scc::harness::PaperVariant::kIrcce, true, 1},
        {"ircce_nbc_lanes2", scc::harness::PaperVariant::kIrcce, false, 2},
    };

    // Fully independent simulations: fan out over host threads, merge in
    // scenario order, so the artifact bytes never depend on --jobs.
    const auto results =
        scc::exec::parallel_map<scc::harness::TrafficResult>(
            scenarios.size(), jobs, [&](std::size_t i) {
              scc::harness::TrafficSpec spec = base;
              spec.variant = scenarios[i].variant;
              spec.serialize = scenarios[i].serialize;
              spec.lanes = scenarios[i].lanes;
              return scc::harness::run_traffic(spec);
            });

    scc::Table table({"scenario", "requests", "p50_us", "p90_us", "p99_us",
                      "p999_us", "max_us", "makespan_us", "lines_sent"});
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const scc::harness::TrafficResult& r = results[i];
      table.add_row(
          {scenarios[i].name, scc::strprintf("%zu", r.requests),
           scc::strprintf("%.3f", q_us(r.latency, 0.5)),
           scc::strprintf("%.3f", q_us(r.latency, 0.9)),
           scc::strprintf("%.3f", q_us(r.latency, 0.99)),
           scc::strprintf("%.3f", q_us(r.latency, 0.999)),
           scc::strprintf("%.3f", scc::SimTime{r.latency.max()}.us()),
           scc::strprintf("%.3f", r.makespan.us()),
           scc::strprintf("%llu",
                          static_cast<unsigned long long>(r.lines_sent))});
    }
    std::cout << scc::strprintf(
        "=== open-loop traffic: %d streams x %d requests, n=%zu, "
        "mean interarrival %.1f us (simulated time) ===\n",
        base.streams, base.requests_per_stream, base.elements,
        base.mean_interarrival.us());
    table.print(std::cout);

    const double serial_ms = results[0].makespan.us();
    const double nbc2_ms = results[2].makespan.us();
    std::cout << scc::strprintf(
        "\noverlap win (lightweight, 2 lanes vs serialized drain): "
        "makespan %.1f us -> %.1f us (%.2fx), p99 %.1f us -> %.1f us\n",
        serial_ms, nbc2_ms, nbc2_ms > 0.0 ? serial_ms / nbc2_ms : 0.0,
        q_us(results[0].latency, 0.99), q_us(results[2].latency, 0.99));

    std::filesystem::create_directories("bench_results");
    table.write_csv_file("bench_results/traffic_gen.csv");
    // The gated JSON carries only simulated, deterministic columns; the
    // smoke gate requires them to equal the committed baseline.
    scc::Table gate({"scenario", "p50_us", "p99_us", "p999_us",
                     "makespan_us"});
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const scc::harness::TrafficResult& r = results[i];
      gate.add_row({scenarios[i].name,
                    scc::strprintf("%.3f", q_us(r.latency, 0.5)),
                    scc::strprintf("%.3f", q_us(r.latency, 0.99)),
                    scc::strprintf("%.3f", q_us(r.latency, 0.999)),
                    scc::strprintf("%.3f", r.makespan.us())});
    }
    gate.write_json_file("bench_results/traffic_gen.json", "traffic_gen");
    std::cout << "written to bench_results/traffic_gen.csv and "
                 "bench_results/traffic_gen.json\n";
    if (base.sample_interval > scc::SimTime::zero()) {
      for (std::size_t i = 0; i < scenarios.size(); ++i) {
        if (!results[i].timeseries) continue;
        const std::string path = scc::strprintf(
            "bench_results/traffic_%s.csv", scenarios[i].name.c_str());
        std::ofstream os(path);
        results[i].timeseries->write_csv(os);
        std::cout << "timeseries written to " << path << '\n';
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "traffic_gen: %s\n", e.what());
    return 2;
  }
}
