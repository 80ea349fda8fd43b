// Regenerates the profiling observation that motivates Section IV-A:
// "cores spend up to 50% of their time in the rcce_wait_until method".
// Reports the per-phase time breakdown (max and mean over the 48 cores)
// for an Allreduce under each variant, plus the GCMC application's
// blocking-stack profile.
//
//   tab_wait_profile [--cycles=8] [--metrics=<path>] [--blame]
//                    [--trace=<path>]
//
// --cycles sets the GCMC moves of the application profile. --metrics
// writes each variant's counters (prefixed "profile/<variant>/") as
// scc-metrics-v1; --blame prints each variant's critical-path blame report;
// --trace records every profiled run into one chrome://tracing file (one
// run scope per variant).
#include <algorithm>
#include <cstdio>
#include <exception>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "common/cli.hpp"
#include "common/string_util.hpp"
#include "gcmc/app.hpp"
#include "machine/profile.hpp"
#include "metrics/registry.hpp"
#include "trace/chrome_export.hpp"

namespace {

using scc::machine::CoreProfile;
using scc::machine::Phase;
using scc::harness::PaperVariant;

struct Breakdown {
  double wait_max_pct = 0.0;
  double wait_mean_pct = 0.0;
  double overhead_mean_pct = 0.0;
  double transfer_mean_pct = 0.0;
  double compute_mean_pct = 0.0;
};

Breakdown analyze(const std::vector<CoreProfile>& profiles) {
  Breakdown b;
  double wait_sum = 0.0, overhead_sum = 0.0, transfer_sum = 0.0,
         compute_sum = 0.0;
  for (const CoreProfile& p : profiles) {
    const double total = p.total().seconds();
    if (total <= 0.0) continue;
    const double wait = p.get(Phase::kFlagWait).seconds() / total * 100.0;
    b.wait_max_pct = std::max(b.wait_max_pct, wait);
    wait_sum += wait;
    overhead_sum += p.get(Phase::kSwOverhead).seconds() / total * 100.0;
    transfer_sum += p.get(Phase::kMpbTransfer).seconds() / total * 100.0;
    compute_sum += (p.get(Phase::kCompute) + p.get(Phase::kPrivMem)).seconds() /
                   total * 100.0;
  }
  const double n = static_cast<double>(profiles.size());
  b.wait_mean_pct = wait_sum / n;
  b.overhead_mean_pct = overhead_sum / n;
  b.transfer_mean_pct = transfer_sum / n;
  b.compute_mean_pct = compute_sum / n;
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  int cycles = 8;
  std::string metrics_path;
  bool blame = false;
  std::string trace_path;
  try {
    const scc::CliFlags flags = scc::CliFlags::parse(argc, argv);
    cycles = flags.get_positive_int("cycles", 8);
    metrics_path = flags.get("metrics", "");
    blame = flags.get_bool("blame", false);
    trace_path = flags.get("trace", "");
    for (const std::string& name : flags.unconsumed())
      throw std::runtime_error("unknown flag --" + name);
    if (flags.has("metrics") && metrics_path.empty())
      throw std::runtime_error("--metrics= needs a path");
    if (flags.has("trace") && trace_path.empty())
      throw std::runtime_error("--trace= needs a path");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tab_wait_profile: %s\n", e.what());
    return 2;
  }
  // --blame replays the recorded intervals. With --trace the recorder
  // accumulates every variant into one file; with --blame alone each
  // variant gets the full capacity to itself.
  std::optional<scc::trace::Recorder> recorder;
  if (!trace_path.empty() || blame) {
    recorder.emplace(/*capacity=*/std::size_t{1} << 20);
  }

  const PaperVariant variants[] = {PaperVariant::kBlocking,
                                   PaperVariant::kIrcce,
                                   PaperVariant::kLightweight,
                                   PaperVariant::kLwBalanced,
                                   PaperVariant::kMpb};
  scc::metrics::MetricsRegistry merged;
  std::vector<std::string> blame_reports;
  scc::Table table({"variant", "wait max", "wait mean", "sw-overhead",
                    "mpb-transfer", "compute+mem"});
  for (const PaperVariant v : variants) {
    if (recorder && trace_path.empty()) recorder->clear();
    scc::harness::RunSpec spec;
    spec.collective = scc::harness::Collective::kAllreduce;
    spec.variant = v;
    spec.elements = 552;
    spec.repetitions = 3;
    spec.warmup = 1;
    spec.verify = false;
    spec.collect_profiles = true;
    spec.collect_metrics = !metrics_path.empty();
    spec.trace = recorder ? &*recorder : nullptr;
    const scc::harness::RunResult result = scc::harness::run_collective(spec);
    const std::string variant{scc::harness::variant_name(v)};
    if (result.metrics) {
      merged.absorb(*result.metrics, "profile/" + variant + "/");
    }
    if (blame) {
      blame_reports.push_back(
          scc::bench::blame_text(*recorder, result, variant, 552));
    }
    const Breakdown b = analyze(result.profiles);
    table.add_row({variant, scc::strprintf("%.0f%%", b.wait_max_pct),
                   scc::strprintf("%.0f%%", b.wait_mean_pct),
                   scc::strprintf("%.0f%%", b.overhead_mean_pct),
                   scc::strprintf("%.0f%%", b.transfer_mean_pct),
                   scc::strprintf("%.0f%%", b.compute_mean_pct)});
  }
  std::cout << "=== Per-core time breakdown, Allreduce(552) on 48 cores ===\n";
  table.print(std::cout);

  // The paper's actual profile subject: the application on the blocking
  // stack ("up to 50% of their time in rcce_wait_until").
  scc::gcmc::AppParams params;
  params.model.kmaxvecs = 276;
  params.particles_total = 240;
  params.max_local_particles = 12;
  params.cycles = cycles;
  const auto app = scc::gcmc::run_app(params, PaperVariant::kBlocking);
  const Breakdown b = analyze(app.profiles);
  std::cout << scc::strprintf(
      "\nGCMC application, blocking stack: wait max %.0f%% / mean %.0f%% of "
      "core time (paper: up to 50%%)\n",
      b.wait_max_pct, b.wait_mean_pct);
  scc::bench::write_table("tab_wait_profile", table);
  if (!metrics_path.empty()) {
    merged.set_label("tab_wait_profile");
    merged.write_json_file(metrics_path);
    std::cout << "metrics snapshot written to " << metrics_path << '\n';
  }
  for (const std::string& report : blame_reports) std::cout << '\n' << report;
  if (!trace_path.empty()) {
    scc::trace::write_chrome_json_file(*recorder, trace_path);
    std::cout << "trace written to " << trace_path << " ("
              << recorder->events().size() << " events, "
              << recorder->dropped() << " dropped)\n";
  }
  return 0;
}
