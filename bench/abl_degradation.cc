// Degradation-robustness ablation: how the algorithm ranking -- and the
// analytic Selector's pick -- hold up when the machine is injected with
// faults (src/faults; DESIGN.md §13).
//
//   abl_degradation [--mesh=6x4] [--elements=192] [--reps=2] [--jobs=N]
//
// For every (fault scenario, collective-with-algorithm-variants) cell the
// driver measures every implemented algorithm on the SAME degraded machine,
// then reports the selected algorithm (coll::select_algo -- analytic, so it
// is blind to the injected faults), the measured best, whether the pick is
// still measured-best (pick_ok), and -- via the critical-path blame engine
// on a traced re-run of the selected algorithm -- where the end-to-end
// latency of the pick actually goes (wait_share = fraction blamed to
// flag-wait; blame_top = the single largest bucket).
//
// Output: aligned table on stdout plus bench_results/abl_degradation.csv
// and .json (scc-bench-v1). The JSON feeds the bench-smoke regression gate
// (abl_degradation_smoke), which requires it to equal the committed
// baseline byte for byte -- the simulator is deterministic, so any
// difference is a real model change; a pick_ok flip in particular means a
// fault scenario moved a measured crossover past the Selector.
#include <cstdio>
#include <exception>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "common/cli.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "exec/executor.hpp"
#include "faults/fault_spec.hpp"
#include "harness/runner.hpp"
#include "metrics/blame.hpp"
#include "noc/topology.hpp"

namespace {

using scc::coll::Algo;
using scc::coll::CollKind;
using scc::harness::Collective;

/// The four collectives with an algorithm dimension.
constexpr Collective kCollectives[] = {
    Collective::kAllgather, Collective::kAlltoall, Collective::kReduceScatter,
    Collective::kAllreduce};

/// Fault scenarios of the robustness table. Coordinates are valid for the
/// default 6x4 mesh (and any mesh at least that large); the specs are
/// validated against the actual mesh at startup.
struct Scenario {
  const char* name;
  const char* faults;
};
constexpr Scenario kScenarios[] = {
    {"healthy", ""},
    // One core 4x slower: OS interference / thermal throttling on one P54C.
    {"straggler", "straggler:14x4"},
    // A whole tile stepped down to half frequency (DVFS island).
    {"dvfs-tile", "dvfs:14/2;dvfs:15/2"},
    // A central mesh link at 8x latency (degraded channel).
    {"slow-link", "slowlink:2,1-3,1x8"},
    // The same central link dead: XY routes through it detour (static
    // reroute), so hop counts -- not just latencies -- change.
    {"dead-link", "deadlink:2,1-3,1"},
    // Compound failure: a straggler, a slow link and a dead link at once.
    {"combo", "straggler:14x2;slowlink:2,1-3,1x4;deadlink:3,2-3,3"},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace scc;
  harness::RunSpec base;
  std::size_t elements = 0;
  int reps = 0, jobs = 0;
  try {
    const CliFlags flags = CliFlags::parse(argc, argv);
    harness::parse_mesh(flags.get("mesh", "6x4"), base.config);
    elements = static_cast<std::size_t>(flags.get_int_in("elements", 192, 0));
    reps = flags.get_positive_int("reps", 2);
    jobs = exec::jobs_flag(flags);
    for (const std::string& name : flags.unconsumed())
      throw std::runtime_error("unknown flag --" + name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "abl_degradation: %s\n", e.what());
    return 2;
  }
  try {
    base.variant = harness::PaperVariant::kLightweight;
    base.elements = elements;
    base.repetitions = reps;
    base.warmup = 1;
    base.verify = true;  // results must stay correct on a degraded machine
    const int p = base.config.num_cores();

    // Parse + validate every scenario against the actual mesh up front.
    std::vector<faults::FaultSpec> specs;
    for (const Scenario& s : kScenarios) {
      faults::FaultSpec spec = faults::FaultSpec::parse(s.faults);
      if (const auto err = noc::Topology::check(
              base.config.tiles_x, base.config.tiles_y,
              base.config.cores_per_tile, spec)) {
        throw std::runtime_error(strprintf("scenario %s: %s", s.name,
                                           err->c_str()));
      }
      specs.push_back(std::move(spec));
    }

    // Flattened (scenario, collective, algo) grid; every point simulates on
    // its own machine, fanned out over --jobs and merged in grid order (the
    // table is byte-identical for every jobs value).
    struct Point {
      std::size_t scenario;
      Collective coll;
      Algo algo;
    };
    std::vector<Point> points;
    for (std::size_t s = 0; s < std::size(kScenarios); ++s) {
      for (const Collective c : kCollectives) {
        const CollKind kind = *harness::algo_kind(c);
        for (const Algo a : coll::algos_for(kind))
          points.push_back({s, c, a});
      }
    }
    const std::vector<double> lat_us = exec::parallel_map<double>(
        points.size(), jobs, [&](std::size_t i) {
          harness::RunSpec spec = base;
          spec.collective = points[i].coll;
          spec.algo = points[i].algo;
          spec.config.faults = specs[points[i].scenario];
          return harness::run_collective(spec).mean_latency.us();
        });

    // Blame pass: one traced re-run per (scenario, collective) of the
    // Selector's pick, walking the critical path of the last measured
    // repetition. Traced runs have identical virtual timing, so the
    // latencies above stay authoritative.
    struct Blame {
      double wait_share = 0.0;
      std::string top;
    };
    const std::size_t cells = std::size(kScenarios) * std::size(kCollectives);
    const std::vector<Blame> blames = exec::parallel_map<Blame>(
        cells, jobs, [&](std::size_t i) {
          const std::size_t s = i / std::size(kCollectives);
          const Collective c = kCollectives[i % std::size(kCollectives)];
          const CollKind kind = *harness::algo_kind(c);
          harness::RunSpec spec = base;
          spec.collective = c;
          spec.algo = coll::select_algo(kind, elements, p,
                                        coll::Prims::kLightweight);
          spec.config.faults = specs[s];
          trace::Recorder recorder(/*capacity=*/std::size_t{1} << 20);
          spec.trace = &recorder;
          const harness::RunResult r = harness::run_collective(spec);
          Blame b;
          if (r.sample_windows.empty()) return b;
          const auto [begin, end] = r.sample_windows.back();
          const metrics::BlameReport report = metrics::analyze_blame(
              recorder, recorder.current_run(), /*terminal_core=*/0, begin,
              end);
          b.wait_share = report.kind_share("flag-wait");
          if (!report.components.empty()) {
            const metrics::BlameComponent& top = report.components.front();
            b.top = strprintf(
                "%s %.0f%%", top.where().c_str(),
                100.0 * top.time.seconds() / report.total().seconds());
          }
          return b;
        });

    std::printf(
        "degradation robustness, lightweight variant, %d cores (%dx%d "
        "tiles), n=%zu, %d reps\n\n",
        p, base.config.tiles_x, base.config.tiles_y, elements, reps);
    Table table({"cell", "faults", "selected", "selected_us", "best_algo",
                 "best_us", "pick_ok", "wait_share", "blame_top"});
    std::size_t i = 0;
    std::size_t cell = 0;
    int picks_ok = 0;
    for (std::size_t s = 0; s < std::size(kScenarios); ++s) {
      for (const Collective c : kCollectives) {
        const CollKind kind = *harness::algo_kind(c);
        const auto& algos = coll::algos_for(kind);
        const Algo selected =
            coll::select_algo(kind, elements, p, coll::Prims::kLightweight);
        double best_us = 0.0, selected_us = 0.0;
        Algo best = algos.front();
        for (const Algo a : algos) {
          const double us = lat_us[i++];
          if (best_us == 0.0 || us < best_us) {
            best_us = us;
            best = a;
          }
          if (a == selected) selected_us = us;
        }
        // Ties (selected matches the best time exactly) count as ok: the
        // pick loses nothing.
        const bool pick_ok = selected_us <= best_us;
        picks_ok += pick_ok ? 1 : 0;
        const Blame& b = blames[cell++];
        table.add_row(
            {strprintf("%s/%s", kScenarios[s].name,
                       std::string(harness::collective_name(c)).c_str()),
             kScenarios[s].faults[0] != '\0' ? kScenarios[s].faults : "-",
             std::string(coll::algo_name(selected)),
             strprintf("%.2f", selected_us),
             std::string(coll::algo_name(best)), strprintf("%.2f", best_us),
             strprintf("%d", pick_ok ? 1 : 0),
             strprintf("%.3f", b.wait_share), b.top});
      }
    }
    table.print(std::cout);
    std::printf("\nselector still measured-best in %d/%zu cells\n", picks_ok,
                cell);

    bench::write_table("abl_degradation", table);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "abl_degradation: %s\n", e.what());
    return 1;
  }
}
