// Standalone schedule-perturbation soak driver.
//
// Runs the differential conformance checker (harness/conformance.hpp) over
// randomly sampled (collective, size, mesh, split, delay) configurations
// for as many rounds as asked -- hours if desired -- outside of ctest. Any
// failure prints a replay line with the (engine seed, perturbation seed)
// pair and the process exits nonzero, so this can anchor a soak CI job.
//
//   perturb_soak --rounds=200 --seeds=32 --master-seed=1
//   perturb_soak --rounds=200 --jobs=8        # fan the seed matrix out
//   perturb_soak --collective=allreduce --delay-fs=2000000 --verbose
//   perturb_soak --rounds=1 --master-seed=7 --trace=replay.json
//   perturb_soak --rounds=1 --metrics=soak_metrics.json
//   perturb_soak --hist=soak_hist.json            # tail-latency quantiles
//   perturb_soak --collective=allgather --algo=bruck   # pin one algorithm
//   perturb_soak --faults='straggler:3x2'              # pin a fault spec
//
// Rounds whose collective has algorithm variants (coll/algos.hpp) sample
// the algorithm dimension too -- paper default, each implemented variant,
// or the auto Selector -- unless --algo pins one; the chosen algorithm is
// part of the round's deterministic (master-seed, round) draw and appears
// in the configuration line.
//
// The fault dimension (src/faults) is sampled the same way: about a third
// of the rounds degrade the machine with 1-2 random clauses (stragglers,
// DVFS steps, slow links; dead links only on meshes wide enough to
// reroute), validated against the round's mesh with Topology::check --
// an unlucky draw (e.g. dead links that would disconnect the mesh) falls
// back to the healthy machine rather than aborting. --faults=SPEC pins the
// dimension for every round ('' = force healthy). Faults stretch timings
// and shift schedules but must never change results; the conformance
// matrix checks exactly that.
//
// Every round is fully determined by (--master-seed, round index): a failed
// round can be reproduced alone via --rounds=1 --master-seed=<reported>,
// and --trace=<path> records every simulation of the soak (baselines and
// perturbed replays, each as its own run scope) into one chrome://tracing
// file -- the recorder's capacity bounds memory, so long soaks simply stop
// recording and report the drop count. --metrics=<path> writes the metrics
// snapshot of the last round's reference baseline (the run every perturbed
// replay was diffed against) as scc-metrics-v1 JSON; the seed-invariance
// diff of snapshots itself runs on every round regardless. --hist=<path>
// writes per-stack tail-latency histograms (p50/p90/p99/p999) merged over
// every completed simulation of the whole soak as "scc-hist-v1" JSON --
// O(1) memory however long the soak, byte-identical for any --jobs.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "exec/executor.hpp"
#include "faults/fault_spec.hpp"
#include "harness/conformance.hpp"
#include "noc/topology.hpp"
#include "trace/chrome_export.hpp"

namespace {

using scc::harness::Collective;

struct MeshShape {
  int x, y;
};
constexpr MeshShape kMeshes[] = {{1, 1}, {2, 1}, {3, 1}, {2, 2}, {3, 2}};

/// A random mesh link of the round's topology (both tiles in-mesh and
/// adjacent). Requires at least one link (tiles_x > 1 or tiles_y > 1).
scc::faults::LinkRef sample_link(scc::Xoshiro256& rng, int tiles_x,
                                 int tiles_y) {
  const bool horizontal =
      tiles_y == 1 || (tiles_x > 1 && rng.below(2) == 0);
  if (horizontal) {
    const int x = static_cast<int>(rng.below(static_cast<std::uint64_t>(tiles_x - 1)));
    const int y = static_cast<int>(rng.below(static_cast<std::uint64_t>(tiles_y)));
    return {{x, y}, {x + 1, y}};
  }
  const int x = static_cast<int>(rng.below(static_cast<std::uint64_t>(tiles_x)));
  const int y = static_cast<int>(rng.below(static_cast<std::uint64_t>(tiles_y - 1)));
  return {{x, y}, {x, y + 1}};
}

/// The round's draw of the fault dimension: 1-2 random clauses against the
/// round's mesh. The caller validates with Topology::check and falls back
/// to the healthy machine when an unlucky draw (e.g. two dead links that
/// disconnect a 2x2 mesh) is invalid.
scc::faults::FaultSpec sample_faults(scc::Xoshiro256& rng, int tiles_x,
                                     int tiles_y, int cores) {
  scc::faults::FaultSpec spec;
  const bool has_links = tiles_x > 1 || tiles_y > 1;
  // Dead links need both dimensions >= 2: killing one link of a 1-wide mesh
  // always disconnects it (no alternate route exists).
  const bool can_kill = tiles_x > 1 && tiles_y > 1;
  const int clauses = 1 + static_cast<int>(rng.below(2));
  for (int i = 0; i < clauses; ++i) {
    switch (rng.below(has_links ? (can_kill ? 4 : 3) : 2)) {
      case 0:
        spec.stragglers.push_back(
            {static_cast<int>(rng.below(static_cast<std::uint64_t>(cores))),
             1.5 + 0.5 * static_cast<double>(rng.below(6))});
        break;
      case 1:
        spec.dvfs.push_back(
            {static_cast<int>(rng.below(static_cast<std::uint64_t>(cores))),
             2 + static_cast<int>(rng.below(3))});
        break;
      case 2:
        spec.slow_links.push_back(
            {sample_link(rng, tiles_x, tiles_y),
             2.0 * static_cast<double>(1 + rng.below(4))});
        break;
      default:
        spec.dead_links.push_back(sample_link(rng, tiles_x, tiles_y));
        break;
    }
  }
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto flags = scc::CliFlags::parse(argc, argv);
    const auto rounds = flags.get_int("rounds", 20);
    const int seeds_per_config = flags.get_int_in("seeds", 16, 1);
    const auto master_seed =
        static_cast<std::uint64_t>(flags.get_int("master-seed", 1));
    const auto fixed_delay_fs = flags.get_int("delay-fs", -1);
    const auto max_elements = flags.get_int("max-elements", 200);
    const std::string collective_flag = flags.get("collective", "all");
    const bool verbose = flags.get_bool("verbose", false);
    const std::string trace_path = flags.get("trace", "");
    const std::string metrics_path = flags.get("metrics", "");
    const std::string hist_path = flags.get("hist", "");
    // 0 = auto (exec::default_jobs()); an explicit value must be >= 1.
    // Rounds stay sequential (round R's report prints before R+1 starts);
    // the stack x seed matrix inside each round fans out.
    const int jobs = scc::exec::jobs_flag(flags);
    const std::string algo_flag = flags.get("algo", "");
    const bool pin_faults = flags.has("faults");
    const std::string faults_flag = flags.get("faults", "");
    for (const std::string& name : flags.unconsumed()) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
      return 2;
    }
    if (max_elements < 1) {
      std::fprintf(stderr, "--max-elements must be >= 1\n");
      return 2;
    }
    // 1 simulated second; any useful jitter is a handful of ~1.9e6 fs core
    // cycles, and unbounded values would overflow SimTime arithmetic.
    constexpr long kMaxDelayFs = 1'000'000'000'000'000;
    if (fixed_delay_fs > kMaxDelayFs) {
      std::fprintf(stderr, "--delay-fs must be <= %ld\n", kMaxDelayFs);
      return 2;
    }
    std::optional<Collective> fixed_collective;
    if (collective_flag != "all") {
      fixed_collective = scc::harness::parse_collective(collective_flag);
      if (!fixed_collective) {
        std::fprintf(stderr, "unknown collective '%s'\n",
                     collective_flag.c_str());
        return 2;
      }
    }
    std::optional<scc::coll::Algo> fixed_algo;
    if (!algo_flag.empty()) {
      fixed_algo = scc::coll::parse_algo(algo_flag);
      if (!fixed_algo) {
        std::fprintf(stderr, "unknown algorithm '%s'\n", algo_flag.c_str());
        return 2;
      }
    }
    // --faults pins the fault dimension for every round ('' = always
    // healthy); without it the dimension is sampled per round below.
    std::optional<scc::faults::FaultSpec> fixed_faults;
    if (pin_faults) fixed_faults = scc::faults::FaultSpec::parse(faults_flag);

    std::optional<scc::trace::Recorder> recorder;
    if (!trace_path.empty()) recorder.emplace();
    std::optional<scc::metrics::MetricsRegistry> last_metrics;
    // One histogram per conformance cell (the three RCCE stacks, plus
    // "rckmpi"/"-nbc" cells on the rounds that produce them), keyed by the
    // report's cell names in first-seen order and merged over every round
    // -- Histogram::merge is exact, so the soak-long tail stays
    // deterministic regardless of round count or --jobs.
    std::vector<std::pair<std::string, scc::metrics::Histogram>> soak_hist;
    const auto soak_slot = [&soak_hist](const std::string& name)
        -> scc::metrics::Histogram& {
      for (auto& [n, h] : soak_hist) {
        if (n == name) return h;
      }
      soak_hist.emplace_back(name, scc::metrics::Histogram{});
      return soak_hist.back().second;
    };

    long total_runs = 0;
    long failed_rounds = 0;
    for (long round = 0; round < rounds; ++round) {
      // One RNG per round: a failing round replays from (master_seed+round)
      // alone, independent of how many rounds preceded it.
      scc::Xoshiro256 rng(master_seed + static_cast<std::uint64_t>(round));
      scc::harness::ConformanceSpec spec;
      spec.collective = fixed_collective
                            ? *fixed_collective
                            : scc::harness::kAllCollectives[rng.below(
                                  scc::harness::kAllCollectives.size())];
      const MeshShape mesh = kMeshes[rng.below(std::size(kMeshes))];
      spec.tiles_x = mesh.x;
      spec.tiles_y = mesh.y;
      spec.elements = 1 + rng.below(static_cast<std::uint64_t>(max_elements));
      spec.split = rng.below(2) == 0 ? scc::coll::SplitPolicy::kStandard
                                     : scc::coll::SplitPolicy::kBalanced;
      spec.engine_seed = rng();
      spec.perturb_seed_base = rng();
      spec.perturb_seeds = seeds_per_config;
      // A third of the rounds inject event delays up to ~10 core cycles
      // (1 core cycle = 1,876,173 fs) unless a fixed jitter was requested.
      spec.max_delay_fs =
          fixed_delay_fs >= 0
              ? static_cast<std::uint64_t>(fixed_delay_fs)
              : (rng.below(3) == 0 ? 1'876'173ULL * (1 + rng.below(10)) : 0);
      spec.model_contention = rng.below(3) == 0;
      // Fault dimension: pinned, or sampled on ~1/3 of the rounds.
      if (fixed_faults) {
        spec.faults = *fixed_faults;
      } else if (rng.below(3) == 0) {
        spec.faults = sample_faults(rng, mesh.x, mesh.y,
                                    mesh.x * mesh.y * spec.cores_per_tile);
      }
      if (!spec.faults.empty()) {
        if (const auto err = scc::noc::Topology::check(
                spec.tiles_x, spec.tiles_y, spec.cores_per_tile,
                spec.faults)) {
          if (fixed_faults) {
            std::fprintf(stderr, "--faults: %s\n", err->c_str());
            return 2;
          }
          spec.faults = {};  // unlucky draw: run the round healthy
        }
      }
      // Algorithm dimension (only for collectives that have one): pick 0 =
      // paper default (no override), 1..k = the implemented variants, k+1 =
      // the auto Selector.
      if (const auto kind = scc::harness::algo_kind(spec.collective)) {
        if (fixed_algo) {
          spec.algo = fixed_algo;
        } else {
          const auto& algos = scc::coll::algos_for(*kind);
          const std::uint64_t pick = rng.below(algos.size() + 2);
          if (pick == algos.size() + 1) {
            spec.algo = scc::coll::Algo::kAuto;
          } else if (pick >= 1) {
            spec.algo = algos[pick - 1];
          }
        }
      }
      // Non-blocking cells on a third of the rounds (drawn last so the
      // other dimensions of a given master seed are unchanged).
      spec.check_nbc = rng.below(3) == 0;
      spec.trace = recorder ? &*recorder : nullptr;
      spec.jobs = jobs;

      const scc::harness::ConformanceReport report =
          scc::harness::run_conformance(spec);
      total_runs += report.runs;
      if (report.baseline_metrics) last_metrics = report.baseline_metrics;
      for (std::size_t s = 0; s < report.latency_histograms.size(); ++s) {
        soak_slot(report.cells[s]).merge(report.latency_histograms[s]);
      }
      if (!report.passed()) {
        ++failed_rounds;
        std::fprintf(stderr, "round %ld (master-seed %llu): %s\n", round,
                     static_cast<unsigned long long>(
                         master_seed + static_cast<std::uint64_t>(round)),
                     report.summary().c_str());
      } else if (verbose) {
        std::printf("round %ld: %s\n", round, report.summary().c_str());
      }
    }
    if (recorder) {
      scc::trace::write_chrome_json_file(*recorder, trace_path);
      std::printf("trace written to %s (%zu events, %llu dropped)\n",
                  trace_path.c_str(), recorder->events().size(),
                  static_cast<unsigned long long>(recorder->dropped()));
    }
    if (!metrics_path.empty()) {
      if (!last_metrics) {
        std::fprintf(stderr, "--metrics: no baseline run produced a snapshot\n");
        return 2;
      }
      last_metrics->write_json_file(metrics_path);
      std::printf("metrics snapshot written to %s (%zu paths)\n",
                  metrics_path.c_str(), last_metrics->size());
    }
    if (!hist_path.empty()) {
      std::ofstream out(hist_path);
      if (!out) {
        std::fprintf(stderr, "--hist: cannot open %s\n", hist_path.c_str());
        return 2;
      }
      out << "{\n  \"schema\": \"scc-hist-v1\",\n  \"histograms\": {";
      bool first = true;
      for (const auto& [name, hist] : soak_hist) {
        out << (first ? "" : ",") << "\n    \"" << name << "\": ";
        hist.write_json_us(out);
        first = false;
      }
      out << "\n  }\n}\n";
      std::uint64_t recorded = 0;
      for (const auto& [name, h] : soak_hist) recorded += h.count();
      std::printf("latency histograms written to %s (%llu samples)\n",
                  hist_path.c_str(),
                  static_cast<unsigned long long>(recorded));
    }
    std::printf("perturb_soak: %ld rounds, %ld simulations, %ld failed\n",
                rounds, total_runs, failed_rounds);
    return failed_rounds == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perturb_soak: %s\n", e.what());
    return 2;
  }
}
