// SccMachine: one simulated Single-Chip Cloud Computer.
//
// Owns the event engine, topology, MPB storage, flag file, per-core cache
// models and CoreApi handles. Programs are coroutines launched per core;
// run() drives the event loop to completion. One machine is one serial
// sim::Engine: host parallelism lives a level up, across independent
// machines (exec::for_each_index, --jobs; DESIGN.md §11 and §14).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "faults/fault_model.hpp"
#include "machine/config.hpp"
#include "machine/core_api.hpp"
#include "machine/flags.hpp"
#include "mem/cache.hpp"
#include "mem/latency.hpp"
#include "mem/mpb.hpp"
#include "noc/contention.hpp"
#include "noc/topology.hpp"
#include "noc/traffic.hpp"
#include "sim/engine.hpp"

namespace scc::machine {

class SccMachine {
 public:
  explicit SccMachine(SccConfig config = SccConfig::paper_default());

  SccMachine(const SccMachine&) = delete;
  SccMachine& operator=(const SccMachine&) = delete;

  [[nodiscard]] const SccConfig& config() const { return config_; }
  [[nodiscard]] int num_cores() const { return topology_.num_cores(); }

  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] SimTime now() const { return engine_.now(); }

  [[nodiscard]] const noc::Topology& topology() const { return topology_; }
  [[nodiscard]] mem::MpbStorage& mpb() { return mpb_; }
  [[nodiscard]] FlagFile& flags() { return flags_; }
  [[nodiscard]] noc::TrafficMatrix& traffic() { return traffic_; }
  [[nodiscard]] noc::LinkContention& contention() { return contention_; }

  [[nodiscard]] const mem::LatencyCalculator& latency() const {
    return latency_;
  }
  /// The compiled fault model, or nullptr on a healthy machine
  /// (config.faults empty).
  [[nodiscard]] const faults::FaultModel* fault_model() const {
    return fault_model_ ? &*fault_model_ : nullptr;
  }
  [[nodiscard]] CoreApi& core(int rank) {
    SCC_EXPECTS(rank >= 0 && rank < num_cores());
    return *cores_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] mem::CacheModel& cache(int rank) {
    SCC_EXPECTS(rank >= 0 && rank < num_cores());
    return caches_[static_cast<std::size_t>(rank)];
  }

  /// Registers `program` to start on core `rank` at the current time.
  void launch(int rank, sim::Task<> program);

  /// Runs until every launched program finishes. Throws on deadlock.
  void run() { engine_.run(); }

  /// Like run(), but returns false on deadlock instead of throwing.
  [[nodiscard]] bool run_detect_deadlock() {
    return engine_.run_detect_deadlock();
  }

  /// Drops all private-memory cache contents (cold-start experiments).
  void flush_caches();

  /// Attaches a trace recorder (nullptr detaches), propagated to the engine
  /// and the contention model. Purely observational: traced and untraced
  /// runs have identical virtual timing.
  void attach_trace(trace::Recorder* recorder);
  [[nodiscard]] trace::Recorder* trace() const { return trace_; }

  struct HarnessBarrier {
    explicit HarnessBarrier(sim::Engine& e) : queue(e) {}
    int arrived = 0;
    std::uint64_t generation = 0;
    sim::WaitQueue queue;
  };
  [[nodiscard]] HarnessBarrier& harness_barrier() { return barrier_; }

 private:
  SccConfig config_;
  noc::Topology topology_;
  /// Compiled from config_.faults; disengaged when the spec is empty so the
  /// healthy machine takes exactly the pre-fault code paths. Declared (and
  /// therefore built) before latency_, which captures a pointer to it.
  std::optional<faults::FaultModel> fault_model_;
  mem::LatencyCalculator latency_;
  sim::Engine engine_;
  mem::MpbStorage mpb_;
  FlagFile flags_;
  noc::TrafficMatrix traffic_;
  noc::LinkContention contention_;
  std::vector<mem::CacheModel> caches_;
  std::vector<std::unique_ptr<CoreApi>> cores_;
  HarnessBarrier barrier_;
  trace::Recorder* trace_ = nullptr;
};

}  // namespace scc::machine
