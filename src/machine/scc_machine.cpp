#include "machine/scc_machine.hpp"

#include <string>
#include <utility>

#include "common/string_util.hpp"

namespace scc::machine {

SccMachine::SccMachine(SccConfig config)
    : config_(config),
      topology_(config_.tiles_x, config_.tiles_y, config_.cores_per_tile,
                config_.faults),
      latency_(config_.cost.hw, topology_, config_.faults),
      mpb_(topology_.num_cores()),
      flags_(engine_, topology_.num_cores(), config.flags_per_core),
      traffic_(topology_),
      contention_(topology_, config_.cost.hw.mesh_clock(),
                  config_.cost.hw.link_service_mesh_cycles_per_line,
                  config_.cost.hw.mesh_cycles_per_hop),
      barrier_(engine_) {
  if (config_.perturb_seed) {
    engine_.enable_perturbation(sim::PerturbConfig{
        *config_.perturb_seed, SimTime{config_.perturb_max_delay_fs}});
  }
  caches_.reserve(static_cast<std::size_t>(num_cores()));
  cores_.reserve(static_cast<std::size_t>(num_cores()));
  for (int rank = 0; rank < num_cores(); ++rank) {
    caches_.emplace_back(config_.cost.hw);
    cores_.push_back(std::make_unique<CoreApi>(*this, rank));
  }
}

void SccMachine::launch(int rank, sim::Task<> program) {
  SCC_EXPECTS(rank >= 0 && rank < num_cores());
  engine_.spawn(std::move(program), strprintf("core%d", rank));
}

void SccMachine::attach_trace(trace::Recorder* recorder) {
  trace_ = recorder;
  engine_.set_trace(recorder);
  contention_.set_trace(recorder);
}

}  // namespace scc::machine
