#include "machine/scc_machine.hpp"

#include <string>
#include <utility>

#include "common/string_util.hpp"

namespace scc::machine {

SccMachine::SccMachine(SccConfig config)
    : config_(config),
      topology_(config.tiles_x, config.tiles_y, config.cores_per_tile),
      fault_model_(config_.faults.empty()
                       ? std::optional<faults::FaultModel>{}
                       : std::optional<faults::FaultModel>{std::in_place,
                                                           config_.faults,
                                                           topology_}),
      latency_(config_.cost.hw, topology_, fault_model()),
      mpb_(topology_.num_cores()),
      flags_(engine_, topology_.num_cores(), config.flags_per_core),
      traffic_(topology_),
      contention_(topology_, config_.cost.hw.mesh_clock(),
                  config_.cost.hw.link_service_mesh_cycles_per_line,
                  config_.cost.hw.mesh_cycles_per_hop),
      barrier_(engine_) {
  if (fault_model_) {
    // Traffic accounting and the contention model follow the degraded
    // machine too: rerouted paths where links died, stretched service and
    // traversal windows on slow links.
    const faults::FaultModel& fm = *fault_model_;
    const auto route = [&fm](int a, int b) -> const std::vector<noc::LinkId>& {
      return fm.route(a, b);
    };
    if (fm.rerouted()) traffic_.set_route_fn(route);
    contention_.set_fault_hooks(
        fm.rerouted() ? noc::LinkContention::RouteFn(route)
                      : noc::LinkContention::RouteFn(),
        [&fm](const noc::LinkId& link) { return fm.link_factor(link); });
  }
  if (config_.perturb_seed) {
    engine_.enable_perturbation(sim::PerturbConfig{
        *config_.perturb_seed, SimTime{config_.perturb_max_delay_fs}});
  }
  caches_.reserve(static_cast<std::size_t>(num_cores()));
  cores_.reserve(static_cast<std::size_t>(num_cores()));
  for (int rank = 0; rank < num_cores(); ++rank) {
    caches_.emplace_back(config_.cost.hw);
    cores_.push_back(std::make_unique<CoreApi>(*this, rank));
    if (config_.poison_mpb) mpb_.poison(rank, std::byte{0xCD});
  }
}

void SccMachine::launch(int rank, sim::Task<> program) {
  SCC_EXPECTS(rank >= 0 && rank < num_cores());
  engine_.spawn(std::move(program), strprintf("core%d", rank));
}

void SccMachine::flush_caches() {
  for (auto& cache : caches_) cache.flush_all();
}

void SccMachine::attach_trace(trace::Recorder* recorder) {
  trace_ = recorder;
  engine_.set_trace(recorder);
  contention_.set_trace(recorder);
}

void launch_spmd(SccMachine& machine,
                 const std::function<sim::Task<>(CoreApi&)>& factory) {
  for (int rank = 0; rank < machine.num_cores(); ++rank) {
    machine.launch(rank, factory(machine.core(rank)));
  }
}

}  // namespace scc::machine
