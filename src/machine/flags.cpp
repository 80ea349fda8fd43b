#include "machine/flags.hpp"

namespace scc::machine {

FlagFile::FlagFile(sim::Engine& engine, int num_cores, int flags_per_core)
    : num_cores_(num_cores), flags_per_core_(flags_per_core) {
  SCC_EXPECTS(num_cores > 0);
  SCC_EXPECTS(flags_per_core > 0);
  const std::size_t count = static_cast<std::size_t>(num_cores) *
                            static_cast<std::size_t>(flags_per_core);
  slots_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) slots_.emplace_back(engine);
}

void FlagFile::deposit(FlagRef ref, FlagValue v) {
  Slot& s = slot(ref);
  s.value = v;
  ++stats_.sets;
  stats_.wakeups += s.queue.waiter_count();
  s.queue.notify_all();
}

}  // namespace scc::machine
