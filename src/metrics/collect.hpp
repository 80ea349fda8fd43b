// Snapshot collection: walks every counter the simulator keeps and files it
// into a MetricsRegistry under stable hierarchical paths. See DESIGN.md §10
// for the path schema and the volume-type/time-type classification.
#pragma once

#include "machine/scc_machine.hpp"
#include "metrics/registry.hpp"
#include "metrics/sampler.hpp"
#include "rckmpi/channel.hpp"

namespace scc::metrics {

/// Snapshots one machine: engine stats, per-core profiles/caches/MPB
/// footprints, flag traffic, NoC traffic + per-link contention. Cumulative
/// over the machine's lifetime (warmup included), like the counters
/// themselves. Non-const: the accessors are non-const; nothing is mutated.
void collect_machine(machine::SccMachine& machine, MetricsRegistry& out);

/// Snapshots the RCKMPI transport counters (only meaningful for MPI runs;
/// harmless zeros otherwise) under "rckmpi/...".
void collect_channel(const rckmpi::ChannelStats& stats, MetricsRegistry& out);

/// Registers the standard machine flight-recorder columns on `sampler`
/// (cumulative counters, same naming as the registry paths): engine event /
/// park progress, flag-wait occupancy, flag traffic, NoC volume and
/// contention, cache totals and MPB footprint summed over cores. The
/// machine must outlive the sampler's ticking (columns capture &machine);
/// attach the sampler to machine.engine() afterwards.
void add_machine_columns(machine::SccMachine& machine, Sampler& sampler);

}  // namespace scc::metrics
