#include "metrics/collect.hpp"

#include "common/string_util.hpp"

namespace scc::metrics {

namespace {
constexpr bool kInvariant = true;  // volume-type: seed-invariant
constexpr bool kVariant = false;   // time-type: schedule-dependent
}  // namespace

void collect_machine(machine::SccMachine& machine, MetricsRegistry& out) {
  // --- engine (all time-type: counts depend on the interleaving) --------
  const sim::Engine& engine = machine.engine();
  const sim::EngineStats& eng = engine.stats();
  out.set("engine/events_processed", engine.events_processed(),
          Unit::kCount, kVariant);
  out.set("engine/parks", eng.parks, Unit::kCount, kVariant);
  out.set("engine/notifies", eng.notifies, Unit::kCount, kVariant);
  out.set("engine/waiters_woken", eng.waiters_woken, Unit::kCount, kVariant);
  out.set("engine/perturb_delays", eng.perturb_delays, Unit::kCount,
          kVariant);
  out.set_time("engine/perturb_delay_total_fs", eng.perturb_delay_total,
               kVariant);

  // --- per core: profile phases, cache, MPB footprint -------------------
  for (int r = 0; r < machine.num_cores(); ++r) {
    const machine::CoreProfile& prof = machine.core(r).profile();
    for (int p = 0; p < static_cast<int>(machine::Phase::kCount); ++p) {
      const auto phase = static_cast<machine::Phase>(p);
      // Phase times are time-type: total wait time moves with the schedule.
      out.set_time(strprintf("core/%d/profile/%s_fs", r,
                             std::string(machine::phase_name(phase)).c_str()),
                   prof.get(phase), kVariant);
    }
    const mem::CacheStats& cache = machine.cache(r).stats();
    out.set(strprintf("core/%d/cache/hits", r), cache.hits, Unit::kCount,
            kInvariant);
    out.set(strprintf("core/%d/cache/misses", r), cache.misses, Unit::kCount,
            kInvariant);
    out.set(strprintf("core/%d/cache/writebacks", r), cache.writebacks,
            Unit::kCount, kInvariant);
    out.set(strprintf("core/%d/cache/uncached_writes", r),
            cache.uncached_writes, Unit::kCount, kInvariant);
    out.set(strprintf("core/%d/mpb/high_water_bytes", r),
            machine.mpb().high_water(r), Unit::kBytes, kInvariant);
  }

  // --- trace recorder health --------------------------------------------
  if (const trace::Recorder* rec = machine.trace()) {
    // A saturated recorder silently truncates the event stream; surfacing
    // the drop count here means a blame/export consumer can tell "quiet
    // trace" from "full trace" without re-deriving capacity.
    out.set("trace/dropped_events", rec->dropped(), Unit::kCount, kVariant);
  }

  // --- flags -------------------------------------------------------------
  const machine::FlagStats flags = machine.flags().stats();
  out.set("flags/sets", flags.sets, Unit::kCount, kInvariant);
  out.set("flags/polls", flags.polls, Unit::kCount, kVariant);
  out.set("flags/wakeups", flags.wakeups, Unit::kCount, kVariant);

  // --- NoC traffic volume (contention-free accounting) -------------------
  const noc::TrafficMatrix& traffic = machine.traffic();
  out.set("noc/lines_sent", traffic.total_lines_sent(), Unit::kCount,
          kInvariant);
  out.set("noc/line_hops", traffic.total_line_hops(), Unit::kCount,
          kInvariant);
  out.set("noc/max_link_load", traffic.max_link_load(), Unit::kCount,
          kInvariant);

  // --- link-contention model (populated only when enabled) ---------------
  const noc::LinkContention& contention = machine.contention();
  out.set_time("noc/contention/total_delay_fs", contention.total_delay(),
               kVariant);
  out.set("noc/contention/delayed_transfers", contention.delayed_transfers(),
          Unit::kCount, kVariant);
  for (const auto& [name, link] : contention.link_stats()) {
    // Window COUNT per link is volume-type (one per crossing); the busy /
    // queueing times shift with the interleaving.
    out.set(strprintf("noc/link/%s/windows", name.c_str()), link.windows,
            Unit::kCount, kInvariant);
    out.set_time(strprintf("noc/link/%s/busy_fs", name.c_str()), link.busy,
                 kVariant);
    out.set_time(strprintf("noc/link/%s/queue_fs", name.c_str()), link.queue,
                 kVariant);
    out.set_time(strprintf("noc/link/%s/max_queue_fs", name.c_str()),
                 link.max_queue, kVariant);
  }
}

void add_machine_columns(machine::SccMachine& machine, Sampler& sampler) {
  machine::SccMachine* m = &machine;
  sampler.add_column("engine/events_processed",
                     [m] { return m->engine().events_processed(); });
  sampler.add_column("engine/parks",
                     [m] { return m->engine().stats().parks; });
  // Gauge: coroutines currently parked on a wait queue (every wake-up of a
  // parked waiter decrements; a re-park counts a fresh park).
  sampler.add_column("engine/waiting", [m] {
    const sim::EngineStats& s = m->engine().stats();
    return s.parks - s.waiters_woken;
  });
  sampler.add_column("flags/sets", [m] { return m->flags().stats().sets; });
  sampler.add_column("flags/polls", [m] { return m->flags().stats().polls; });
  sampler.add_column("flags/wakeups",
                     [m] { return m->flags().stats().wakeups; });
  sampler.add_column("noc/lines_sent",
                     [m] { return m->traffic().total_lines_sent(); });
  sampler.add_column("noc/line_hops",
                     [m] { return m->traffic().total_line_hops(); });
  sampler.add_column("noc/contention/delayed_transfers",
                     [m] { return m->contention().delayed_transfers(); });
  sampler.add_column("noc/contention/total_delay_fs", [m] {
    return m->contention().total_delay().femtoseconds();
  });
  sampler.add_column("cache/hits", [m] {
    std::uint64_t total = 0;
    for (int r = 0; r < m->num_cores(); ++r) total += m->cache(r).stats().hits;
    return total;
  });
  sampler.add_column("cache/misses", [m] {
    std::uint64_t total = 0;
    for (int r = 0; r < m->num_cores(); ++r)
      total += m->cache(r).stats().misses;
    return total;
  });
  sampler.add_column("mpb/high_water_bytes", [m] {
    std::uint64_t total = 0;
    for (int r = 0; r < m->num_cores(); ++r) total += m->mpb().high_water(r);
    return total;
  });
}

void collect_channel(const rckmpi::ChannelStats& stats,
                     MetricsRegistry& out) {
  out.set("rckmpi/messages", stats.messages, Unit::kCount, kInvariant);
  out.set("rckmpi/header_lines", stats.header_lines, Unit::kCount,
          kInvariant);
  out.set("rckmpi/payload_lines", stats.payload_lines, Unit::kCount,
          kInvariant);
  out.set("rckmpi/credit_updates", stats.credit_updates, Unit::kCount,
          kVariant);
  out.set("rckmpi/credit_stalls", stats.credit_stalls, Unit::kCount,
          kVariant);
  out.set("rckmpi/progress_polls", stats.progress_polls, Unit::kCount,
          kVariant);
}

}  // namespace scc::metrics
