#include "mem/latency.hpp"

namespace scc::mem {

namespace {

/// Femtoseconds of a (possibly fractional) number of cycles of `clock`.
/// For whole cycle counts this is bit-identical to Clock::cycles: the cycle
/// count is exact in long double, so the product and truncation match.
SimTime fractional_cycles(const Clock& clock, double cycles) {
  const long double fs = static_cast<long double>(cycles) *
                         (1e15L / static_cast<long double>(clock.hz()));
  return SimTime{static_cast<std::uint64_t>(fs)};
}

using Hw = HwCostModel;

}  // namespace

LatencyCalculator::LatencyCalculator(const HwCostModel& hw,
                                     const noc::Topology& topo,
                                     const faults::FaultSpec& faults)
    : mpb_bug_workaround_(hw.mpb_bug_workaround),
      topo_(&topo),
      tiles_(static_cast<std::size_t>(topo.num_tiles())),
      core_(static_cast<std::size_t>(topo.num_cores())),
      mesh_(tiles_ * tiles_) {
  SCC_EXPECTS(!noc::Topology::check(topo.tiles_x(), topo.tiles_y(),
                                    topo.cores_per_tile(), faults)
                   .has_value());
  for (const faults::Straggler& f : faults.stragglers) {
    core_[static_cast<std::size_t>(f.core)].factor *= f.factor;
  }
  for (const faults::Dvfs& f : faults.dvfs) {
    core_[static_cast<std::size_t>(f.core)].factor *= f.divisor;
  }

  constexpr Clock core_clk = Hw::core_clock();
  constexpr Clock mesh = Hw::mesh_clock();
  // Local (same-tile) MPB. With the arbiter bug workaround, the access is
  // converted into a self-addressed packet: 45 core + 8 mesh cycles. The
  // self packet never leaves the tile's own router, so link faults don't
  // apply; the core-side cycles still stretch on a degraded core.
  const SimTime local_core = core_clk.cycles(
      hw.mpb_bug_workaround ? Hw::mpb_local_bug_core_cycles
                            : Hw::mpb_local_core_cycles);
  const SimTime local_mesh = hw.mpb_bug_workaround
                                 ? mesh.cycles(Hw::mpb_local_bug_mesh_cycles)
                                 : SimTime::zero();
  const SimTime remote_core = core_clk.cycles(Hw::mpb_remote_core_cycles);
  // The first missing line of an off-chip access pays the full latency.
  // The DRAM service itself runs on the memory controller's clock and is
  // unaffected by core-side degradation.
  const SimTime dram_core = core_clk.cycles(Hw::dram_core_cycles);
  const SimTime dram_service =
      Hw::dram_clock().cycles(Hw::dram_service_dram_cycles);
  for (int core = 0; core < topo.num_cores(); ++core) {
    CoreTerms& c = core_[static_cast<std::size_t>(core)];
    c.tile = static_cast<std::size_t>(topo.tile_of(core));
    c.local = scale_core(local_core, core) + local_mesh;
    c.remote = scale_core(remote_core, core);
    c.dram = scale_core(dram_core, core) +
             fractional_cycles(mesh, topo.weighted_hops_to_mc(core) *
                                         Hw::dram_mesh_cycles_per_hop) +
             dram_service;
  }

  // One line's mesh term per (tile, tile) pair: [0] one way (a posted
  // write), [1] the round trip (a read). Any core of a tile stands for the
  // tile.
  const int cores_per_tile = topo.cores_per_tile();
  for (std::size_t from = 0; from < tiles_; ++from) {
    for (std::size_t to = 0; to < tiles_; ++to) {
      const double hops =
          topo.weighted_hops(static_cast<int>(from) * cores_per_tile,
                             static_cast<int>(to) * cores_per_tile);
      mesh_[from * tiles_ + to] = {
          fractional_cycles(mesh, 1.0 * hops * Hw::mesh_cycles_per_hop),
          fractional_cycles(mesh, 2.0 * hops * Hw::mesh_cycles_per_hop)};
    }
  }
}

SimTime LatencyCalculator::mpb_bulk(int accessor, int mpb_owner,
                                    std::size_t bytes, bool is_read) const {
  if (bytes == 0) return SimTime::zero();
  const std::uint64_t lines = lines_for(bytes);
  SimTime t = mpb_line_access(accessor, mpb_owner, is_read);
  if (lines > 1) {
    t += scale_core(Hw::core_clock().cycles(
                        (lines - 1) * Hw::mpb_pipelined_line_core_cycles),
                    accessor);
  }
  return t;
}

SimTime LatencyCalculator::mpb_word_stream(int accessor, int mpb_owner,
                                           std::size_t bytes,
                                           bool is_read) const {
  if (bytes == 0) return SimTime::zero();
  const std::uint64_t words = (bytes + 3) / 4;  // 32-bit P54C words
  constexpr Clock core = Hw::core_clock();
  constexpr Clock mesh = Hw::mesh_clock();
  if (terms(accessor).tile == terms(mpb_owner).tile) {
    if (mpb_bug_workaround_) {
      return scale_core(core.cycles(words * Hw::mpb_word_local_bug_core_cycles),
                        accessor) +
             mesh.cycles(words * Hw::mpb_local_bug_mesh_cycles);
    }
    return scale_core(core.cycles(words * Hw::mpb_word_local_core_cycles),
                      accessor);
  }
  const double hops = topo_->weighted_hops(accessor, mpb_owner);
  const double directions = is_read ? 2.0 : 1.0;
  return scale_core(core.cycles(words * Hw::mpb_word_remote_core_cycles),
                    accessor) +
         fractional_cycles(mesh, static_cast<double>(words) * directions *
                                     hops * Hw::mesh_cycles_per_hop);
}

SimTime LatencyCalculator::priv_access(int core,
                                       const CacheAccessResult& r) const {
  constexpr Clock core_clk = Hw::core_clock();
  SimTime t =
      scale_core(core_clk.cycles(r.hits * Hw::cache_hit_core_cycles), core);
  const std::uint64_t dram_lines = r.misses + r.uncached_writes;
  if (dram_lines > 0) {
    // First missing line pays the full off-chip latency; the rest pipeline.
    t += terms(core).dram;
    t += scale_core(core_clk.cycles((dram_lines - 1) *
                                    Hw::dram_pipelined_line_core_cycles),
                    core);
  }
  // Dirty evictions drain through the write buffer in the background; they
  // only cost issue bandwidth at the core.
  t += scale_core(core_clk.cycles(r.writebacks * Hw::cache_write_core_cycles),
                  core);
  return t;
}

}  // namespace scc::mem
