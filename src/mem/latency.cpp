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

}  // namespace

SimTime LatencyCalculator::scale(SimTime t, double factor) {
  if (factor == 1.0) return t;  // healthy path: exactly the old arithmetic
  const long double fs = static_cast<long double>(t.femtoseconds()) *
                         static_cast<long double>(factor);
  return SimTime{static_cast<std::uint64_t>(fs)};
}

SimTime LatencyCalculator::scale_core(SimTime t, int core) const {
  return faults_ == nullptr ? t : scale(t, faults_->core_factor(core));
}

double LatencyCalculator::effective_hops(int from, int to) const {
  if (faults_ == nullptr) return topo_->hops(from, to);
  return faults_->weighted_hops(from, to);
}

SimTime LatencyCalculator::mpb_line_access(int accessor, int mpb_owner,
                                           bool is_read) const {
  const Clock core = hw_->core_clock();
  const Clock mesh = hw_->mesh_clock();
  if (topo_->tile_of(accessor) == topo_->tile_of(mpb_owner)) {
    // Local (same-tile) MPB. With the arbiter bug workaround, the access is
    // converted into a self-addressed packet: 45 core + 8 mesh cycles. The
    // self packet never leaves the tile's own router, so link faults don't
    // apply; the core-side cycles still stretch on a degraded core.
    if (hw_->mpb_bug_workaround) {
      return scale_core(core.cycles(hw_->mpb_local_bug_core_cycles),
                        accessor) +
             mesh.cycles(hw_->mpb_local_bug_mesh_cycles);
    }
    return scale_core(core.cycles(hw_->mpb_local_core_cycles), accessor);
  }
  const double hops = effective_hops(accessor, mpb_owner);
  const double directions = is_read ? 2.0 : 1.0;  // reads are round trips
  return scale_core(core.cycles(hw_->mpb_remote_core_cycles), accessor) +
         fractional_cycles(mesh,
                           directions * hops * hw_->mesh_cycles_per_hop);
}

SimTime LatencyCalculator::mpb_bulk(int accessor, int mpb_owner,
                                    std::size_t bytes, bool is_read) const {
  if (bytes == 0) return SimTime::zero();
  const std::uint64_t lines = lines_for(bytes);
  SimTime t = mpb_line_access(accessor, mpb_owner, is_read);
  if (lines > 1) {
    t += scale_core(hw_->core_clock().cycles(
                        (lines - 1) * hw_->mpb_pipelined_line_core_cycles),
                    accessor);
  }
  return t;
}

SimTime LatencyCalculator::mpb_word_stream(int accessor, int mpb_owner,
                                           std::size_t bytes,
                                           bool is_read) const {
  if (bytes == 0) return SimTime::zero();
  const std::uint64_t words = (bytes + 3) / 4;  // 32-bit P54C words
  const Clock core = hw_->core_clock();
  const Clock mesh = hw_->mesh_clock();
  if (topo_->tile_of(accessor) == topo_->tile_of(mpb_owner)) {
    if (hw_->mpb_bug_workaround) {
      return scale_core(core.cycles(words * hw_->mpb_word_local_bug_core_cycles),
                        accessor) +
             mesh.cycles(words * hw_->mpb_local_bug_mesh_cycles);
    }
    return scale_core(core.cycles(words * hw_->mpb_word_local_core_cycles),
                      accessor);
  }
  const double hops = effective_hops(accessor, mpb_owner);
  const double directions = is_read ? 2.0 : 1.0;
  return scale_core(core.cycles(words * hw_->mpb_word_remote_core_cycles),
                    accessor) +
         fractional_cycles(mesh, static_cast<double>(words) * directions *
                                     hops * hw_->mesh_cycles_per_hop);
}

SimTime LatencyCalculator::priv_access(int core,
                                       const CacheAccessResult& r) const {
  const Clock core_clk = hw_->core_clock();
  const Clock mesh = hw_->mesh_clock();
  const Clock dram = hw_->dram_clock();
  const double mc_hops =
      faults_ == nullptr
          ? static_cast<double>(topo_->hops_to_mc(core))
          : faults_->weighted_hops_to(core,
                                      topo_->mc_coord(topo_->mc_of(core)));

  SimTime t =
      scale_core(core_clk.cycles(r.hits * hw_->cache_hit_core_cycles), core);
  const std::uint64_t dram_lines = r.misses + r.uncached_writes;
  if (dram_lines > 0) {
    // First missing line pays the full off-chip latency; the rest pipeline.
    // The DRAM service itself runs on the memory controller's clock and is
    // unaffected by core-side degradation.
    t += scale_core(core_clk.cycles(hw_->dram_core_cycles), core) +
         fractional_cycles(mesh, mc_hops * hw_->dram_mesh_cycles_per_hop) +
         dram.cycles(hw_->dram_service_dram_cycles);
    t += scale_core(core_clk.cycles((dram_lines - 1) *
                                    hw_->dram_pipelined_line_core_cycles),
                    core);
  }
  // Dirty evictions drain through the write buffer in the background; they
  // only cost issue bandwidth at the core.
  t += scale_core(core_clk.cycles(r.writebacks * hw_->cache_write_core_cycles),
                  core);
  return t;
}

}  // namespace scc::mem
