// FaultSpec: a declarative, seed-free description of machine degradation.
//
// Generalizes the one-off mpb_bug_workaround toggle into a fault/variability
// injection layer: straggler cores, per-link latency multipliers, dead
// links with static reroute, and stepped DVFS-style frequency scaling. A
// FaultSpec is pure data. noc::Topology builds the mesh its link clauses
// leave (routes, link factors, weighted hop lengths), mem::LatencyCalculator
// turns its core clauses into per-core clock factors, and
// noc::Topology::check is the one semantic validator (core/tile ranges,
// adjacency, factors, mesh connectivity), which both constructors enforce
// with SCC_EXPECTS.
//
// Text grammar (the --faults= CLI flag; clauses separated by ';'):
//
//   straggler:<core>x<factor>            e.g. straggler:5x2.5
//   dvfs:<core>/<divisor>                e.g. dvfs:17/2
//   slowlink:<x>,<y>-<x>,<y>x<factor>    e.g. slowlink:2,1-3,1x4
//   deadlink:<x>,<y>-<x>,<y>             e.g. deadlink:2,1-3,1
//
// A straggler multiplies every core-clock charge of one core (OS jitter,
// thermal throttling: any real factor >= 1); a dvfs clause divides one
// core's frequency by an integer step (discrete frequency scaling). Both
// compose multiplicatively on the same core. Link clauses name the two
// adjacent tiles of a mesh link and apply to BOTH directions (a degraded or
// failed physical channel). parse() rejects grammar errors with
// std::runtime_error; values that are lexically valid but semantically
// wrong (negative factors, out-of-range ids, a dead link that disconnects
// the mesh) are noc::Topology::check's to report.
//
// An empty FaultSpec is the machine running to spec: the topology and the
// latency calculator it builds are the healthy ones, with no separate code
// path (DESIGN.md §13).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "noc/topology.hpp"

namespace scc::faults {

struct Straggler {
  int core = 0;
  double factor = 1.0;  // >= 1; multiplies every core-clock charge
  friend bool operator==(const Straggler&, const Straggler&) = default;
};

struct Dvfs {
  int core = 0;
  int divisor = 1;  // >= 1; core frequency becomes core_hz / divisor
  friend bool operator==(const Dvfs&, const Dvfs&) = default;
};

/// A mesh link named by its two adjacent tile coordinates; applies to both
/// directed links between them.
struct LinkRef {
  noc::TileCoord a;
  noc::TileCoord b;
  friend bool operator==(const LinkRef&, const LinkRef&) = default;
};

struct SlowLink {
  LinkRef link;
  double factor = 1.0;  // >= 1; multiplies per-hop mesh cycles + service time
  friend bool operator==(const SlowLink&, const SlowLink&) = default;
};

struct FaultSpec {
  std::vector<Straggler> stragglers;
  std::vector<Dvfs> dvfs;
  std::vector<SlowLink> slow_links;
  std::vector<LinkRef> dead_links;

  [[nodiscard]] bool empty() const {
    return stragglers.empty() && dvfs.empty() && slow_links.empty() &&
           dead_links.empty();
  }

  /// Parses the clause grammar above. Throws std::runtime_error on
  /// malformed text; an empty string yields the empty spec.
  [[nodiscard]] static FaultSpec parse(std::string_view text);

  /// Canonical re-rendering in the parse() grammar ("" for the empty spec).
  /// parse(to_string()) round-trips exactly.
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const FaultSpec&, const FaultSpec&) = default;
};

}  // namespace scc::faults
