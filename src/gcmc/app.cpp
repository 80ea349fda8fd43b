#include "gcmc/app.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "common/aligned.hpp"
#include "harness/comm.hpp"
#include "machine/scc_machine.hpp"

namespace scc::gcmc {

namespace {

using harness::Collective;
using harness::Comm;
using harness::PaperVariant;

/// Move mix percentages (translate / insert / delete).
constexpr std::uint64_t kTranslatePct = 60;
constexpr std::uint64_t kInsertPct = 20;

enum class Action { kTranslate, kInsert, kDelete };

/// Per-core application state. Every core tracks the global alive bitmap
/// (updated deterministically from the shared RNG stream and the shared
/// accept/reject decisions); only the owner holds particle coordinates.
/// Each core has `slots` particle slots (see run_app). `f_local` and
/// `evaluations` hold this core's last structure-factor evaluation; they
/// stay valid (`factors_fresh`) until one of its own slots changes.
struct CoreState {
  CoreState(const AppParams& params, const KSpace& basis, int p, int slots)
      : local(slots),
        alive(static_cast<std::size_t>(p),
              std::vector<bool>(static_cast<std::size_t>(slots), false)),
        rng(params.seed),
        f_local(static_cast<std::size_t>(params.model.kmaxvecs)),
        f_total(static_cast<std::size_t>(params.model.kmaxvecs)),
        flat_in(2 * static_cast<std::size_t>(params.model.kmaxvecs)),
        flat_out(2 * static_cast<std::size_t>(params.model.kmaxvecs)),
        kspace(&basis) {}

  [[nodiscard]] int global_alive() const {
    int count = 0;
    for (const auto& per_core : alive)
      for (const bool a : per_core)
        if (a) ++count;
    return count;
  }

  /// Maps the j-th globally-alive particle to (owner, slot).
  [[nodiscard]] std::pair<int, int> nth_alive(int j) const {
    for (std::size_t owner = 0; owner < alive.size(); ++owner) {
      for (std::size_t slot = 0; slot < alive[owner].size(); ++slot) {
        if (alive[owner][slot] && j-- == 0)
          return {static_cast<int>(owner), static_cast<int>(slot)};
      }
    }
    SCC_ASSERT(false && "nth_alive out of range");
    return {-1, -1};
  }

  [[nodiscard]] int free_slot_of(int owner) const {
    const auto& per_core = alive[static_cast<std::size_t>(owner)];
    for (std::size_t s = 0; s < per_core.size(); ++s)
      if (!per_core[s]) return static_cast<int>(s);
    return -1;
  }

  LocalSystem local;
  std::vector<std::vector<bool>> alive;
  Xoshiro256 rng;  // identical stream on every core
  std::vector<std::complex<double>> f_local;
  std::uint64_t evaluations = 0;
  bool factors_fresh = false;
  std::vector<std::complex<double>> f_total;
  aligned_vector<double> flat_in;
  aligned_vector<double> flat_out;
  aligned_vector<double> scalar_in = aligned_vector<double>(1, 0.0);
  aligned_vector<double> scalar_out = aligned_vector<double>(1, 0.0);
  const KSpace* kspace;
  double en_total = 0.0;
  int accepted = 0;
  int attempted = 0;
  SimTime finish_time;
};

/// Algorithm 2: local structure factors + global Allreduce + energy. The
/// host recomputes a core's factors only after its own particles changed
/// and otherwise reuses the last ones, which are the same bytes; the core
/// is charged the full evaluation either way, as on the SCC.
sim::Task<double> long_en(machine::CoreApi& api, const AppParams& params,
                          Comm& comm, CoreState& st) {
  if (!st.factors_fresh) {
    st.local.structure_factors(*st.kspace, st.f_local, st.evaluations);
    st.factors_fresh = true;
  }
  co_await api.compute(st.evaluations * AppParams::eval_cycles);
  for (std::size_t k = 0; k < st.f_local.size(); ++k) {
    st.flat_in[2 * k] = st.f_local[k].real();
    st.flat_in[2 * k + 1] = st.f_local[k].imag();
  }
  co_await comm.run(Collective::kAllreduce, st.flat_in, st.flat_out);
  for (std::size_t k = 0; k < st.f_total.size(); ++k) {
    st.f_total[k] = {st.flat_out[2 * k], st.flat_out[2 * k + 1]};
  }
  const double energy = st.local.long_range_energy(*st.kspace, st.f_total);
  co_await api.compute(static_cast<std::uint64_t>(params.model.kmaxvecs) *
                       AppParams::energy_sum_cycles_per_k);
  co_return energy;
}

/// Short-range energy of `probe` against everyone (scalar Allreduce).
sim::Task<double> short_en(machine::CoreApi& api, Comm& comm, CoreState& st,
                           const Particle& probe, int skip_slot_if_owner,
                           bool is_owner) {
  const LocalSystem::ShortRange sr =
      st.local.short_range(probe, is_owner ? skip_slot_if_owner : -1);
  co_await api.compute(sr.pairs * AppParams::lj_pair_cycles);
  st.scalar_in[0] = sr.energy;
  co_await comm.run(Collective::kAllreduce, st.scalar_in, st.scalar_out);
  co_return st.scalar_out[0];
}

/// Serializes a particle for BroadcastUpdate (positions + charges + the
/// new total energy, Algorithm 1 line 13).
void pack_particle(const Particle& p, double energy,
                   aligned_vector<double>& buffer) {
  std::size_t i = 0;
  for (const Atom& a : p.atoms) {
    buffer[i++] = a.pos[0];
    buffer[i++] = a.pos[1];
    buffer[i++] = a.pos[2];
    buffer[i++] = a.charge;
  }
  buffer[i] = energy;
}

sim::Task<> gcmc_core(machine::CoreApi& api,
                      const harness::CommLayout& layout,
                      const AppParams& params, PaperVariant variant,
                      CoreState& st) {
  Comm comm(api, layout, variant, harness::split_of(variant));
  const int p = api.num_cores();
  const int self = api.rank();
  constexpr double volume = ModelParams::box_length *
                            ModelParams::box_length * ModelParams::box_length;

  // --- initial configuration (deterministic, identical on all cores) -----
  for (int g = 0; g < params.particles_total; ++g) {
    const int owner = g % p;
    const int slot = g / p;
    SCC_EXPECTS(slot < st.local.capacity());
    Particle particle = st.local.make_particle(st.rng);
    st.alive[static_cast<std::size_t>(owner)][static_cast<std::size_t>(slot)] =
        true;
    if (owner == self) st.local.slot(slot) = particle;
  }
  // InitialEnergy(): one long-range evaluation; the short-range total is
  // tracked incrementally from 0 like the application does.
  co_await api.sync_barrier();
  st.en_total = co_await long_en(api, params, comm, st);

  aligned_vector<double> bcast_buf(
      static_cast<std::size_t>(ModelParams::atoms_per_particle) * 4 + 1);

  // --- Algorithm 1 main loop ---------------------------------------------
  for (int cycle = 0; cycle < params.cycles; ++cycle) {
    ++st.attempted;
    const std::uint64_t dice = st.rng.below(100);
    Action action = Action::kTranslate;
    if (dice >= kTranslatePct + kInsertPct) action = Action::kDelete;
    else if (dice >= kTranslatePct) action = Action::kInsert;
    const int n_alive = st.global_alive();
    if ((action != Action::kInsert && n_alive == 0)) continue;

    int owner = -1;
    int slot = -1;
    if (action == Action::kInsert) {
      owner = static_cast<int>(st.rng.below(static_cast<std::uint64_t>(p)));
      slot = st.free_slot_of(owner);
      if (slot < 0) continue;  // capacity full: auto-reject, RNG stays sync'd
    } else {
      const auto target =
          st.nth_alive(static_cast<int>(st.rng.below(
              static_cast<std::uint64_t>(n_alive))));
      owner = target.first;
      slot = target.second;
    }
    const bool is_owner = owner == self;

    // Old state of the probe: the owner broadcasts it so every core can
    // evaluate the short-range terms (not needed for insertions).
    Particle probe_old;
    probe_old.atoms.resize(
        static_cast<std::size_t>(ModelParams::atoms_per_particle));
    if (action != Action::kInsert) {
      if (is_owner) pack_particle(st.local.slot(slot), st.en_total, bcast_buf);
      co_await comm.run(Collective::kBroadcast, {}, bcast_buf, owner);
      std::size_t i = 0;
      probe_old.alive = true;
      for (Atom& a : probe_old.atoms) {
        a.pos = {bcast_buf[i], bcast_buf[i + 1], bcast_buf[i + 2]};
        a.charge = bcast_buf[i + 3];
        i += 4;
      }
    }

    // en_new = en_old - ShortEn(particle) - LongEn()   (Algorithm 1 line 5)
    double en_new = st.en_total;
    if (action != Action::kInsert) {
      en_new -= co_await short_en(api, comm, st, probe_old, slot, is_owner);
    }
    en_new -= co_await long_en(api, params, comm, st);

    // DoGCMCMove: construct the new probe state from the shared RNG stream
    // (identical on all cores) and apply it at the owner.
    Particle probe_new;
    if (action == Action::kTranslate) {
      probe_new = probe_old;
      Vec3 delta{};
      for (double& d : delta)
        d = st.rng.uniform(-ModelParams::max_translation,
                           ModelParams::max_translation);
      for (Atom& a : probe_new.atoms)
        for (int d = 0; d < 3; ++d)
          a.pos[static_cast<std::size_t>(d)] += delta[static_cast<std::size_t>(d)];
    } else if (action == Action::kInsert) {
      probe_new = st.local.make_particle(st.rng);
    }
    // Apply provisionally.
    Particle saved;
    if (is_owner) {
      saved = st.local.slot(slot);
      if (action == Action::kDelete) {
        st.local.slot(slot).alive = false;
      } else {
        st.local.slot(slot) = probe_new;
      }
      st.factors_fresh = false;
    }
    auto alive_ref = [&]() -> std::vector<bool>::reference {
      return st.alive[static_cast<std::size_t>(owner)]
                     [static_cast<std::size_t>(slot)];
    };
    const bool alive_before = alive_ref();
    alive_ref() = action != Action::kDelete;

    // en_new += ShortEn(particle) + LongEn()   (Algorithm 1 line 8)
    if (action != Action::kDelete) {
      en_new += co_await short_en(api, comm, st, probe_new, slot, is_owner);
    }
    en_new += co_await long_en(api, params, comm, st);

    // Metropolis / GCMC acceptance; the shared RNG keeps all cores in
    // agreement without communication.
    const double delta_e = en_new - st.en_total;
    double acc = std::exp(-ModelParams::beta * delta_e);
    if (action == Action::kInsert) {
      acc *= volume / static_cast<double>(n_alive + 1) *
             std::exp(ModelParams::beta * ModelParams::chemical_potential);
    } else if (action == Action::kDelete) {
      acc *= static_cast<double>(n_alive) / volume *
             std::exp(-ModelParams::beta * ModelParams::chemical_potential);
    }
    const bool accept = st.rng.uniform() < std::min(1.0, acc);
    if (accept) {
      st.en_total = en_new;
      ++st.accepted;
    } else {
      if (is_owner) {
        st.local.slot(slot) = saved;  // RestoreConfig
        st.factors_fresh = false;
      }
      alive_ref() = alive_before;
    }

    // BroadcastUpdate(particle, en_new)  (Algorithm 1 line 13)
    if (is_owner) {
      const Particle& current =
          st.local.slot(slot).alive ? st.local.slot(slot) : probe_old;
      pack_particle(current, st.en_total, bcast_buf);
    }
    co_await comm.run(Collective::kBroadcast, {}, bcast_buf, owner);
  }
  co_await api.sync_barrier();
  st.finish_time = api.now();
}

}  // namespace

AppResult run_app(const AppParams& params, harness::PaperVariant variant,
                  machine::SccConfig config) {
  const int p = config.num_cores();
  SCC_EXPECTS(std::int64_t{params.particles_total} <=
              std::int64_t{params.max_local_particles} * p);
  // A core never holds more than its initial share plus one insertion per
  // move, and inserts take the lowest free slot, so slots past that bound
  // are never touched: allocate up to the bound, not the whole capacity. A
  // capacity below the bound still auto-rejects inserts into a full core.
  const std::int64_t bound =
      (std::int64_t{params.particles_total} + p - 1) / p + params.cycles;
  const int slots = static_cast<int>(std::max<std::int64_t>(
      1, std::min<std::int64_t>(params.max_local_particles, bound)));
  const harness::CommLayout layout(config, variant);
  machine::SccMachine machine(config);

  const KSpace kspace(params.model);
  std::vector<CoreState> states;
  states.reserve(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) states.emplace_back(params, kspace, p, slots);

  for (int r = 0; r < p; ++r) {
    machine.launch(r, gcmc_core(machine.core(r), layout, params, variant,
                                states[static_cast<std::size_t>(r)]));
  }
  machine.run();

  // Cross-core consistency: the shared-RNG SPMD scheme must leave every
  // core with identical global observables.
  for (int r = 1; r < p; ++r) {
    const auto& a = states[0];
    const auto& b = states[static_cast<std::size_t>(r)];
    if (a.en_total != b.en_total || a.accepted != b.accepted ||
        a.global_alive() != b.global_alive()) {
      throw std::runtime_error("gcmc: cores disagree on global state");
    }
  }

  AppResult result;
  result.runtime = states[0].finish_time;
  result.final_energy = states[0].en_total;
  result.accepted = states[0].accepted;
  result.attempted = states[0].attempted;
  result.final_particles = states[0].global_alive();
  result.profiles.reserve(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r)
    result.profiles.push_back(machine.core(r).profile());
  return result;
}

}  // namespace scc::gcmc
