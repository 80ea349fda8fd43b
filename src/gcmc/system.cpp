#include "gcmc/system.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace scc::gcmc {

namespace {

constexpr double kTwoPi = 6.283185307179586;

double min_image(double d, double box) {
  while (d > 0.5 * box) d -= box;
  while (d < -0.5 * box) d += box;
  return d;
}

}  // namespace

KSpace::KSpace(const ModelParams& params) {
  struct Entry {
    int n2;
    std::array<int, 3> n;
  };
  std::vector<Entry> entries;
  // Enumerate integer vectors in a cube big enough to yield kmaxvecs
  // entries; 276 fits comfortably inside |n|_inf <= 5.
  int limit = 2;
  while (true) {
    entries.clear();
    for (int x = -limit; x <= limit; ++x)
      for (int y = -limit; y <= limit; ++y)
        for (int z = -limit; z <= limit; ++z) {
          const int n2 = x * x + y * y + z * z;
          if (n2 == 0) continue;
          entries.push_back({n2, {x, y, z}});
        }
    if (entries.size() >= static_cast<std::size_t>(params.kmaxvecs)) break;
    ++limit;
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.n2 != b.n2) return a.n2 < b.n2;
    return a.n < b.n;
  });
  entries.resize(static_cast<std::size_t>(params.kmaxvecs));
  const double scale = kTwoPi / ModelParams::box_length;
  kvecs.reserve(entries.size());
  coeff.reserve(entries.size());
  for (const Entry& e : entries) {
    kvecs.push_back({scale * e.n[0], scale * e.n[1], scale * e.n[2]});
    const double k2 = scale * scale * static_cast<double>(e.n2);
    coeff.push_back(std::exp(-ModelParams::ewald_eta * k2) / k2);
  }
}

LocalSystem::LocalSystem(int max_local_particles)
    : particles_(static_cast<std::size_t>(max_local_particles)) {
  SCC_EXPECTS(max_local_particles > 0);
}

int LocalSystem::alive_count() const {
  int count = 0;
  for (const Particle& p : particles_)
    if (p.alive) ++count;
  return count;
}

int LocalSystem::free_slot() const {
  for (std::size_t i = 0; i < particles_.size(); ++i)
    if (!particles_[i].alive) return static_cast<int>(i);
  return -1;
}

Particle LocalSystem::make_particle(Xoshiro256& rng) const {
  Particle p;
  p.alive = true;
  p.atoms.resize(static_cast<std::size_t>(ModelParams::atoms_per_particle));
  const Vec3 center{rng.uniform(0.0, ModelParams::box_length),
                    rng.uniform(0.0, ModelParams::box_length),
                    rng.uniform(0.0, ModelParams::box_length)};
  double charge_sum = 0.0;
  for (std::size_t a = 0; a < p.atoms.size(); ++a) {
    Atom& atom = p.atoms[a];
    for (int d = 0; d < 3; ++d) {
      atom.pos[static_cast<std::size_t>(d)] =
          center[static_cast<std::size_t>(d)] + 0.3 * rng.uniform(-1.0, 1.0);
    }
    atom.charge = (a + 1 < p.atoms.size()) ? rng.uniform(-0.5, 0.5) : 0.0;
    charge_sum += atom.charge;
  }
  // Neutralize: the last atom balances the molecule's total charge.
  p.atoms.back().charge = -charge_sum;
  return p;
}

LocalSystem::ShortRange LocalSystem::short_range(const Particle& probe,
                                                 int skip_slot) const {
  ShortRange result;
  constexpr double cutoff2 = ModelParams::lj_cutoff * ModelParams::lj_cutoff;
  constexpr double sigma2 = ModelParams::lj_sigma * ModelParams::lj_sigma;
  for (std::size_t s = 0; s < particles_.size(); ++s) {
    if (static_cast<int>(s) == skip_slot) continue;
    const Particle& other = particles_[s];
    if (!other.alive) continue;
    for (const Atom& a : probe.atoms) {
      for (const Atom& b : other.atoms) {
        double r2 = 0.0;
        for (int d = 0; d < 3; ++d) {
          const double delta = min_image(
              a.pos[static_cast<std::size_t>(d)] - b.pos[static_cast<std::size_t>(d)],
              ModelParams::box_length);
          r2 += delta * delta;
        }
        ++result.pairs;
        if (r2 >= cutoff2 || r2 == 0.0) continue;
        const double sr2 = sigma2 / r2;
        const double sr6 = sr2 * sr2 * sr2;
        result.energy += 4.0 * ModelParams::lj_epsilon * (sr6 * sr6 - sr6);
      }
    }
  }
  return result;
}

void LocalSystem::structure_factors(
    const KSpace& kspace, std::vector<std::complex<double>>& f_local,
    std::uint64_t& evaluations) const {
  f_local.assign(kspace.kvecs.size(), {0.0, 0.0});
  evaluations = 0;
  for (const Particle& p : particles_) {
    if (!p.alive) continue;
    for (const Atom& atom : p.atoms) {
      for (std::size_t k = 0; k < kspace.kvecs.size(); ++k) {
        const Vec3& kv = kspace.kvecs[k];
        const double phase = kv[0] * atom.pos[0] + kv[1] * atom.pos[1] +
                             kv[2] * atom.pos[2];
        f_local[k] += atom.charge *
                      std::complex<double>(std::cos(phase), std::sin(phase));
        ++evaluations;
      }
    }
  }
}

double LocalSystem::long_range_energy(
    const KSpace& kspace,
    const std::vector<std::complex<double>>& f_total) const {
  SCC_EXPECTS(f_total.size() == kspace.coeff.size());
  double energy = 0.0;
  constexpr double volume = ModelParams::box_length *
                            ModelParams::box_length * ModelParams::box_length;
  for (std::size_t k = 0; k < f_total.size(); ++k) {
    energy += kspace.coeff[k] / volume * std::norm(f_total[k]);
  }
  return energy;
}

}  // namespace scc::gcmc
