// Binary particle swarm optimization (Kennedy & Eberhart discrete variant).
//
// This is the *baseline* solver of reference [9], which searched
// upper-triangular fermion-to-qubit matrices with PSO; the paper replaces it
// with simulated annealing (Sec. III-C) precisely because PSO "tends to get
// stuck in local minima". We re-implement it for the GT column of Table I
// and for the Gamma-search ablation (bench E4).
#pragma once

#include <cmath>
#include <functional>
#include <vector>

#include "common/rng.hpp"

namespace femto::opt {

struct PsoOptions {
  int particles = 24;
  int iterations = 120;
  double inertia = 0.72;
  double cognitive = 1.5;
  double social = 1.5;
  double v_clamp = 4.0;
};

struct PsoResult {
  std::vector<bool> best;
  double best_energy = 0.0;
  int evaluated = 0;
};

/// Minimizes `energy` over {0,1}^dim.
[[nodiscard]] inline PsoResult binary_pso(
    std::size_t dim, const std::function<double(const std::vector<bool>&)>& energy,
    Rng& rng, const PsoOptions& options = {}) {
  const int np = std::max(2, options.particles);
  std::vector<std::vector<bool>> x(static_cast<std::size_t>(np),
                                   std::vector<bool>(dim, false));
  std::vector<std::vector<double>> v(
      static_cast<std::size_t>(np), std::vector<double>(dim, 0.0));
  std::vector<std::vector<bool>> pbest = x;
  std::vector<double> pbest_e(static_cast<std::size_t>(np), 0.0);

  PsoResult result;
  result.best_energy = 1e300;
  for (int p = 0; p < np; ++p) {
    for (std::size_t d = 0; d < dim; ++d) {
      x[p][d] = rng.bernoulli(p == 0 ? 0.0 : 0.5);  // particle 0 = identity
      v[p][d] = rng.uniform(-1, 1);
    }
    pbest[p] = x[p];
    pbest_e[p] = energy(x[p]);
    ++result.evaluated;
    if (pbest_e[p] < result.best_energy) {
      result.best_energy = pbest_e[p];
      result.best = x[p];
    }
  }

  const auto sigmoid = [](double t) { return 1.0 / (1.0 + std::exp(-t)); };
  for (int it = 0; it < options.iterations; ++it) {
    for (int p = 0; p < np; ++p) {
      for (std::size_t d = 0; d < dim; ++d) {
        const double r1 = rng.uniform();
        const double r2 = rng.uniform();
        const double pb = pbest[p][d] ? 1.0 : 0.0;
        const double gb = result.best[d] ? 1.0 : 0.0;
        const double xd = x[p][d] ? 1.0 : 0.0;
        double vel = options.inertia * v[p][d] +
                     options.cognitive * r1 * (pb - xd) +
                     options.social * r2 * (gb - xd);
        vel = std::clamp(vel, -options.v_clamp, options.v_clamp);
        v[p][d] = vel;
        x[p][d] = rng.uniform() < sigmoid(vel);
      }
      const double e = energy(x[p]);
      ++result.evaluated;
      if (e < pbest_e[p]) {
        pbest_e[p] = e;
        pbest[p] = x[p];
      }
      if (e < result.best_energy) {
        result.best_energy = e;
        result.best = x[p];
      }
    }
  }
  return result;
}

}  // namespace femto::opt
