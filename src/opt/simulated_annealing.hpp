// Generic simulated annealing (paper Sec. III-C).
//
// Metropolis-Hastings sampling of pi(x) ~ exp(-f(x)/T) with geometric
// cooling; the best state ever visited is returned (not merely the final
// one). The paper uses SA to search block-diagonal Gamma matrices; the same
// engine drives ablation baselines.
#pragma once

#include <cmath>
#include <functional>
#include <utility>

#include "common/rng.hpp"

namespace femto::opt {

struct SaOptions {
  double t_initial = 2.0;
  double t_final = 0.01;
  int steps = 2000;
  /// Restarts from the best-so-far when a proposal chain drifts; 0 disables.
  int reheat_interval = 0;
};

template <typename State>
struct SaResult {
  State best;
  double best_energy = 0.0;
  int accepted = 0;
  int evaluated = 0;
};

/// Minimizes `energy` over states reachable from `init` via `propose`.
/// `propose(state, rng)` returns a candidate neighbor (it must not mutate its
/// input).
template <typename State>
[[nodiscard]] SaResult<State> simulated_annealing(
    State init, const std::function<double(const State&)>& energy,
    const std::function<State(const State&, Rng&)>& propose, Rng& rng,
    const SaOptions& options = {}) {
  FEMTO_EXPECTS(options.steps > 0);
  FEMTO_EXPECTS(options.t_initial > 0 && options.t_final > 0);
  State current = std::move(init);
  double current_energy = energy(current);
  SaResult<State> result{current, current_energy, 0, 1};
  const double cool =
      std::pow(options.t_final / options.t_initial,
               1.0 / static_cast<double>(options.steps));
  double t = options.t_initial;
  for (int step = 0; step < options.steps; ++step, t *= cool) {
    State candidate = propose(current, rng);
    const double e = energy(candidate);
    ++result.evaluated;
    const double delta = e - current_energy;
    if (delta <= 0 || rng.uniform() < std::exp(-delta / t)) {
      current = std::move(candidate);
      current_energy = e;
      ++result.accepted;
      if (e < result.best_energy) {
        result.best = current;
        result.best_energy = e;
      }
    }
    if (options.reheat_interval > 0 && step > 0 &&
        step % options.reheat_interval == 0) {
      current = result.best;
      current_energy = result.best_energy;
    }
  }
  return result;
}

}  // namespace femto::opt
