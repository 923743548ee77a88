// VQE driver: exact statevector energies, adjoint-state gradients, L-BFGS
// minimization, and the Fig. 1 ansatz-growth loop.
//
// The ansatz is |psi(theta)> = prod_k exp(theta_k G_k) |HF>, applied in the
// given order (first generator acts first). Generators are anti-Hermitian
// PauliSums whose strings mutually commute within one generator (true for
// UCCSD singles/doubles and for the compressed hybrid/bosonic forms), so
// each factor is applied exactly as a product of Pauli exponentials.
#pragma once

#include <functional>
#include <vector>

#include "pauli/pauli_sum.hpp"
#include "sim/statevector.hpp"

namespace femto::vqe {

struct VqeProblem {
  std::size_t num_qubits = 0;
  pauli::PauliSum hamiltonian;
  std::vector<pauli::PauliSum> generators;  // anti-Hermitian
  std::size_t reference_index = 0;          // computational-basis HF state
};

namespace detail {

/// Applies exp(theta * G) to the state (G anti-Hermitian with commuting
/// strings: each term i*a*L contributes exp(-i(-2a theta)/2 L)).
inline void apply_generator_exp(sim::StateVector& sv,
                                const pauli::PauliSum& g, double theta) {
  for (const pauli::PauliTerm& t : g.terms()) {
    FEMTO_EXPECTS(std::abs(t.coefficient.real()) < 1e-10);
    sv.apply_pauli_exp(t.string, -2.0 * t.coefficient.imag() * theta);
  }
}

/// out = G |in> (left-multiplication by the operator).
[[nodiscard]] inline std::vector<sim::Complex> apply_generator(
    const sim::StateVector& sv, const pauli::PauliSum& g) {
  return sv.apply_sum(g);
}

}  // namespace detail

/// |psi(theta)> for the given parameters.
[[nodiscard]] inline sim::StateVector prepare_state(
    const VqeProblem& prob, const std::vector<double>& theta) {
  FEMTO_EXPECTS(theta.size() == prob.generators.size());
  sim::StateVector sv =
      sim::StateVector::basis_state(prob.num_qubits, prob.reference_index);
  for (std::size_t k = 0; k < prob.generators.size(); ++k)
    detail::apply_generator_exp(sv, prob.generators[k], theta[k]);
  return sv;
}

[[nodiscard]] inline double energy(const VqeProblem& prob,
                                   const std::vector<double>& theta) {
  return prepare_state(prob, theta).expectation(prob.hamiltonian).real();
}

/// Energy and exact gradient via one adjoint sweep:
/// dE/dtheta_k = 2 Re <lambda_k| G_k |phi_k>.
[[nodiscard]] inline double energy_and_gradient(const VqeProblem& prob,
                                                const std::vector<double>& theta,
                                                std::vector<double>& grad) {
  const std::size_t m = prob.generators.size();
  grad.assign(m, 0.0);
  sim::StateVector phi = prepare_state(prob, theta);
  sim::StateVector lambda(prob.num_qubits);
  lambda.amplitudes() = phi.apply_sum(prob.hamiltonian);
  const double e = [&] {
    sim::Complex acc{0, 0};
    for (std::size_t i = 0; i < phi.dim(); ++i)
      acc += std::conj(phi.amplitude(i)) * lambda.amplitude(i);
    return acc.real();
  }();
  for (std::size_t k = m; k-- > 0;) {
    // grad_k = 2 Re <lambda| G_k |phi>   (phi currently = U_k ... U_0 |HF>).
    const auto gphi = detail::apply_generator(phi, prob.generators[k]);
    sim::Complex acc{0, 0};
    for (std::size_t i = 0; i < phi.dim(); ++i)
      acc += std::conj(lambda.amplitude(i)) * gphi[i];
    grad[k] = 2.0 * acc.real();
    // Retract both states by U_k^dag.
    detail::apply_generator_exp(phi, prob.generators[k], -theta[k]);
    detail::apply_generator_exp(lambda, prob.generators[k], -theta[k]);
  }
  return e;
}

struct OptimizerOptions {
  int max_iterations = 300;
  double gradient_tolerance = 1e-7;
  int history = 8;            // L-BFGS memory
  double armijo_c1 = 1e-4;
  int max_line_search = 30;
};

struct OptimizeResult {
  double energy = 0.0;
  std::vector<double> theta;
  int iterations = 0;
  bool converged = false;
};

/// L-BFGS with two-loop recursion and Armijo backtracking.
[[nodiscard]] inline OptimizeResult minimize_energy(
    const VqeProblem& prob, std::vector<double> theta,
    const OptimizerOptions& options = {}) {
  const std::size_t m = theta.size();
  OptimizeResult result;
  std::vector<double> grad;
  double e = energy_and_gradient(prob, theta, grad);
  std::vector<std::vector<double>> s_hist, y_hist;
  std::vector<double> rho_hist;

  for (int it = 0; it < options.max_iterations; ++it) {
    result.iterations = it + 1;
    double gnorm = 0;
    for (double g : grad) gnorm = std::max(gnorm, std::abs(g));
    if (gnorm < options.gradient_tolerance) {
      result.converged = true;
      break;
    }
    // Two-loop recursion for the search direction d = -H grad.
    std::vector<double> q = grad;
    std::vector<double> alpha_hist(s_hist.size());
    for (std::size_t h = s_hist.size(); h-- > 0;) {
      double sq = 0;
      for (std::size_t i = 0; i < m; ++i) sq += s_hist[h][i] * q[i];
      alpha_hist[h] = rho_hist[h] * sq;
      for (std::size_t i = 0; i < m; ++i) q[i] -= alpha_hist[h] * y_hist[h][i];
    }
    double scale = 1.0;
    if (!s_hist.empty()) {
      double sy = 0, yy = 0;
      const auto& s = s_hist.back();
      const auto& y = y_hist.back();
      for (std::size_t i = 0; i < m; ++i) {
        sy += s[i] * y[i];
        yy += y[i] * y[i];
      }
      if (yy > 1e-300) scale = sy / yy;
    }
    for (double& v : q) v *= scale;
    for (std::size_t h = 0; h < s_hist.size(); ++h) {
      double yq = 0;
      for (std::size_t i = 0; i < m; ++i) yq += y_hist[h][i] * q[i];
      const double b = rho_hist[h] * yq;
      for (std::size_t i = 0; i < m; ++i)
        q[i] += (alpha_hist[h] - b) * s_hist[h][i];
    }
    std::vector<double> dir(m);
    double dg = 0;
    for (std::size_t i = 0; i < m; ++i) {
      dir[i] = -q[i];
      dg += dir[i] * grad[i];
    }
    if (dg > 0) {  // not a descent direction: reset to steepest descent
      for (std::size_t i = 0; i < m; ++i) dir[i] = -grad[i];
      dg = 0;
      for (std::size_t i = 0; i < m; ++i) dg += dir[i] * grad[i];
      s_hist.clear();
      y_hist.clear();
      rho_hist.clear();
    }
    // Armijo backtracking.
    double step = 1.0;
    std::vector<double> theta_new(m);
    double e_new = e;
    bool accepted = false;
    for (int ls = 0; ls < options.max_line_search; ++ls, step *= 0.5) {
      for (std::size_t i = 0; i < m; ++i)
        theta_new[i] = theta[i] + step * dir[i];
      e_new = energy(prob, theta_new);
      if (e_new <= e + options.armijo_c1 * step * dg) {
        accepted = true;
        break;
      }
    }
    if (!accepted) break;  // line search failed: stationary enough
    std::vector<double> grad_new;
    const double e_check = energy_and_gradient(prob, theta_new, grad_new);
    (void)e_check;
    // Update history.
    std::vector<double> s(m), y(m);
    double sy = 0;
    for (std::size_t i = 0; i < m; ++i) {
      s[i] = theta_new[i] - theta[i];
      y[i] = grad_new[i] - grad[i];
      sy += s[i] * y[i];
    }
    if (sy > 1e-12) {
      s_hist.push_back(std::move(s));
      y_hist.push_back(std::move(y));
      rho_hist.push_back(1.0 / sy);
      if (s_hist.size() > static_cast<std::size_t>(options.history)) {
        s_hist.erase(s_hist.begin());
        y_hist.erase(y_hist.begin());
        rho_hist.erase(rho_hist.begin());
      }
    }
    theta = std::move(theta_new);
    grad = std::move(grad_new);
    e = e_new;
  }
  result.energy = e;
  result.theta = std::move(theta);
  return result;
}

/// Fig. 1 growth loop: optimize with 1, 2, ..., M terms (warm-started),
/// recording the converged energy at each size.
struct GrowthPoint {
  std::size_t num_terms = 0;
  double energy = 0.0;
};

/// HMP2-style adaptive term selection (paper Box 2 / [9]): at each cycle,
/// the next term is the candidate with the largest energy-gradient magnitude
/// |<psi| [H, G] |psi>| at the current optimized state -- the leading
/// second-order-perturbation-theory importance measure. Returns the chosen
/// candidate indices in selection order.
[[nodiscard]] inline std::vector<std::size_t> hmp2_adaptive_selection(
    std::size_t num_qubits, const pauli::PauliSum& hamiltonian,
    const std::vector<pauli::PauliSum>& candidates,
    std::size_t reference_index, std::size_t max_terms,
    const OptimizerOptions& options = {}) {
  std::vector<std::size_t> chosen;
  std::vector<bool> used(candidates.size(), false);
  std::vector<double> theta;
  VqeProblem prob;
  prob.num_qubits = num_qubits;
  prob.hamiltonian = hamiltonian;
  prob.reference_index = reference_index;
  for (std::size_t m = 0; m < max_terms && m < candidates.size(); ++m) {
    const sim::StateVector psi = prepare_state(prob, theta);
    const std::vector<sim::Complex> hpsi = psi.apply_sum(hamiltonian);
    double best = -1.0;
    std::size_t best_k = candidates.size();
    for (std::size_t k = 0; k < candidates.size(); ++k) {
      if (used[k]) continue;
      // d/dtheta <psi| e^{-tG} H e^{tG} |psi> at t=0: 2 Re <H psi | G psi>.
      const std::vector<sim::Complex> gpsi = psi.apply_sum(candidates[k]);
      sim::Complex acc{0, 0};
      for (std::size_t i = 0; i < gpsi.size(); ++i)
        acc += std::conj(hpsi[i]) * gpsi[i];
      const double grad = std::abs(2.0 * acc.real());
      if (grad > best) {
        best = grad;
        best_k = k;
      }
    }
    if (best_k == candidates.size() || best < 1e-10) break;
    used[best_k] = true;
    chosen.push_back(best_k);
    prob.generators.push_back(candidates[best_k]);
    theta.push_back(0.0);
    const OptimizeResult res = minimize_energy(prob, theta, options);
    theta = res.theta;
  }
  return chosen;
}

[[nodiscard]] inline std::vector<GrowthPoint> growth_curve(
    std::size_t num_qubits, const pauli::PauliSum& hamiltonian,
    const std::vector<pauli::PauliSum>& ordered_generators,
    std::size_t reference_index, std::size_t max_terms,
    const OptimizerOptions& options = {}) {
  std::vector<GrowthPoint> curve;
  std::vector<double> theta;
  for (std::size_t mm = 1; mm <= max_terms && mm <= ordered_generators.size();
       ++mm) {
    VqeProblem prob;
    prob.num_qubits = num_qubits;
    prob.hamiltonian = hamiltonian;
    prob.generators.assign(ordered_generators.begin(),
                           ordered_generators.begin() +
                               static_cast<std::ptrdiff_t>(mm));
    prob.reference_index = reference_index;
    theta.push_back(0.0);  // warm start: previous solution + zero
    const OptimizeResult res = minimize_energy(prob, theta, options);
    theta = res.theta;
    curve.push_back({mm, res.energy});
  }
  return curve;
}

}  // namespace femto::vqe
