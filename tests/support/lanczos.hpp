// Lanczos ground-state solver on the full qubit space.
//
// Provides exact reference energies for PauliSum Hamiltonians; cross-checked
// against the determinant-basis FCI solver in chem/ (two independent code
// paths arriving at the same ground-state energy is one of the strongest
// integration tests in the suite).
//
// Test-only: nothing in src/ includes this file.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "sim/statevector.hpp"

namespace femto::oracle {

using sim::Complex;
using sim::StateVector;

struct LanczosResult {
  double ground_energy = 0.0;
  int iterations = 0;
  bool converged = false;
};

/// Smallest eigenvalue of a (real-spectrum) symmetric tridiagonal matrix via
/// bisection with Sturm sequences.
[[nodiscard]] inline double tridiag_min_eig(const std::vector<double>& alpha,
                                            const std::vector<double>& beta) {
  const std::size_t m = alpha.size();
  FEMTO_EXPECTS(m > 0);
  // Gershgorin bounds.
  double lo = alpha[0], hi = alpha[0];
  for (std::size_t i = 0; i < m; ++i) {
    const double b1 = i > 0 ? std::abs(beta[i - 1]) : 0.0;
    const double b2 = i + 1 < m ? std::abs(beta[i]) : 0.0;
    lo = std::min(lo, alpha[i] - b1 - b2);
    hi = std::max(hi, alpha[i] + b1 + b2);
  }
  // Count of eigenvalues < x via the Sturm sequence.
  const auto count_below = [&](double x) {
    int count = 0;
    double d = 1.0;
    for (std::size_t i = 0; i < m; ++i) {
      const double b2 = i > 0 ? beta[i - 1] * beta[i - 1] : 0.0;
      d = alpha[i] - x - (d != 0.0 ? b2 / d : b2 / 1e-300);
      if (d < 0) ++count;
    }
    return count;
  };
  for (int it = 0; it < 200 && hi - lo > 1e-13 * std::max(1.0, std::abs(lo));
       ++it) {
    const double mid = 0.5 * (lo + hi);
    if (count_below(mid) >= 1)
      hi = mid;
    else
      lo = mid;
  }
  return 0.5 * (lo + hi);
}

/// Lanczos iteration for the minimum eigenvalue of H (PauliSum) with full
/// reorthogonalization (robust for the modest dimensions used here).
[[nodiscard]] inline LanczosResult lanczos_ground_energy(
    const pauli::PauliSum& h, std::size_t num_qubits, int max_iter = 200,
    double tol = 1e-10, Rng* rng = nullptr) {
  const std::size_t dim = std::size_t{1} << num_qubits;
  Rng local_rng(12345);
  Rng& r = rng != nullptr ? *rng : local_rng;

  StateVector v(num_qubits);
  for (std::size_t i = 0; i < dim; ++i)
    v.amplitudes()[i] = Complex(r.normal(), r.normal());
  v.normalize();

  std::vector<std::vector<Complex>> basis;
  std::vector<double> alpha, beta;
  LanczosResult result;
  double prev = 1e300;

  for (int it = 0; it < max_iter; ++it) {
    basis.push_back(v.amplitudes());
    std::vector<Complex> w = v.apply_sum(h);
    // alpha_k = <v, w>
    Complex a{0, 0};
    for (std::size_t i = 0; i < dim; ++i)
      a += std::conj(v.amplitudes()[i]) * w[i];
    alpha.push_back(a.real());
    // Full reorthogonalization against all previous basis vectors, twice:
    // a single classical Gram-Schmidt pass leaves residual overlaps that
    // break the Rayleigh-Ritz bound near convergence ("twice is enough").
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& u : basis) {
        Complex proj{0, 0};
        for (std::size_t i = 0; i < dim; ++i) proj += std::conj(u[i]) * w[i];
        for (std::size_t i = 0; i < dim; ++i) w[i] -= proj * u[i];
      }
    }
    double nb = 0.0;
    for (const Complex& c : w) nb += std::norm(c);
    nb = std::sqrt(nb);
    const double energy = tridiag_min_eig(alpha, beta);
    result.ground_energy = energy;
    result.iterations = it + 1;
    if (std::abs(energy - prev) < tol || nb < 1e-12) {
      result.converged = true;
      break;
    }
    prev = energy;
    beta.push_back(nb);
    for (std::size_t i = 0; i < dim; ++i) v.amplitudes()[i] = w[i] / nb;
  }
  return result;
}

}  // namespace femto::oracle
