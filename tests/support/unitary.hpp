// Unitary extraction and equivalence checking for small circuits.
//
// Used by tests to prove that synthesized/optimized circuits implement the
// same unitary as reference constructions, up to global phase.
//
// Test-only: nothing in src/ includes this file.
#pragma once

#include <vector>

#include "sim/statevector.hpp"

namespace femto::oracle {

using sim::Complex;
using sim::StateVector;

/// Column-major unitary of a circuit: column k = circuit applied to |k>.
[[nodiscard]] inline std::vector<std::vector<Complex>> circuit_unitary(
    const circuit::QuantumCircuit& c, std::span<const double> params = {}) {
  FEMTO_EXPECTS(c.num_qubits() <= 12);
  const std::size_t dim = std::size_t{1} << c.num_qubits();
  std::vector<std::vector<Complex>> u(dim);
  for (std::size_t k = 0; k < dim; ++k) {
    StateVector sv = StateVector::basis_state(c.num_qubits(), k);
    sv.apply_circuit(c, params);
    u[k] = sv.amplitudes();
  }
  return u;
}

/// Max |U1 - e^{i phi} U2| entrywise, with phi chosen from the largest
/// entry of U1. Returns a large value when shapes differ.
[[nodiscard]] inline double unitary_distance_up_to_phase(
    const std::vector<std::vector<Complex>>& u1,
    const std::vector<std::vector<Complex>>& u2) {
  if (u1.size() != u2.size()) return 1e9;
  // Find the largest-magnitude entry of u1 to fix the relative phase.
  std::size_t bc = 0, br = 0;
  double best = -1.0;
  for (std::size_t c = 0; c < u1.size(); ++c)
    for (std::size_t r = 0; r < u1[c].size(); ++r)
      if (std::abs(u1[c][r]) > best) {
        best = std::abs(u1[c][r]);
        bc = c;
        br = r;
      }
  if (best < 1e-12 || std::abs(u2[bc][br]) < 1e-12) return 1e9;
  const Complex phase = u1[bc][br] / u2[bc][br] /
                        std::abs(u1[bc][br] / u2[bc][br]);
  double dist = 0.0;
  for (std::size_t c = 0; c < u1.size(); ++c) {
    if (u1[c].size() != u2[c].size()) return 1e9;
    for (std::size_t r = 0; r < u1[c].size(); ++r)
      dist = std::max(dist, std::abs(u1[c][r] - phase * u2[c][r]));
  }
  return dist;
}

/// Convenience: do two circuits implement the same unitary up to phase?
[[nodiscard]] inline bool circuits_equivalent(
    const circuit::QuantumCircuit& a, const circuit::QuantumCircuit& b,
    std::span<const double> params = {}, double tol = 1e-9) {
  return unitary_distance_up_to_phase(circuit_unitary(a, params),
                                      circuit_unitary(b, params)) < tol;
}

}  // namespace femto::oracle
