// Statevector simulator.
//
// Little-endian convention: qubit q is bit q of the basis index. Supports
// every femto gate, direct Pauli-string exponentials (for fast exact ansatz
// application), PauliSum expectation values and H|psi> products (for VQE
// energies, adjoint gradients and Lanczos).
//
// Gate application is delegated to the stride-based kernels in
// sim/kernels.hpp: pairs are enumerated directly (no branch-in-loop over all
// 2^n indices), diagonal gates fuse into streaming passes, and consecutive
// diagonal gates on one qubit collapse into a single pass in apply_circuit.
#pragma once

#include <complex>
#include <span>
#include <utility>
#include <vector>

#include "circuit/quantum_circuit.hpp"
#include "pauli/pauli_sum.hpp"
#include "sim/kernels.hpp"

namespace femto::sim {

using Complex = std::complex<double>;

namespace detail {

[[nodiscard]] inline double resolved_angle(const circuit::Gate& g,
                                           std::span<const double> params) {
  return g.param >= 0 ? g.angle * params[static_cast<std::size_t>(g.param)]
                      : g.angle;
}

[[nodiscard]] inline bool is_diag1(circuit::GateKind k) {
  using circuit::GateKind;
  return k == GateKind::kZ || k == GateKind::kS || k == GateKind::kSdg ||
         k == GateKind::kRz;
}

/// Diagonal (d0, d1) of a single-qubit diagonal gate.
[[nodiscard]] inline std::pair<Complex, Complex> diag_of(
    const circuit::Gate& g, std::span<const double> params) {
  using circuit::GateKind;
  const Complex i_unit{0.0, 1.0};
  switch (g.kind) {
    case GateKind::kZ: return {{1.0, 0.0}, {-1.0, 0.0}};
    case GateKind::kS: return {{1.0, 0.0}, i_unit};
    case GateKind::kSdg: return {{1.0, 0.0}, -i_unit};
    case GateKind::kRz: {
      const double half = resolved_angle(g, params) / 2;
      return {std::exp(-i_unit * half), std::exp(i_unit * half)};
    }
    default: FEMTO_EXPECTS(false && "not a single-qubit diagonal gate");
  }
  return {{1.0, 0.0}, {1.0, 0.0}};
}

/// Packed masks of a string (n <= 64).
[[nodiscard]] inline kernels::PauliMasks make_masks(
    const pauli::PauliString& p) {
  FEMTO_EXPECTS(p.num_qubits() <= 64);
  kernels::PauliMasks m;
  m.x = p.x().mask64();
  m.z = p.z().mask64();
  switch (std::popcount(m.x & m.z) & 3) {
    case 1: m.y_factor = Complex(0, 1); break;
    case 2: m.y_factor = Complex(-1, 0); break;
    case 3: m.y_factor = Complex(0, -1); break;
    default: break;
  }
  return m;
}

/// Applies one gate to a raw amplitude array of size `dim`.
inline void apply_gate_raw(Complex* a, std::size_t dim, const circuit::Gate& g,
                           std::span<const double> params) {
  using circuit::GateKind;
  const std::size_t q0 = g.q0;
  const std::size_t q1 = g.q1;
  FEMTO_EXPECTS((std::size_t{1} << q0) < dim);
  const double angle = detail::resolved_angle(g, params);
  const double half = angle / 2;
  const Complex i_unit{0.0, 1.0};
  if (is_diag1(g.kind)) {
    const auto [d0, d1] = diag_of(g, params);
    kernels::apply_diag1(a, dim, q0, d0, d1);
    return;
  }
  switch (g.kind) {
    case GateKind::kX: kernels::apply_matrix1(a, dim, q0, 0, 1, 1, 0); break;
    case GateKind::kY:
      kernels::apply_matrix1(a, dim, q0, 0, -i_unit, i_unit, 0);
      break;
    case GateKind::kH: {
      const double s = 1.0 / std::sqrt(2.0);
      kernels::apply_matrix1(a, dim, q0, s, s, s, -s);
      break;
    }
    case GateKind::kRx:
      kernels::apply_matrix1(a, dim, q0, std::cos(half),
                             -i_unit * std::sin(half),
                             -i_unit * std::sin(half), std::cos(half));
      break;
    case GateKind::kRy:
      kernels::apply_matrix1(a, dim, q0, std::cos(half), -std::sin(half),
                             std::sin(half), std::cos(half));
      break;
    case GateKind::kCnot: kernels::apply_cnot(a, dim, q0, q1); break;
    case GateKind::kCz: kernels::apply_cz(a, dim, q0, q1); break;
    case GateKind::kSwap: kernels::apply_swap(a, dim, q0, q1); break;
    case GateKind::kXXrot: kernels::apply_xxrot(a, dim, q0, q1, angle); break;
    case GateKind::kXYrot: kernels::apply_xyrot(a, dim, q0, q1, angle); break;
    case GateKind::kZ:
    case GateKind::kS:
    case GateKind::kSdg:
    case GateKind::kRz: break;  // handled by the diagonal path above
  }
}

/// Applies a whole circuit, fusing runs of consecutive single-qubit diagonal
/// gates on one qubit into a single streaming pass.
inline void apply_circuit_raw(Complex* a, std::size_t dim,
                              const circuit::QuantumCircuit& c,
                              std::span<const double> params) {
  const auto& gates = c.gates();
  for (std::size_t k = 0; k < gates.size(); ++k) {
    const circuit::Gate& g = gates[k];
    if (is_diag1(g.kind)) {
      auto [d0, d1] = diag_of(g, params);
      while (k + 1 < gates.size() && is_diag1(gates[k + 1].kind) &&
             gates[k + 1].q0 == g.q0) {
        ++k;
        const auto [e0, e1] = diag_of(gates[k], params);
        d0 *= e0;
        d1 *= e1;
      }
      kernels::apply_diag1(a, dim, g.q0, d0, d1);
      continue;
    }
    apply_gate_raw(a, dim, g, params);
  }
}

}  // namespace detail

class StateVector {
 public:
  explicit StateVector(std::size_t n)
      : n_(n), amps_(std::size_t{1} << n, Complex{0.0, 0.0}) {
    FEMTO_EXPECTS(n <= 28);
    amps_[0] = 1.0;
  }

  /// Computational basis state |index>.
  [[nodiscard]] static StateVector basis_state(std::size_t n,
                                               std::size_t index) {
    StateVector sv(n);
    FEMTO_EXPECTS(index < sv.amps_.size());
    sv.amps_[0] = 0.0;
    sv.amps_[index] = 1.0;
    return sv;
  }

  [[nodiscard]] std::size_t num_qubits() const { return n_; }
  [[nodiscard]] std::size_t dim() const { return amps_.size(); }
  [[nodiscard]] const std::vector<Complex>& amplitudes() const { return amps_; }
  [[nodiscard]] std::vector<Complex>& amplitudes() { return amps_; }
  [[nodiscard]] Complex amplitude(std::size_t i) const { return amps_[i]; }

  // --- single-qubit and two-qubit gates -------------------------------

  void apply_matrix1(std::size_t q, Complex m00, Complex m01, Complex m10,
                     Complex m11) {
    FEMTO_EXPECTS(q < n_);
    kernels::apply_matrix1(amps_.data(), amps_.size(), q, m00, m01, m10, m11);
  }

  /// Diagonal gate diag(d0, d1) on qubit q (single streaming pass).
  void apply_diag1(std::size_t q, Complex d0, Complex d1) {
    FEMTO_EXPECTS(q < n_);
    kernels::apply_diag1(amps_.data(), amps_.size(), q, d0, d1);
  }

  void apply_cnot(std::size_t c, std::size_t t) {
    FEMTO_EXPECTS(c < n_ && t < n_ && c != t);
    kernels::apply_cnot(amps_.data(), amps_.size(), c, t);
  }

  void apply_cz(std::size_t a, std::size_t b) {
    FEMTO_EXPECTS(a < n_ && b < n_ && a != b);
    kernels::apply_cz(amps_.data(), amps_.size(), a, b);
  }

  void apply_swap(std::size_t a, std::size_t b) {
    FEMTO_EXPECTS(a < n_ && b < n_ && a != b);
    kernels::apply_swap(amps_.data(), amps_.size(), a, b);
  }

  /// exp(-i angle/2 X@X).
  void apply_xxrot(std::size_t a, std::size_t b, double angle) {
    FEMTO_EXPECTS(a < n_ && b < n_ && a != b);
    kernels::apply_xxrot(amps_.data(), amps_.size(), a, b, angle);
  }

  /// exp(-i angle/2 (X@X + Y@Y)): rotation inside the {01,10} subspace.
  void apply_xyrot(std::size_t a, std::size_t b, double angle) {
    FEMTO_EXPECTS(a < n_ && b < n_ && a != b);
    kernels::apply_xyrot(amps_.data(), amps_.size(), a, b, angle);
  }

  // --- circuits --------------------------------------------------------

  void apply_gate(const circuit::Gate& g,
                  std::span<const double> params = {}) {
    FEMTO_EXPECTS(g.q0 < n_ && (!g.two_qubit() || g.q1 < n_));
    detail::apply_gate_raw(amps_.data(), amps_.size(), g, params);
  }

  void apply_circuit(const circuit::QuantumCircuit& c,
                     std::span<const double> params = {}) {
    FEMTO_EXPECTS(c.num_qubits() <= n_);
    detail::apply_circuit_raw(amps_.data(), amps_.size(), c, params);
  }

  // --- Pauli strings ---------------------------------------------------

  /// exp(-i angle/2 P) for a Hermitian string P (letter sign +-1 folded in).
  void apply_pauli_exp(const pauli::PauliString& p, double angle) {
    FEMTO_EXPECTS(p.num_qubits() == n_);
    FEMTO_EXPECTS(p.is_hermitian());
    const double sgn = p.sign().real();
    const double half = sgn * angle / 2;
    kernels::apply_pauli_exp(amps_.data(), amps_.size(), detail::make_masks(p),
                             std::cos(half), std::sin(half));
  }

  /// out += coeff * P |this>.
  void accumulate_pauli(const pauli::PauliString& p, Complex coeff,
                        std::vector<Complex>& out) const {
    FEMTO_EXPECTS(out.size() == amps_.size());
    kernels::accumulate_pauli(amps_.data(), amps_.size(), detail::make_masks(p),
                              coeff * p.sign(), out.data());
  }

  /// H |this> for a PauliSum H.
  [[nodiscard]] std::vector<Complex> apply_sum(const pauli::PauliSum& h) const {
    std::vector<Complex> out(amps_.size(), Complex{0.0, 0.0});
    for (const pauli::PauliTerm& t : h.terms())
      accumulate_pauli(t.string, t.coefficient, out);
    return out;
  }

  /// <this| H |this>.
  [[nodiscard]] Complex expectation(const pauli::PauliSum& h) const {
    const std::vector<Complex> hpsi = apply_sum(h);
    Complex acc{0.0, 0.0};
    for (std::size_t i = 0; i < amps_.size(); ++i)
      acc += std::conj(amps_[i]) * hpsi[i];
    return acc;
  }

  [[nodiscard]] Complex inner(const StateVector& other) const {
    FEMTO_EXPECTS(other.dim() == dim());
    Complex acc{0.0, 0.0};
    for (std::size_t i = 0; i < amps_.size(); ++i)
      acc += std::conj(amps_[i]) * other.amps_[i];
    return acc;
  }

  [[nodiscard]] double norm() const {
    double acc = 0.0;
    for (const Complex& a : amps_) acc += std::norm(a);
    return std::sqrt(acc);
  }

  void normalize() {
    const double n = norm();
    FEMTO_EXPECTS(n > 0);
    for (Complex& a : amps_) a /= n;
  }

 private:
  std::size_t n_;
  std::vector<Complex> amps_;
};

}  // namespace femto::sim
