// Tiny 2x2 complex matrix utilities: just enough to Euler-decompose the
// inter-block basis-change differences that arise in interface merging.
#pragma once

#include <array>
#include <cmath>
#include <complex>

#include "common/assert.hpp"
#include "pauli/pauli_string.hpp"

namespace femto::synth {

using Complex = std::complex<double>;

/// Row-major 2x2 complex matrix.
struct Mat2 {
  std::array<Complex, 4> m{};

  [[nodiscard]] static Mat2 identity() { return {{1, 0, 0, 1}}; }
  [[nodiscard]] static Mat2 hadamard() {
    const double s = 1.0 / std::sqrt(2.0);
    return {{s, s, s, -s}};
  }
  [[nodiscard]] static Mat2 sdg_gate() { return {{1, 0, 0, Complex(0, -1)}}; }

  [[nodiscard]] friend Mat2 operator*(const Mat2& a, const Mat2& b) {
    Mat2 out;
    out.m[0] = a.m[0] * b.m[0] + a.m[1] * b.m[2];
    out.m[1] = a.m[0] * b.m[1] + a.m[1] * b.m[3];
    out.m[2] = a.m[2] * b.m[0] + a.m[3] * b.m[2];
    out.m[3] = a.m[2] * b.m[1] + a.m[3] * b.m[3];
    return out;
  }

  [[nodiscard]] Mat2 adjoint() const {
    return {{std::conj(m[0]), std::conj(m[2]), std::conj(m[1]),
             std::conj(m[3])}};
  }

  [[nodiscard]] Complex det() const { return m[0] * m[3] - m[1] * m[2]; }
};

/// Basis-change matrix V with V sigma V^dag = Z for sigma in {X, Y, Z}:
/// V_X = H, V_Y = H * Sdg (apply Sdg first, then H), V_Z = 1.
[[nodiscard]] inline Mat2 basis_change(pauli::Letter sigma) {
  switch (sigma) {
    case pauli::Letter::X: return Mat2::hadamard();
    case pauli::Letter::Y: return Mat2::hadamard() * Mat2::sdg_gate();
    case pauli::Letter::Z: return Mat2::identity();
    default: FEMTO_EXPECTS(false && "basis_change of identity"); return {};
  }
}

/// ZXZ Euler angles of a 2x2 unitary: U = e^{i phase} Rz(alpha) Rx(beta)
/// Rz(gamma), with Rz(t) = diag(e^{-it/2}, e^{it/2}) and
/// Rx(t) = cos(t/2) I - i sin(t/2) X.
struct EulerZXZ {
  double alpha = 0.0;
  double beta = 0.0;
  double gamma = 0.0;
  double phase = 0.0;
};

[[nodiscard]] inline EulerZXZ euler_zxz(const Mat2& u) {
  EulerZXZ e;
  // Normalize to SU(2).
  const Complex d = u.det();
  e.phase = 0.5 * std::arg(d);
  const Complex scale = std::exp(Complex(0, -e.phase));
  const Complex a = scale * u.m[0];  // cos(b/2) e^{-i(alpha+gamma)/2}
  const Complex c = scale * u.m[2];  // -i sin(b/2) e^{ i(alpha-gamma)/2}
  const double cos_half = std::abs(a);
  const double sin_half = std::abs(c);
  e.beta = 2.0 * std::atan2(sin_half, cos_half);
  if (cos_half > 1e-12 && sin_half > 1e-12) {
    const double sum = -2.0 * std::arg(a);            // alpha + gamma
    const double diff = 2.0 * (std::arg(c) + M_PI / 2);  // alpha - gamma
    e.alpha = 0.5 * (sum + diff);
    e.gamma = 0.5 * (sum - diff);
  } else if (sin_half <= 1e-12) {
    e.alpha = 0.0;
    e.gamma = -2.0 * std::arg(a);
  } else {
    e.alpha = 0.0;
    e.gamma = 2.0 * (std::arg(c) + M_PI / 2);
  }
  return e;
}

}  // namespace femto::synth
