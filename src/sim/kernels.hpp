// Stride-based two-level statevector kernels.
//
// Every kernel enumerates exactly the index groups it touches -- 2^(n-1)
// amplitude pairs for a single-qubit gate, 2^(n-2) quadruples for a
// two-qubit gate -- instead of scanning all 2^n basis indices and branching
// per index. The innermost loop is always a contiguous run, and the run
// bodies live in the `runs` namespace as plain loops the compiler
// vectorizes. Gates with structure get cheaper paths:
//   - diagonal gates fuse into one streaming multiply pass,
//   - anti-diagonal gates (X, Y) become scaled block swaps,
//   - real matrices (H, Ry) run on the interleaved double lanes,
//   - Pauli exponentials decompose into constant-phase sub-runs (the phase
//     parity of (i & z) is constant over aligned runs of 1 << ctz(z)
//     indices), so even the packed-mask kernels are straight-line loops
//     with no per-index popcount.
//
// BIT-IDENTITY CONTRACT: each run body computes, per element, exactly the
// bits of the std::complex expression its comment names, for the finite
// operands amplitudes are. A complex product's real part is spelled as a
// sum with a negated factor, re = ar*br + (-ai)*bi: IEEE 754 rounds
// x + (-y) exactly like x - y, so the bits are std::complex's. The
// spelling matters to the vectorizer: an add/sub lane mix is what GCC 12
// fuses into vfmaddsub under -march=x86-64-v3, and -ffp-contract=off (set
// by the build against plain FMA contraction) does not stop that fusion.
// With every lane an add, default and x86-64-v3 builds compute the same
// bytes; test_statevector_kernels' KernelBits tests pin them.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>

#include "common/assert.hpp"

namespace femto::sim::kernels {

using Complex = std::complex<double>;

// --- contiguous-run primitives --------------------------------------------
//
// All primitives take interleaved re/im doubles (or Complex*, same layout)
// and a run length in COMPLEX elements.

namespace runs {

/// A constant complex factor z that also keeps -imag(z), so the real part
/// of z * x is the sum re*xr + nim*xi (see the contract above).
struct Factor {
  double re, im, nim;
  explicit Factor(Complex z) : re(z.real()), im(z.imag()), nim(-z.imag()) {}
  [[nodiscard]] double real_times(double xr, double xi) const {
    return re * xr + nim * xi;
  }
  [[nodiscard]] double imag_times(double xr, double xi) const {
    return re * xi + im * xr;
  }
};

/// run *= (sr + i*si) over `count` complex values. si == 0 takes a
/// real-multiply fast path.
inline void scale(double* d, std::size_t count, double sr, double si) {
  if (si == 0.0) {
    for (std::size_t j = 0; j < 2 * count; ++j) d[j] *= sr;
    return;
  }
  const Factor f(Complex{sr, si});
  for (std::size_t j = 0; j < 2 * count; j += 2) {
    const double x = d[j], y = d[j + 1];
    d[j] = f.real_times(x, y);
    d[j + 1] = f.imag_times(x, y);
  }
}

/// Real 2x2 on interleaved double lanes: p0/p1 are runs of `len` doubles.
inline void real2x2(double* p0, double* p1, std::size_t len, double r00,
                    double r01, double r10, double r11) {
  for (std::size_t j = 0; j < len; ++j) {
    const double x0 = p0[j], x1 = p1[j];
    p0[j] = r00 * x0 + r01 * x1;
    p1[j] = r10 * x0 + r11 * x1;
  }
}

/// General complex 2x2: lo[i], hi[i] <- m00*lo[i]+m01*hi[i], m10*lo[i]+m11*hi[i].
inline void cmul2x2(Complex* lo, Complex* hi, std::size_t count, Complex m00,
                    Complex m01, Complex m10, Complex m11) {
  double* l = reinterpret_cast<double*>(lo);
  double* h = reinterpret_cast<double*>(hi);
  const Factor f00(m00), f01(m01), f10(m10), f11(m11);
  for (std::size_t j = 0; j < 2 * count; j += 2) {
    const double r0 = l[j], i0 = l[j + 1], r1 = h[j], i1 = h[j + 1];
    l[j] = f00.real_times(r0, i0) + f01.real_times(r1, i1);
    l[j + 1] = f00.imag_times(r0, i0) + f01.imag_times(r1, i1);
    h[j] = f10.real_times(r0, i0) + f11.real_times(r1, i1);
    h[j + 1] = f10.imag_times(r0, i0) + f11.imag_times(r1, i1);
  }
}

/// Anti-diagonal 2x2: lo[i] <- m01*hi[i], hi[i] <- m10*lo_old[i].
inline void cross_mul(Complex* lo, Complex* hi, std::size_t count, Complex m01,
                      Complex m10) {
  double* l = reinterpret_cast<double*>(lo);
  double* h = reinterpret_cast<double*>(hi);
  const Factor f01(m01), f10(m10);
  for (std::size_t j = 0; j < 2 * count; j += 2) {
    const double r0 = l[j], i0 = l[j + 1], r1 = h[j], i1 = h[j + 1];
    l[j] = f01.real_times(r1, i1);
    l[j + 1] = f01.imag_times(r1, i1);
    h[j] = f10.real_times(r0, i0);
    h[j + 1] = f10.imag_times(r0, i0);
  }
}

/// d[j] = -d[j] over `len` doubles (a sign-bit flip).
inline void negate(double* d, std::size_t len) {
  for (std::size_t j = 0; j < len; ++j) d[j] = -d[j];
}

/// Swap two contiguous runs of `count` complex values.
inline void swap(Complex* x, Complex* y, std::size_t count) {
  std::swap_ranges(x, x + count, y);
}

/// Two-plane rotation p <- c*p + u*q, q <- c*q + v*p_old (c real; the shape
/// of XX/XY rotations and general Pauli-exponential sub-runs).
inline void rot2(Complex* p, Complex* q, std::size_t count, double c,
                 Complex u, Complex v) {
  double* dp = reinterpret_cast<double*>(p);
  double* dq = reinterpret_cast<double*>(q);
  const Factor fu(u), fv(v);
  for (std::size_t j = 0; j < 2 * count; j += 2) {
    const double pr = dp[j], pi = dp[j + 1], qr = dq[j], qi = dq[j + 1];
    dp[j] = c * pr + fu.real_times(qr, qi);
    dp[j + 1] = c * pi + fu.imag_times(qr, qi);
    dq[j] = c * qr + fv.real_times(pr, pi);
    dq[j + 1] = c * qi + fv.imag_times(pr, pi);
  }
}

/// out[i] += w * src[i] over `count` complex values.
inline void axpy(Complex* out, const Complex* src, std::size_t count,
                 Complex w) {
  double* o = reinterpret_cast<double*>(out);
  const double* s = reinterpret_cast<const double*>(src);
  const Factor fw(w);
  for (std::size_t j = 0; j < 2 * count; j += 2) {
    const double sr = s[j], si = s[j + 1];
    o[j] += fw.real_times(sr, si);
    o[j + 1] += fw.imag_times(sr, si);
  }
}

}  // namespace runs

// --- single-qubit kernels -------------------------------------------------

/// Diagonal gate diag(d0, d1) on qubit q: one streaming multiply pass, no
/// pair loads (this is the "fused diagonal" path; Z/S/Sdg/Rz/CZ land here).
inline void apply_diag1(Complex* a, std::size_t dim, std::size_t q, Complex d0,
                        Complex d1) {
  const std::size_t bit = std::size_t{1} << q;
  const double r0 = d0.real(), i0 = d0.imag();
  const double r1 = d1.real(), i1 = d1.imag();
  const bool unit0 = r0 == 1.0 && i0 == 0.0;
  double* d = reinterpret_cast<double*>(a);
  for (std::size_t g = 0; g < dim; g += 2 * bit) {
    if (!unit0) runs::scale(d + 2 * g, bit, r0, i0);
    runs::scale(d + 2 * (g + bit), bit, r1, i1);
  }
}

/// Real 2x2 matrix on qubit q, applied on the interleaved double lanes
/// (re/im update identically under a real matrix).
inline void apply_real1(Complex* a, std::size_t dim, std::size_t q, double r00,
                        double r01, double r10, double r11) {
  const std::size_t bit = std::size_t{1} << q;
  double* d = reinterpret_cast<double*>(a);
  for (std::size_t g = 0; g < dim; g += 2 * bit)
    runs::real2x2(d + 2 * g, d + 2 * (g + bit), 2 * bit, r00, r01, r10, r11);
}

/// General 2x2 complex matrix on qubit q. Dispatches to the structured
/// paths when the matrix is diagonal, anti-diagonal or real.
inline void apply_matrix1(Complex* a, std::size_t dim, std::size_t q,
                          Complex m00, Complex m01, Complex m10, Complex m11) {
  const Complex zero{0.0, 0.0};
  if (m01 == zero && m10 == zero) {
    apply_diag1(a, dim, q, m00, m11);
    return;
  }
  const std::size_t bit = std::size_t{1} << q;
  if (m00 == zero && m11 == zero) {
    // Anti-diagonal (X, Y): a scaled swap of the two half-blocks.
    if (m01 == Complex{1.0, 0.0} && m10 == Complex{1.0, 0.0}) {
      for (std::size_t g = 0; g < dim; g += 2 * bit)
        runs::swap(a + g, a + g + bit, bit);
      return;
    }
    for (std::size_t g = 0; g < dim; g += 2 * bit)
      runs::cross_mul(a + g, a + g + bit, bit, m01, m10);
    return;
  }
  if (m00.imag() == 0.0 && m01.imag() == 0.0 && m10.imag() == 0.0 &&
      m11.imag() == 0.0) {
    apply_real1(a, dim, q, m00.real(), m01.real(), m10.real(), m11.real());
    return;
  }
  for (std::size_t g = 0; g < dim; g += 2 * bit)
    runs::cmul2x2(a + g, a + g + bit, bit, m00, m01, m10, m11);
}

// --- two-qubit kernels ----------------------------------------------------
//
// The two-qubit loops all share one shape: iterate base indices with both
// involved bits clear via three nested strides (above the high bit, between
// the bits, below the low bit); the innermost run of length min(bit_a,
// bit_b) is contiguous.

inline void apply_cnot(Complex* a, std::size_t dim, std::size_t c,
                       std::size_t t) {
  const std::size_t cb = std::size_t{1} << c;
  const std::size_t tb = std::size_t{1} << t;
  const std::size_t hb = std::max(cb, tb), lb = std::min(cb, tb);
  for (std::size_t g = 0; g < dim; g += 2 * hb)
    for (std::size_t h = g; h < g + hb; h += 2 * lb)
      runs::swap(a + (h | cb), a + (h | cb | tb), lb);
}

inline void apply_cz(Complex* a, std::size_t dim, std::size_t qa,
                     std::size_t qb) {
  const std::size_t ab = std::size_t{1} << qa;
  const std::size_t bb = std::size_t{1} << qb;
  const std::size_t hb = std::max(ab, bb), lb = std::min(ab, bb);
  for (std::size_t g = 0; g < dim; g += 2 * hb)
    for (std::size_t h = g; h < g + hb; h += 2 * lb)
      runs::negate(reinterpret_cast<double*>(a + (h | ab | bb)), 2 * lb);
}

inline void apply_swap(Complex* a, std::size_t dim, std::size_t qa,
                       std::size_t qb) {
  const std::size_t ab = std::size_t{1} << qa;
  const std::size_t bb = std::size_t{1} << qb;
  const std::size_t hb = std::max(ab, bb), lb = std::min(ab, bb);
  for (std::size_t g = 0; g < dim; g += 2 * hb)
    for (std::size_t h = g; h < g + hb; h += 2 * lb)
      runs::swap(a + (h | ab), a + (h | bb), lb);
}

/// exp(-i angle/2 X@X): two independent rotations per base index, inside
/// the {00,11} and {01,10} planes.
inline void apply_xxrot(Complex* a, std::size_t dim, std::size_t qa,
                        std::size_t qb, double angle) {
  const std::size_t ab = std::size_t{1} << qa;
  const std::size_t bb = std::size_t{1} << qb;
  const std::size_t hb = std::max(ab, bb), lb = std::min(ab, bb);
  const double c = std::cos(angle / 2), s = std::sin(angle / 2);
  const Complex mis{0.0, -s};
  for (std::size_t g = 0; g < dim; g += 2 * hb)
    for (std::size_t h = g; h < g + hb; h += 2 * lb) {
      runs::rot2(a + h, a + (h | ab | bb), lb, c, mis, mis);
      runs::rot2(a + (h | ab), a + (h | bb), lb, c, mis, mis);
    }
}

/// exp(-i angle/2 (X@X + Y@Y)): rotation inside the {01,10} subspace.
inline void apply_xyrot(Complex* a, std::size_t dim, std::size_t qa,
                        std::size_t qb, double angle) {
  const std::size_t ab = std::size_t{1} << qa;
  const std::size_t bb = std::size_t{1} << qb;
  const std::size_t hb = std::max(ab, bb), lb = std::min(ab, bb);
  const double c = std::cos(angle), s = std::sin(angle);
  const Complex mis{0.0, -s};
  for (std::size_t g = 0; g < dim; g += 2 * hb)
    for (std::size_t h = g; h < g + hb; h += 2 * lb)
      runs::rot2(a + (h | ab), a + (h | bb), lb, c, mis, mis);
}

// --- Pauli-string kernels -------------------------------------------------

/// Word-packed masks of a Pauli string (valid for n <= 64 qubits).
/// Letter action on |i>: X -> 1, Y -> i(-1)^bit, Z -> (-1)^bit, so
/// phase(i) = i^{#Y} * (-1)^{popcount(i & z)} (letter sign excluded; callers
/// fold it in).
struct PauliMasks {
  std::uint64_t x = 0;  // bit-flip mask (X and Y sites)
  std::uint64_t z = 0;  // phase mask (Z and Y sites)
  Complex y_factor{1.0, 0.0};  // i^{#Y}

  [[nodiscard]] Complex phase(std::uint64_t i) const {
    const bool minus = std::popcount(i & z) & 1;
    return minus ? -y_factor : y_factor;
  }
};

namespace detail {

/// Longest aligned run over which phase(i) is constant: the phase parity of
/// (i & z) cannot change while i varies below the lowest set bit of z.
[[nodiscard]] inline std::size_t phase_run(std::uint64_t z, std::size_t dim) {
  return z == 0 ? dim : (std::size_t{1} << std::countr_zero(z));
}

}  // namespace detail

/// exp(-i half P) with cos/sin precomputed by the caller (c = cos(half),
/// s = sin(half)). Pairs (i, i^x) are enumerated once each by pivoting on
/// the highest set bit of the flip mask; a pure-Z string degenerates to a
/// fused diagonal pass. Both paths decompose into constant-phase sub-runs
/// so the inner loops are the straight-line `runs` primitives -- the
/// per-element arithmetic matches the historical per-index loop exactly
/// (phase() is evaluated once per run at the run's base index, where it is
/// provably constant over the run).
inline void apply_pauli_exp(Complex* a, std::size_t dim, const PauliMasks& m,
                            double c, double s) {
  double* d = reinterpret_cast<double*>(a);
  if (m.x == 0) {
    // No Y sites either, so phase(i) = +-1 and the factor is e^{-+ i half}.
    const Complex even{c, -s}, odd{c, s};
    const std::uint64_t z = m.z;
    const std::size_t run = detail::phase_run(z, dim);
    for (std::size_t g = 0; g < dim; g += run) {
      const Complex f = (std::popcount(g & z) & 1) ? odd : even;
      runs::scale(d + 2 * g, run, f.real(), f.imag());
    }
    return;
  }
  const std::size_t pb = std::size_t{1}
                         << (std::bit_width(m.x) - 1);  // pivot bit
  const std::size_t flip = static_cast<std::size_t>(m.x);
  const Complex mis{0.0, -s};
  // Sub-run length: phases constant (below ctz(z)) AND the partner indices
  // j = i ^ flip contiguous (below ctz(flip)), capped at the pivot block.
  std::size_t sub = std::size_t{1} << std::countr_zero(flip);
  sub = std::min(sub, detail::phase_run(m.z, pb));
  sub = std::min(sub, pb);
  for (std::size_t g = 0; g < dim; g += 2 * pb) {
    for (std::size_t i = g; i < g + pb; i += sub) {
      const std::size_t j = i ^ flip;  // pivot set => j > i, visited once
      // L|i> = p_i |j>, L|j> = p_j |i>, with p_i p_j = 1.
      const Complex pi = m.phase(i);
      const Complex pj = m.phase(j);
      runs::rot2(a + i, a + j, sub, c, mis * pj, mis * pi);
    }
  }
}

/// out[j] += coeff * phase(j^x) * a[j^x]; iterated over the output index so
/// the scatter becomes a gather (and is safe to parallelize). Same sub-run
/// decomposition as apply_pauli_exp: over an aligned run below both ctz(x)
/// and ctz(z), the source indices are contiguous and the phase constant.
inline void accumulate_pauli(const Complex* a, std::size_t dim,
                             const PauliMasks& m, Complex coeff, Complex* out) {
  const std::size_t flip = static_cast<std::size_t>(m.x);
  std::size_t sub = detail::phase_run(m.z, dim);
  if (flip != 0)
    sub = std::min(sub, std::size_t{1} << std::countr_zero(flip));
  for (std::size_t j = 0; j < dim; j += sub) {
    const std::size_t i = j ^ flip;
    runs::axpy(out + j, a + i, sub, coeff * m.phase(i));
  }
}

}  // namespace femto::sim::kernels
