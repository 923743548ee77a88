// Stride-based two-level statevector kernels.
//
// Every kernel enumerates exactly the index groups it touches -- 2^(n-1)
// amplitude pairs for a single-qubit gate, 2^(n-2) quadruples for a
// two-qubit gate -- instead of scanning all 2^n basis indices and branching
// per index. The innermost loop is always a contiguous run, and the run
// bodies live in the `runs` namespace as SIMD-dispatched primitives with
// three levels (common/simd.hpp): a portable scalar loop (the reference
// semantics), AVX2, and AVX-512. Gates with structure get cheaper paths:
//   - diagonal gates fuse into one streaming multiply pass,
//   - anti-diagonal gates (X, Y) become scaled block swaps,
//   - real matrices (H, Ry) run on the interleaved double lanes,
//   - Pauli exponentials decompose into constant-phase sub-runs (the phase
//     parity of (i & z) is constant over aligned runs of 1 << ctz(z)
//     indices), so even the packed-mask kernels are straight-line vector
//     code with no per-index popcount.
//
// BIT-IDENTITY CONTRACT (the PR-5 rule, extended to SIMD): every dispatch
// level performs the identical floating-point operations in the identical
// order *per element* -- vector paths reorder work across independent
// elements only, never within one element's arithmetic. Concretely: complex
// multiplies expand to the same mul/sub/add trees as std::complex
// operator*, negation is a sign-bit flip at every level, and the build sets
// -ffp-contract=off so no FMA contraction can change rounding between
// levels. tests/test_simd.cpp pins byte-equality of the amplitudes across
// all levels for every gate kind, and bench_statevector re-checks it in CI
// (simd_bit_identical == 1).
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>

#include "common/assert.hpp"
#include "common/simd.hpp"

#if FEMTO_SIMD_X86
#include <immintrin.h>
#endif

namespace femto::sim::kernels {

using Complex = std::complex<double>;

// --- contiguous-run primitives --------------------------------------------
//
// All primitives take interleaved re/im doubles (or Complex*, same layout)
// and a run length in COMPLEX elements. The portable loops are the
// semantics; the AVX2/AVX-512 bodies compute the same per-element op trees
// across 2/4 complex lanes and finish odd tails with the portable code.

namespace runs {

namespace detail {

// Portable bodies. These define the op order every level must match:
//   complex * complex  ->  (ar*br - ai*bi, ar*bi + ai*br)   [std::complex]
//   double  * complex  ->  (c*br, c*bi)                      [real scale]
//   -x                 ->  sign-bit flip on both components.
//
// They are deliberately noinline: inlined into a target("avx512...") sibling
// as the odd-tail fallback, GCC auto-vectorizes the complex-multiply shape
// into vfmaddsub -- and that ADDSUB fusion ignores -ffp-contract=off (the
// RTL combine pattern is not gated on the contraction mode), silently
// changing tail rounding and breaking the bit-identity contract. A single
// default-target compilation serves both the portable dispatch branch and
// every SIMD kernel's remainder loop.
#if defined(__GNUC__) || defined(__clang__)
#define FEMTO_SIMD_REF __attribute__((noinline))
#else
#define FEMTO_SIMD_REF
#endif

FEMTO_SIMD_REF inline void scale_portable(double* d, std::size_t count,
                                          double sr, double si) {
  if (si == 0.0) {
    for (std::size_t j = 0; j < 2 * count; ++j) d[j] *= sr;
    return;
  }
  for (std::size_t i = 0; i < count; ++i) {
    const double x = d[2 * i], y = d[2 * i + 1];
    d[2 * i] = x * sr - y * si;
    d[2 * i + 1] = x * si + y * sr;
  }
}

FEMTO_SIMD_REF inline void real2x2_portable(double* p0, double* p1, std::size_t len,
                             double r00, double r01, double r10, double r11) {
  for (std::size_t j = 0; j < len; ++j) {
    const double x0 = p0[j], x1 = p1[j];
    p0[j] = r00 * x0 + r01 * x1;
    p1[j] = r10 * x0 + r11 * x1;
  }
}

FEMTO_SIMD_REF inline void cmul2x2_portable(Complex* lo, Complex* hi, std::size_t count,
                             Complex m00, Complex m01, Complex m10,
                             Complex m11) {
  for (std::size_t i = 0; i < count; ++i) {
    const Complex a0 = lo[i], a1 = hi[i];
    lo[i] = m00 * a0 + m01 * a1;
    hi[i] = m10 * a0 + m11 * a1;
  }
}

FEMTO_SIMD_REF inline void cross_mul_portable(Complex* lo, Complex* hi, std::size_t count,
                               Complex m01, Complex m10) {
  for (std::size_t i = 0; i < count; ++i) {
    const Complex x0 = lo[i];
    lo[i] = m01 * hi[i];
    hi[i] = m10 * x0;
  }
}

FEMTO_SIMD_REF inline void negate_portable(double* d, std::size_t len) {
  for (std::size_t j = 0; j < len; ++j) d[j] = -d[j];
}

FEMTO_SIMD_REF inline void swap_portable(Complex* x, Complex* y, std::size_t count) {
  std::swap_ranges(x, x + count, y);
}

FEMTO_SIMD_REF inline void rot2_portable(Complex* p, Complex* q, std::size_t count, double c,
                          Complex u, Complex v) {
  for (std::size_t i = 0; i < count; ++i) {
    const Complex pi = p[i], qi = q[i];
    p[i] = c * pi + u * qi;
    q[i] = c * qi + v * pi;
  }
}

FEMTO_SIMD_REF inline void axpy_portable(Complex* out, const Complex* src, std::size_t count,
                          Complex w) {
  for (std::size_t i = 0; i < count; ++i) out[i] += w * src[i];
}

#if FEMTO_SIMD_X86

// ---- AVX2 (2 complex per 256-bit vector) ---------------------------------

// Complex multiply of interleaved pairs v by the constant whose real parts
// are broadcast in cr and imaginary parts in ci:
//   even lane: v.re*cr - v.im*ci     odd lane: v.im*cr + v.re*ci
// Same multiplies and same add/sub per element as std::complex operator*
// (products commute operand-wise; IEEE a+b == b+a bitwise).
__attribute__((target("avx2"))) inline __m256d cmul_avx2(__m256d v, __m256d cr,
                                                         __m256d ci) {
  const __m256d t = _mm256_mul_pd(v, cr);
  const __m256d vs = _mm256_shuffle_pd(v, v, 0x5);  // swap re/im per pair
  return _mm256_addsub_pd(t, _mm256_mul_pd(vs, ci));
}

__attribute__((target("avx2"))) inline void scale_avx2(double* d,
                                                       std::size_t count,
                                                       double sr, double si) {
  const __m256d vr = _mm256_set1_pd(sr);
  std::size_t i = 0;
  if (si == 0.0) {
    for (; i + 2 <= count; i += 2) {
      const __m256d v = _mm256_loadu_pd(d + 2 * i);
      _mm256_storeu_pd(d + 2 * i, _mm256_mul_pd(v, vr));
    }
  } else {
    const __m256d vi = _mm256_set1_pd(si);
    for (; i + 2 <= count; i += 2) {
      const __m256d v = _mm256_loadu_pd(d + 2 * i);
      _mm256_storeu_pd(d + 2 * i, cmul_avx2(v, vr, vi));
    }
  }
  scale_portable(d + 2 * i, count - i, sr, si);
}

__attribute__((target("avx2"))) inline void real2x2_avx2(
    double* p0, double* p1, std::size_t len, double r00, double r01,
    double r10, double r11) {
  const __m256d v00 = _mm256_set1_pd(r00), v01 = _mm256_set1_pd(r01);
  const __m256d v10 = _mm256_set1_pd(r10), v11 = _mm256_set1_pd(r11);
  std::size_t j = 0;
  for (; j + 4 <= len; j += 4) {
    const __m256d x0 = _mm256_loadu_pd(p0 + j);
    const __m256d x1 = _mm256_loadu_pd(p1 + j);
    _mm256_storeu_pd(
        p0 + j, _mm256_add_pd(_mm256_mul_pd(v00, x0), _mm256_mul_pd(v01, x1)));
    _mm256_storeu_pd(
        p1 + j, _mm256_add_pd(_mm256_mul_pd(v10, x0), _mm256_mul_pd(v11, x1)));
  }
  for (; j < len; ++j) {
    const double x0 = p0[j], x1 = p1[j];
    p0[j] = r00 * x0 + r01 * x1;
    p1[j] = r10 * x0 + r11 * x1;
  }
}

__attribute__((target("avx2"))) inline void cmul2x2_avx2(
    Complex* lo, Complex* hi, std::size_t count, Complex m00, Complex m01,
    Complex m10, Complex m11) {
  double* plo = reinterpret_cast<double*>(lo);
  double* phi = reinterpret_cast<double*>(hi);
  const __m256d r00 = _mm256_set1_pd(m00.real()),
                i00 = _mm256_set1_pd(m00.imag());
  const __m256d r01 = _mm256_set1_pd(m01.real()),
                i01 = _mm256_set1_pd(m01.imag());
  const __m256d r10 = _mm256_set1_pd(m10.real()),
                i10 = _mm256_set1_pd(m10.imag());
  const __m256d r11 = _mm256_set1_pd(m11.real()),
                i11 = _mm256_set1_pd(m11.imag());
  std::size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    const __m256d a0 = _mm256_loadu_pd(plo + 2 * i);
    const __m256d a1 = _mm256_loadu_pd(phi + 2 * i);
    _mm256_storeu_pd(plo + 2 * i,
                     _mm256_add_pd(cmul_avx2(a0, r00, i00),
                                   cmul_avx2(a1, r01, i01)));
    _mm256_storeu_pd(phi + 2 * i,
                     _mm256_add_pd(cmul_avx2(a0, r10, i10),
                                   cmul_avx2(a1, r11, i11)));
  }
  cmul2x2_portable(lo + i, hi + i, count - i, m00, m01, m10, m11);
}

__attribute__((target("avx2"))) inline void cross_mul_avx2(
    Complex* lo, Complex* hi, std::size_t count, Complex m01, Complex m10) {
  double* plo = reinterpret_cast<double*>(lo);
  double* phi = reinterpret_cast<double*>(hi);
  const __m256d r01 = _mm256_set1_pd(m01.real()),
                i01 = _mm256_set1_pd(m01.imag());
  const __m256d r10 = _mm256_set1_pd(m10.real()),
                i10 = _mm256_set1_pd(m10.imag());
  std::size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    const __m256d a0 = _mm256_loadu_pd(plo + 2 * i);
    const __m256d a1 = _mm256_loadu_pd(phi + 2 * i);
    _mm256_storeu_pd(plo + 2 * i, cmul_avx2(a1, r01, i01));
    _mm256_storeu_pd(phi + 2 * i, cmul_avx2(a0, r10, i10));
  }
  cross_mul_portable(lo + i, hi + i, count - i, m01, m10);
}

__attribute__((target("avx2"))) inline void negate_avx2(double* d,
                                                        std::size_t len) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  std::size_t j = 0;
  for (; j + 4 <= len; j += 4) {
    _mm256_storeu_pd(d + j, _mm256_xor_pd(_mm256_loadu_pd(d + j), sign));
  }
  for (; j < len; ++j) d[j] = -d[j];
}

__attribute__((target("avx2"))) inline void swap_avx2(Complex* x, Complex* y,
                                                      std::size_t count) {
  double* px = reinterpret_cast<double*>(x);
  double* py = reinterpret_cast<double*>(y);
  std::size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    const __m256d vx = _mm256_loadu_pd(px + 2 * i);
    const __m256d vy = _mm256_loadu_pd(py + 2 * i);
    _mm256_storeu_pd(px + 2 * i, vy);
    _mm256_storeu_pd(py + 2 * i, vx);
  }
  if (i < count) swap_portable(x + i, y + i, count - i);
}

__attribute__((target("avx2"))) inline void rot2_avx2(Complex* p, Complex* q,
                                                      std::size_t count,
                                                      double c, Complex u,
                                                      Complex v) {
  double* pp = reinterpret_cast<double*>(p);
  double* pq = reinterpret_cast<double*>(q);
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d ur = _mm256_set1_pd(u.real()), ui = _mm256_set1_pd(u.imag());
  const __m256d vr = _mm256_set1_pd(v.real()), vi = _mm256_set1_pd(v.imag());
  std::size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    const __m256d vp = _mm256_loadu_pd(pp + 2 * i);
    const __m256d vq = _mm256_loadu_pd(pq + 2 * i);
    _mm256_storeu_pd(pp + 2 * i, _mm256_add_pd(_mm256_mul_pd(vc, vp),
                                               cmul_avx2(vq, ur, ui)));
    _mm256_storeu_pd(pq + 2 * i, _mm256_add_pd(_mm256_mul_pd(vc, vq),
                                               cmul_avx2(vp, vr, vi)));
  }
  rot2_portable(p + i, q + i, count - i, c, u, v);
}

__attribute__((target("avx2"))) inline void axpy_avx2(Complex* out,
                                                      const Complex* src,
                                                      std::size_t count,
                                                      Complex w) {
  double* po = reinterpret_cast<double*>(out);
  const double* ps = reinterpret_cast<const double*>(src);
  const __m256d wr = _mm256_set1_pd(w.real()), wi = _mm256_set1_pd(w.imag());
  std::size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    const __m256d vo = _mm256_loadu_pd(po + 2 * i);
    const __m256d vs = _mm256_loadu_pd(ps + 2 * i);
    _mm256_storeu_pd(po + 2 * i, _mm256_add_pd(vo, cmul_avx2(vs, wr, wi)));
  }
  axpy_portable(out + i, src + i, count - i, w);
}

// ---- AVX-512 (4 complex per 512-bit vector) ------------------------------

// GCC 12's avx512fintrin.h trips -Wmaybe-uninitialized on internal
// temporaries of some intrinsics (GCC PR 105593); suppress for this block.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#define FEMTO_TARGET_AVX512 \
  __attribute__((target("avx512f,avx512bw,avx512dq,avx512vl")))

// Sign-bit flip on the REAL (even) lanes: t + (u ^ this) == t - u on even
// lanes and t + u on odd lanes -- the AVX-512 spelling of addsub. IEEE
// x + (-y) is bitwise x - y, so this matches the scalar op tree exactly.
FEMTO_TARGET_AVX512 inline __m512d addsub_avx512(__m512d t, __m512d u) {
  const __m512d flip_even = _mm512_castsi512_pd(_mm512_set_epi64(
      0, static_cast<long long>(0x8000000000000000ULL), 0,
      static_cast<long long>(0x8000000000000000ULL), 0,
      static_cast<long long>(0x8000000000000000ULL), 0,
      static_cast<long long>(0x8000000000000000ULL)));
  return _mm512_add_pd(t, _mm512_xor_pd(u, flip_even));
}

FEMTO_TARGET_AVX512 inline __m512d cmul_avx512(__m512d v, __m512d cr,
                                               __m512d ci) {
  const __m512d t = _mm512_mul_pd(v, cr);
  const __m512d vs = _mm512_permute_pd(v, 0x55);  // swap re/im per pair
  return addsub_avx512(t, _mm512_mul_pd(vs, ci));
}

FEMTO_TARGET_AVX512 inline void scale_avx512(double* d, std::size_t count,
                                             double sr, double si) {
  const __m512d vr = _mm512_set1_pd(sr);
  std::size_t i = 0;
  if (si == 0.0) {
    for (; i + 4 <= count; i += 4) {
      const __m512d v = _mm512_loadu_pd(d + 2 * i);
      _mm512_storeu_pd(d + 2 * i, _mm512_mul_pd(v, vr));
    }
  } else {
    const __m512d vi = _mm512_set1_pd(si);
    for (; i + 4 <= count; i += 4) {
      const __m512d v = _mm512_loadu_pd(d + 2 * i);
      _mm512_storeu_pd(d + 2 * i, cmul_avx512(v, vr, vi));
    }
  }
  scale_portable(d + 2 * i, count - i, sr, si);
}

FEMTO_TARGET_AVX512 inline void real2x2_avx512(double* p0, double* p1,
                                               std::size_t len, double r00,
                                               double r01, double r10,
                                               double r11) {
  const __m512d v00 = _mm512_set1_pd(r00), v01 = _mm512_set1_pd(r01);
  const __m512d v10 = _mm512_set1_pd(r10), v11 = _mm512_set1_pd(r11);
  std::size_t j = 0;
  for (; j + 8 <= len; j += 8) {
    const __m512d x0 = _mm512_loadu_pd(p0 + j);
    const __m512d x1 = _mm512_loadu_pd(p1 + j);
    _mm512_storeu_pd(
        p0 + j, _mm512_add_pd(_mm512_mul_pd(v00, x0), _mm512_mul_pd(v01, x1)));
    _mm512_storeu_pd(
        p1 + j, _mm512_add_pd(_mm512_mul_pd(v10, x0), _mm512_mul_pd(v11, x1)));
  }
  for (; j < len; ++j) {
    const double x0 = p0[j], x1 = p1[j];
    p0[j] = r00 * x0 + r01 * x1;
    p1[j] = r10 * x0 + r11 * x1;
  }
}

FEMTO_TARGET_AVX512 inline void cmul2x2_avx512(Complex* lo, Complex* hi,
                                               std::size_t count, Complex m00,
                                               Complex m01, Complex m10,
                                               Complex m11) {
  double* plo = reinterpret_cast<double*>(lo);
  double* phi = reinterpret_cast<double*>(hi);
  const __m512d r00 = _mm512_set1_pd(m00.real()),
                i00 = _mm512_set1_pd(m00.imag());
  const __m512d r01 = _mm512_set1_pd(m01.real()),
                i01 = _mm512_set1_pd(m01.imag());
  const __m512d r10 = _mm512_set1_pd(m10.real()),
                i10 = _mm512_set1_pd(m10.imag());
  const __m512d r11 = _mm512_set1_pd(m11.real()),
                i11 = _mm512_set1_pd(m11.imag());
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m512d a0 = _mm512_loadu_pd(plo + 2 * i);
    const __m512d a1 = _mm512_loadu_pd(phi + 2 * i);
    _mm512_storeu_pd(plo + 2 * i, _mm512_add_pd(cmul_avx512(a0, r00, i00),
                                                cmul_avx512(a1, r01, i01)));
    _mm512_storeu_pd(phi + 2 * i, _mm512_add_pd(cmul_avx512(a0, r10, i10),
                                                cmul_avx512(a1, r11, i11)));
  }
  cmul2x2_portable(lo + i, hi + i, count - i, m00, m01, m10, m11);
}

FEMTO_TARGET_AVX512 inline void cross_mul_avx512(Complex* lo, Complex* hi,
                                                 std::size_t count,
                                                 Complex m01, Complex m10) {
  double* plo = reinterpret_cast<double*>(lo);
  double* phi = reinterpret_cast<double*>(hi);
  const __m512d r01 = _mm512_set1_pd(m01.real()),
                i01 = _mm512_set1_pd(m01.imag());
  const __m512d r10 = _mm512_set1_pd(m10.real()),
                i10 = _mm512_set1_pd(m10.imag());
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m512d a0 = _mm512_loadu_pd(plo + 2 * i);
    const __m512d a1 = _mm512_loadu_pd(phi + 2 * i);
    _mm512_storeu_pd(plo + 2 * i, cmul_avx512(a1, r01, i01));
    _mm512_storeu_pd(phi + 2 * i, cmul_avx512(a0, r10, i10));
  }
  cross_mul_portable(lo + i, hi + i, count - i, m01, m10);
}

FEMTO_TARGET_AVX512 inline void negate_avx512(double* d, std::size_t len) {
  const __m512d sign = _mm512_set1_pd(-0.0);
  std::size_t j = 0;
  for (; j + 8 <= len; j += 8)
    _mm512_storeu_pd(d + j, _mm512_xor_pd(_mm512_loadu_pd(d + j), sign));
  for (; j < len; ++j) d[j] = -d[j];
}

FEMTO_TARGET_AVX512 inline void swap_avx512(Complex* x, Complex* y,
                                            std::size_t count) {
  double* px = reinterpret_cast<double*>(x);
  double* py = reinterpret_cast<double*>(y);
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m512d vx = _mm512_loadu_pd(px + 2 * i);
    const __m512d vy = _mm512_loadu_pd(py + 2 * i);
    _mm512_storeu_pd(px + 2 * i, vy);
    _mm512_storeu_pd(py + 2 * i, vx);
  }
  if (i < count) swap_portable(x + i, y + i, count - i);
}

FEMTO_TARGET_AVX512 inline void rot2_avx512(Complex* p, Complex* q,
                                            std::size_t count, double c,
                                            Complex u, Complex v) {
  double* pp = reinterpret_cast<double*>(p);
  double* pq = reinterpret_cast<double*>(q);
  const __m512d vc = _mm512_set1_pd(c);
  const __m512d ur = _mm512_set1_pd(u.real()), ui = _mm512_set1_pd(u.imag());
  const __m512d vr = _mm512_set1_pd(v.real()), vi = _mm512_set1_pd(v.imag());
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m512d vp = _mm512_loadu_pd(pp + 2 * i);
    const __m512d vq = _mm512_loadu_pd(pq + 2 * i);
    _mm512_storeu_pd(pp + 2 * i, _mm512_add_pd(_mm512_mul_pd(vc, vp),
                                               cmul_avx512(vq, ur, ui)));
    _mm512_storeu_pd(pq + 2 * i, _mm512_add_pd(_mm512_mul_pd(vc, vq),
                                               cmul_avx512(vp, vr, vi)));
  }
  rot2_portable(p + i, q + i, count - i, c, u, v);
}

FEMTO_TARGET_AVX512 inline void axpy_avx512(Complex* out, const Complex* src,
                                            std::size_t count, Complex w) {
  double* po = reinterpret_cast<double*>(out);
  const double* ps = reinterpret_cast<const double*>(src);
  const __m512d wr = _mm512_set1_pd(w.real()), wi = _mm512_set1_pd(w.imag());
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m512d vo = _mm512_loadu_pd(po + 2 * i);
    const __m512d vs = _mm512_loadu_pd(ps + 2 * i);
    _mm512_storeu_pd(po + 2 * i, _mm512_add_pd(vo, cmul_avx512(vs, wr, wi)));
  }
  axpy_portable(out + i, src + i, count - i, w);
}

#undef FEMTO_TARGET_AVX512

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // FEMTO_SIMD_X86

}  // namespace detail

/// run *= (sr + i*si) over `count` complex values. si == 0 takes a
/// real-multiply fast path (same branch at every level).
inline void scale(double* d, std::size_t count, double sr, double si) {
#if FEMTO_SIMD_X86
  switch (simd::level()) {
    case simd::Level::kAvx512:
      detail::scale_avx512(d, count, sr, si);
      return;
    case simd::Level::kAvx2:
      detail::scale_avx2(d, count, sr, si);
      return;
    default:
      break;
  }
#endif
  detail::scale_portable(d, count, sr, si);
}

/// Real 2x2 on interleaved double lanes: p0/p1 are runs of `len` doubles.
inline void real2x2(double* p0, double* p1, std::size_t len, double r00,
                    double r01, double r10, double r11) {
#if FEMTO_SIMD_X86
  switch (simd::level()) {
    case simd::Level::kAvx512:
      detail::real2x2_avx512(p0, p1, len, r00, r01, r10, r11);
      return;
    case simd::Level::kAvx2:
      detail::real2x2_avx2(p0, p1, len, r00, r01, r10, r11);
      return;
    default:
      break;
  }
#endif
  detail::real2x2_portable(p0, p1, len, r00, r01, r10, r11);
}

/// General complex 2x2: lo[i], hi[i] <- m00*lo[i]+m01*hi[i], m10*lo[i]+m11*hi[i].
inline void cmul2x2(Complex* lo, Complex* hi, std::size_t count, Complex m00,
                    Complex m01, Complex m10, Complex m11) {
#if FEMTO_SIMD_X86
  switch (simd::level()) {
    case simd::Level::kAvx512:
      detail::cmul2x2_avx512(lo, hi, count, m00, m01, m10, m11);
      return;
    case simd::Level::kAvx2:
      detail::cmul2x2_avx2(lo, hi, count, m00, m01, m10, m11);
      return;
    default:
      break;
  }
#endif
  detail::cmul2x2_portable(lo, hi, count, m00, m01, m10, m11);
}

/// Anti-diagonal 2x2: lo[i] <- m01*hi[i], hi[i] <- m10*lo_old[i].
inline void cross_mul(Complex* lo, Complex* hi, std::size_t count, Complex m01,
                      Complex m10) {
#if FEMTO_SIMD_X86
  switch (simd::level()) {
    case simd::Level::kAvx512:
      detail::cross_mul_avx512(lo, hi, count, m01, m10);
      return;
    case simd::Level::kAvx2:
      detail::cross_mul_avx2(lo, hi, count, m01, m10);
      return;
    default:
      break;
  }
#endif
  detail::cross_mul_portable(lo, hi, count, m01, m10);
}

/// d[j] = -d[j] over `len` doubles (sign-bit flip at every level).
inline void negate(double* d, std::size_t len) {
#if FEMTO_SIMD_X86
  switch (simd::level()) {
    case simd::Level::kAvx512:
      detail::negate_avx512(d, len);
      return;
    case simd::Level::kAvx2:
      detail::negate_avx2(d, len);
      return;
    default:
      break;
  }
#endif
  detail::negate_portable(d, len);
}

/// Swap two contiguous runs of `count` complex values.
inline void swap(Complex* x, Complex* y, std::size_t count) {
#if FEMTO_SIMD_X86
  switch (simd::level()) {
    case simd::Level::kAvx512:
      detail::swap_avx512(x, y, count);
      return;
    case simd::Level::kAvx2:
      detail::swap_avx2(x, y, count);
      return;
    default:
      break;
  }
#endif
  detail::swap_portable(x, y, count);
}

/// Two-plane rotation p <- c*p + u*q, q <- c*q + v*p_old (c real; the shape
/// of XX/XY rotations and general Pauli-exponential sub-runs).
inline void rot2(Complex* p, Complex* q, std::size_t count, double c,
                 Complex u, Complex v) {
#if FEMTO_SIMD_X86
  switch (simd::level()) {
    case simd::Level::kAvx512:
      detail::rot2_avx512(p, q, count, c, u, v);
      return;
    case simd::Level::kAvx2:
      detail::rot2_avx2(p, q, count, c, u, v);
      return;
    default:
      break;
  }
#endif
  detail::rot2_portable(p, q, count, c, u, v);
}

/// out[i] += w * src[i] over `count` complex values.
inline void axpy(Complex* out, const Complex* src, std::size_t count,
                 Complex w) {
#if FEMTO_SIMD_X86
  switch (simd::level()) {
    case simd::Level::kAvx512:
      detail::axpy_avx512(out, src, count, w);
      return;
    case simd::Level::kAvx2:
      detail::axpy_avx2(out, src, count, w);
      return;
    default:
      break;
  }
#endif
  detail::axpy_portable(out, src, count, w);
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
