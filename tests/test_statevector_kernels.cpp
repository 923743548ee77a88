// Randomized equivalence tests for the stride-based statevector kernels
// (sim/kernels.hpp): every GateKind, applied through StateVector, must match
// a naive dense-matrix reference (kron-embedded 2x2 / 4x4 unitaries applied
// by direct matvec) on random states, for 2-10 qubits with fixed RNG seeds.
// KernelBits pins the kernels' exact bytes: an FNV-1a hash of the amplitudes
// after fixed seeded workloads, and byte equality of the Pauli exponential
// with its per-index reference loop.
#include <gtest/gtest.h>

#include <bit>
#include <complex>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "circuit/quantum_circuit.hpp"
#include "common/rng.hpp"
#include "db/database.hpp"
#include "pauli/pauli_string.hpp"
#include "pauli/pauli_sum.hpp"
#include "sim/statevector.hpp"

namespace femto::sim {
namespace {

using circuit::Gate;
using circuit::GateKind;
using circuit::QuantumCircuit;
using pauli::Letter;
using pauli::PauliString;

using Dense = std::vector<std::vector<Complex>>;

const Complex kI{0.0, 1.0};

/// 2x2 or 4x4 unitary of one gate (4x4 in the (q1,q0) two-bit subspace with
/// q0 the *low* bit, matching the little-endian statevector convention).
[[nodiscard]] Dense gate_matrix(const Gate& g) {
  const double a = g.angle;
  const double h = a / 2;
  switch (g.kind) {
    case GateKind::kX: return {{0, 1}, {1, 0}};
    case GateKind::kY: return {{0, -kI}, {kI, 0}};
    case GateKind::kZ: return {{1, 0}, {0, -1}};
    case GateKind::kH: {
      const double s = 1.0 / std::sqrt(2.0);
      return {{s, s}, {s, -s}};
    }
    case GateKind::kS: return {{1, 0}, {0, kI}};
    case GateKind::kSdg: return {{1, 0}, {0, -kI}};
    case GateKind::kRz: return {{std::exp(-kI * h), 0}, {0, std::exp(kI * h)}};
    case GateKind::kRx:
      return {{std::cos(h), -kI * std::sin(h)},
              {-kI * std::sin(h), std::cos(h)}};
    case GateKind::kRy:
      return {{std::cos(h), -std::sin(h)}, {std::sin(h), std::cos(h)}};
    // Two-qubit gates, basis order |q1 q0> = 00, 01, 10, 11 where q0 is
    // g.q0 (control for CNOT) and q1 is g.q1.
    case GateKind::kCnot:
      // control = q0 (low bit), target = q1 (high bit).
      return {{1, 0, 0, 0}, {0, 0, 0, 1}, {0, 0, 1, 0}, {0, 1, 0, 0}};
    case GateKind::kCz:
      return {{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, -1}};
    case GateKind::kSwap:
      return {{1, 0, 0, 0}, {0, 0, 1, 0}, {0, 1, 0, 0}, {0, 0, 0, 1}};
    case GateKind::kXXrot: {
      const Complex c{std::cos(h), 0.0};
      const Complex ms = -kI * std::sin(h);
      return {{c, 0, 0, ms}, {0, c, ms, 0}, {0, ms, c, 0}, {ms, 0, 0, c}};
    }
    case GateKind::kXYrot: {
      // exp(-i a/2 (XX + YY)) acts on {01, 10} with angle a (XX and YY
      // halves add), identity on {00, 11}.
      const Complex c{std::cos(a), 0.0};
      const Complex ms = -kI * std::sin(a);
      return {{1, 0, 0, 0}, {0, c, ms, 0}, {0, ms, c, 0}, {0, 0, 0, 1}};
    }
  }
  return {};
}

/// Applies the kron-embedded gate to `amps` by direct dense matvec over the
/// involved bit(s) -- deliberately naive, no strides, no structure.
[[nodiscard]] std::vector<Complex> dense_apply(const Gate& g,
                                               const std::vector<Complex>& in,
                                               std::size_t n) {
  const Dense m = gate_matrix(g);
  std::vector<Complex> out(in.size(), Complex{0.0, 0.0});
  if (m.size() == 2) {
    const std::size_t bit = std::size_t{1} << g.q0;
    for (std::size_t i = 0; i < in.size(); ++i) {
      const std::size_t r = (i & bit) ? 1 : 0;
      out[i] = m[r][0] * in[i & ~bit] + m[r][1] * in[i | bit];
    }
    return out;
  }
  const std::size_t b0 = std::size_t{1} << g.q0;
  const std::size_t b1 = std::size_t{1} << g.q1;
  (void)n;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const std::size_t r = ((i & b0) ? 1 : 0) | ((i & b1) ? 2 : 0);
    const std::size_t base = i & ~(b0 | b1);
    for (std::size_t c = 0; c < 4; ++c) {
      const std::size_t j = base | ((c & 1) ? b0 : 0) | ((c & 2) ? b1 : 0);
      out[i] += m[r][c] * in[j];
    }
  }
  return out;
}

[[nodiscard]] StateVector random_state(std::size_t n, Rng& rng) {
  StateVector sv(n);
  for (auto& a : sv.amplitudes()) a = Complex(rng.normal(), rng.normal());
  sv.normalize();
  return sv;
}

[[nodiscard]] double max_diff(const std::vector<Complex>& a,
                              const std::vector<Complex>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    d = std::max(d, std::abs(a[i] - b[i]));
  return d;
}

[[nodiscard]] Gate random_gate(GateKind kind, std::size_t n, Rng& rng) {
  Gate g;
  g.kind = kind;
  g.q0 = rng.index(n);
  if (circuit::is_two_qubit(kind)) {
    do {
      g.q1 = rng.index(n);
    } while (g.q1 == g.q0);
  }
  if (circuit::is_rotation(kind)) g.angle = rng.uniform(-3.0, 3.0);
  return g;
}

constexpr GateKind kAllKinds[] = {
    GateKind::kX,    GateKind::kY,  GateKind::kZ,    GateKind::kH,
    GateKind::kS,    GateKind::kSdg, GateKind::kRz,  GateKind::kRx,
    GateKind::kRy,   GateKind::kCnot, GateKind::kCz, GateKind::kSwap,
    GateKind::kXXrot, GateKind::kXYrot};

/// Dense action of a Pauli string: out[j] += P[j][i] * in[i], built
/// per-letter from the definitions (shared reference for the exp and
/// accumulate tests).
[[nodiscard]] std::vector<Complex> dense_pauli_apply(
    const PauliString& p, const std::vector<Complex>& in) {
  const std::size_t n = p.num_qubits();
  std::vector<Complex> out(in.size(), Complex{0.0, 0.0});
  for (std::size_t i = 0; i < in.size(); ++i) {
    std::size_t j = i;
    Complex val = p.sign();
    for (std::size_t q = 0; q < n; ++q) {
      const bool bit = (i >> q) & 1;
      switch (p.letter(q)) {
        case Letter::I: break;
        case Letter::X: j ^= std::size_t{1} << q; break;
        case Letter::Y:
          j ^= std::size_t{1} << q;
          val *= bit ? Complex(0, -1) : Complex(0, 1);
          break;
        case Letter::Z:
          if (bit) val = -val;
          break;
      }
    }
    out[j] += val * in[i];
  }
  return out;
}

[[nodiscard]] PauliString random_hermitian_string(std::size_t n, Rng& rng) {
  PauliString p(n);
  for (std::size_t q = 0; q < n; ++q)
    p.set_letter(q, static_cast<Letter>(rng.index(4)));
  if (rng.bernoulli(0.5)) p.set_phase_exponent(p.phase_exponent() + 2);
  return p;
}

class KernelEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelEquivalence, EveryGateKindMatchesDenseReference) {
  const std::size_t n = GetParam();
  Rng rng(0xfeed0000 + n);
  for (const GateKind kind : kAllKinds) {
    for (int rep = 0; rep < 8; ++rep) {
      const Gate g = random_gate(kind, n, rng);
      StateVector sv = random_state(n, rng);
      const std::vector<Complex> expected =
          dense_apply(g, sv.amplitudes(), n);
      sv.apply_gate(g);
      EXPECT_LT(max_diff(sv.amplitudes(), expected), 1e-12)
          << "gate " << g.to_string() << " on " << n << " qubits";
    }
  }
}

TEST_P(KernelEquivalence, RandomCircuitMatchesDenseReference) {
  const std::size_t n = GetParam();
  Rng rng(0xc1c0 + n);
  StateVector sv = random_state(n, rng);
  std::vector<Complex> ref = sv.amplitudes();
  QuantumCircuit qc(n);
  for (int step = 0; step < 60; ++step) {
    const GateKind kind = kAllKinds[rng.index(std::size(kAllKinds))];
    const Gate g = random_gate(kind, n, rng);
    qc.append(g);
    ref = dense_apply(g, ref, n);
  }
  // apply_circuit exercises the diagonal-run fusion path on top of the
  // per-gate kernels.
  sv.apply_circuit(qc);
  EXPECT_LT(max_diff(sv.amplitudes(), ref), 1e-11);
}

TEST_P(KernelEquivalence, DiagonalFusionMatchesGateByGate) {
  const std::size_t n = GetParam();
  Rng rng(0xd1a6 + n);
  // A circuit dominated by diagonal runs: Rz/S/Sdg/Z bursts on one qubit
  // separated by occasional entanglers.
  QuantumCircuit qc(n);
  const GateKind diag_kinds[] = {GateKind::kZ, GateKind::kS, GateKind::kSdg,
                                 GateKind::kRz};
  for (int burst = 0; burst < 10; ++burst) {
    const std::size_t q = rng.index(n);
    for (int k = 0; k < 4; ++k) {
      Gate g = random_gate(diag_kinds[rng.index(4)], n, rng);
      g.q0 = q;
      qc.append(g);
    }
    qc.append(random_gate(GateKind::kCnot, n, rng));
  }
  StateVector fused = random_state(n, rng);
  StateVector unfused = fused;
  fused.apply_circuit(qc);
  for (const Gate& g : qc.gates()) unfused.apply_gate(g);
  EXPECT_LT(max_diff(fused.amplitudes(), unfused.amplitudes()), 1e-12);
}

TEST_P(KernelEquivalence, PauliExpMatchesDenseFormula) {
  const std::size_t n = GetParam();
  Rng rng(0xab5 + n);
  for (int rep = 0; rep < 10; ++rep) {
    const PauliString p = random_hermitian_string(n, rng);
    const double angle = rng.uniform(-3.0, 3.0);
    StateVector sv = random_state(n, rng);
    // exp(-i angle/2 P) = cos(angle/2) I - i sin(angle/2) P, with P acting
    // densely: P|i> = sign * prod letters.
    const std::vector<Complex>& in = sv.amplitudes();
    const std::vector<Complex> pv = dense_pauli_apply(p, in);
    std::vector<Complex> expected(in.size());
    const double c = std::cos(angle / 2), s = std::sin(angle / 2);
    for (std::size_t i = 0; i < in.size(); ++i)
      expected[i] = c * in[i] - kI * s * pv[i];
    sv.apply_pauli_exp(p, angle);
    EXPECT_LT(max_diff(sv.amplitudes(), expected), 1e-12)
        << p.to_string() << " angle " << angle;
  }
}

TEST_P(KernelEquivalence, AccumulatePauliMatchesDenseAction) {
  const std::size_t n = GetParam();
  Rng rng(0xacc + n);
  PauliString p(n);
  for (std::size_t q = 0; q < n; ++q)
    p.set_letter(q, static_cast<Letter>(rng.index(4)));
  const StateVector sv = random_state(n, rng);
  const Complex coeff{rng.normal(), rng.normal()};
  std::vector<Complex> out(sv.dim(), Complex{0.0, 0.0});
  sv.accumulate_pauli(p, coeff, out);
  // Dense: out[j] = coeff * sum_i P[j][i] amps[i].
  std::vector<Complex> expected = dense_pauli_apply(p, sv.amplitudes());
  for (Complex& v : expected) v *= coeff;
  EXPECT_LT(max_diff(out, expected), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(TwoToTenQubits, KernelEquivalence,
                         ::testing::Values(2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u,
                                           10u));

// The amplitude bytes after a fixed seeded workload: a 300-gate circuit that
// cycles through every GateKind (through apply_circuit, so the S, Sdg, Rz
// neighbours fuse when they share a qubit), then 20 Pauli exponentials and 4
// accumulate_pauli calls. A compiler, flag or respelling that moves one bit
// of any kernel fails here; the run bodies spell every complex difference
// as a sum so that -march=x86-64-v3 codegen computes these same bytes.
TEST(KernelBits, PinsTheAmplitudeBytesOfFixedWorkloads) {
  const std::pair<std::size_t, std::uint64_t> pins[] = {
      {3, 0x4852a0530fcc6193ULL},
      {5, 0x5e01f76d9350a877ULL},
      {8, 0x1e362a74383991a5ULL},
      {11, 0xcdfd7ae76d701f90ULL},
      {14, 0xc8a49b19958ded0dULL},
  };
  for (const auto& [n, hash] : pins) {
    Rng rng(0xb175 + n);
    StateVector sv = random_state(n, rng);
    QuantumCircuit qc(n);
    for (std::size_t k = 0; k < 300; ++k)
      qc.append(random_gate(kAllKinds[k % std::size(kAllKinds)], n, rng));
    sv.apply_circuit(qc);
    std::vector<Complex> acc(sv.dim(), Complex{0.0, 0.0});
    for (int k = 0; k < 20; ++k) {
      const PauliString p = random_hermitian_string(n, rng);
      sv.apply_pauli_exp(p, rng.uniform(-3.0, 3.0));
      if (k % 5 == 0)
        sv.accumulate_pauli(p, Complex{rng.normal(), rng.normal()}, acc);
    }
    std::string bytes(reinterpret_cast<const char*>(sv.amplitudes().data()),
                      sv.dim() * sizeof(Complex));
    bytes.append(reinterpret_cast<const char*>(acc.data()),
                 acc.size() * sizeof(Complex));
    const std::uint64_t got = db::fnv1a(bytes);
    EXPECT_EQ(got, hash) << n << " qubits: got 0x" << std::hex << got
                         << "; the kernels' arithmetic moved";
  }
}

/// `x * y` for finite operands, bit for bit: std::complex's products with
/// the real part's difference spelled as a sum with a negated factor, the
/// way the kernels' run bodies spell it.
[[nodiscard]] Complex mul(Complex x, Complex y) {
  return {x.real() * y.real() + (-x.imag()) * y.imag(),
          x.real() * y.imag() + x.imag() * y.real()};
}

/// Reference Pauli exponential: the historical per-index loop, no sub-run
/// decomposition. Guards the run-decomposed kernel against structural
/// mistakes (pair enumeration, phase hoisting).
void reference_pauli_exp(std::vector<Complex>& a, const kernels::PauliMasks& m,
                         double c, double s) {
  const std::size_t dim = a.size();
  if (m.x == 0) {
    const Complex even{c, -s}, odd{c, s};
    for (std::size_t i = 0; i < dim; ++i)
      a[i] = mul(a[i], (std::popcount(i & m.z) & 1) ? odd : even);
    return;
  }
  const std::size_t pb = std::size_t{1} << (std::bit_width(m.x) - 1);
  const std::size_t flip = static_cast<std::size_t>(m.x);
  const Complex mis{0.0, -s};
  for (std::size_t g = 0; g < dim; g += 2 * pb) {
    for (std::size_t i = g; i < g + pb; ++i) {
      const std::size_t j = i ^ flip;
      const Complex ai = a[i], aj = a[j];
      a[i] = c * ai + mul(mul(mis, m.phase(j)), aj);
      a[j] = c * aj + mul(mul(mis, m.phase(i)), ai);
    }
  }
}

TEST(KernelBits, PauliExpMatchesPerIndexReference) {
  Rng rng(31337);
  const char* strings[] = {"ZIZ", "XIX", "YZY", "IXI", "ZZZZZ", "XYZIX"};
  for (const char* s : strings) {
    const PauliString p = PauliString::from_string(s);
    const StateVector base = random_state(p.num_qubits(), rng);
    const double angle = 0.83;
    const double half = p.sign().real() * angle / 2;

    StateVector sv = base;
    sv.apply_pauli_exp(p, angle);

    std::vector<Complex> ref = base.amplitudes();
    reference_pauli_exp(ref, detail::make_masks(p), std::cos(half),
                        std::sin(half));
    EXPECT_EQ(std::memcmp(sv.amplitudes().data(), ref.data(),
                          ref.size() * sizeof(Complex)),
              0)
        << s;
  }
}

TEST(KernelEquivalence, GateNormPreservation) {
  // Unitarity smoke check at a size where every stride shape (low/high/mixed
  // qubit index) occurs.
  Rng rng(0x90f);
  const std::size_t n = 11;
  StateVector sv = random_state(n, rng);
  for (int step = 0; step < 200; ++step) {
    const GateKind kind = kAllKinds[rng.index(std::size(kAllKinds))];
    sv.apply_gate(random_gate(kind, n, rng));
  }
  EXPECT_NEAR(sv.norm(), 1.0, 1e-10);
}

}  // namespace
}  // namespace femto::sim
