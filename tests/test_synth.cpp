// Tests for Pauli-exponential synthesis and the CNOT cost model.
//
// Anchors from the paper:
//  - Fig. 4(a): P1 = XXXY, P2 = XXYX with shared target q3 -> interface
//    leaves 1 CNOT (saving 5); with target q0 -> 2 CNOTs (saving 4).
//  - A fermionic double excitation compiles to 13 CNOTs, a compressible
//    hybrid to 7, a bosonic pair to 2 (tested in higher-level suites).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "sim/statevector.hpp"
#include "synth/cost_model.hpp"
#include "synth/pauli_exponential.hpp"
#include "synth/su2.hpp"

namespace femto::synth {
namespace {

using circuit::QuantumCircuit;
using pauli::PauliString;

[[nodiscard]] RotationBlock block(const std::string& letters, std::size_t t,
                                  double angle, int param = -1) {
  RotationBlock b;
  b.string = PauliString::from_string(letters);
  b.target = t;
  b.angle_coeff = angle;
  b.param = param;
  return b;
}

/// Reference circuit: apply each block as a direct Pauli exponential.
[[nodiscard]] sim::StateVector reference_state(
    std::size_t n, const std::vector<RotationBlock>& seq, std::size_t input) {
  sim::StateVector sv = sim::StateVector::basis_state(n, input);
  for (const RotationBlock& b : seq)
    sv.apply_pauli_exp(b.string, b.angle_coeff);
  return sv;
}

void expect_sequence_correct(std::size_t n,
                             const std::vector<RotationBlock>& seq,
                             MergePolicy policy) {
  const QuantumCircuit c = synthesize_sequence(n, seq, policy);
  // Compare action on every basis state, up to one global phase fixed by the
  // first nonzero amplitude.
  Complex phase{0, 0};
  for (std::size_t input = 0; input < (std::size_t{1} << n); ++input) {
    sim::StateVector actual = sim::StateVector::basis_state(n, input);
    actual.apply_circuit(c);
    const sim::StateVector expect = reference_state(n, seq, input);
    for (std::size_t i = 0; i < actual.dim(); ++i) {
      const Complex e = expect.amplitude(i);
      const Complex a = actual.amplitude(i);
      if (std::abs(phase) < 0.5) {
        if (std::abs(e) > 1e-9 && std::abs(a) > 1e-9) phase = e / a;
      }
      if (std::abs(phase) > 0.5) {
        EXPECT_NEAR(std::abs(e - phase * a), 0.0, 1e-9)
            << "input " << input << " amp " << i;
      } else {
        EXPECT_NEAR(std::abs(e) - std::abs(a), 0.0, 1e-9);
      }
    }
  }
}

TEST(CostModel, SingleStringCost) {
  EXPECT_EQ(string_cost(PauliString::from_string("XXXY")), 6);
  EXPECT_EQ(string_cost(PauliString::from_string("IZII")), 0);
  EXPECT_EQ(string_cost(PauliString::from_string("XIIZ")), 2);
}

TEST(CostModel, Fig4InterfaceSavings) {
  const PauliString p1 = PauliString::from_string("XXXY");
  const PauliString p2 = PauliString::from_string("XXYX");
  // Target q3: target collision (Y,X) good; controls (X,X),(X,X),(X,Y):
  // omega = 2,2,1 -> saving 5, interface CNOTs = 6 - 5 = 1.
  EXPECT_EQ(interface_saving(p1, 3, p2, 3), 5);
  // Target q0: target collision (X,X) good; controls (X,X),(X,Y),(Y,X):
  // omega = 2,1,1 -> saving 4, interface CNOTs = 6 - 4 = 2.
  EXPECT_EQ(interface_saving(p1, 0, p2, 0), 4);
  // Different targets never save.
  EXPECT_EQ(interface_saving(p1, 0, p2, 3), 0);
}

TEST(CostModel, BadTargetCollisionCapsAtOne) {
  // Target letters (Z, X): bad collision, every shared control saves 1.
  const PauliString p1 = PauliString::from_string("XXZ");
  const PauliString p2 = PauliString::from_string("XXX");
  EXPECT_EQ(interface_saving(p1, 2, p2, 2), 2);  // two shared controls, 1 each
}

TEST(CostModel, IdentityOverlapSavesNothing) {
  const PauliString p1 = PauliString::from_string("XIIY");
  const PauliString p2 = PauliString::from_string("IXYI");
  // Shared support only at the (equal) target? Here targets differ in
  // support; choose target 3 vs 2 -> different targets, zero.
  EXPECT_EQ(interface_saving(p1, 3, p2, 2), 0);
}

TEST(Synthesis, SingleBlockMatchesDirectExponential) {
  Rng rng(13);
  for (int rep = 0; rep < 20; ++rep) {
    const std::size_t n = 4;
    PauliString p(n);
    std::size_t weight = 0;
    while (weight == 0) {
      for (std::size_t q = 0; q < n; ++q)
        p.set_letter(q, static_cast<pauli::Letter>(rng.index(4)));
      weight = p.weight();
    }
    std::vector<std::size_t> support;
    for (std::size_t q = 0; q < n; ++q)
      if (p.letter(q) != pauli::Letter::I) support.push_back(q);
    RotationBlock b;
    b.string = p;
    b.target = support[rng.index(support.size())];
    b.angle_coeff = rng.uniform(-2, 2);
    expect_sequence_correct(n, {b}, MergePolicy::kNone);
  }
}

TEST(Synthesis, Fig4SequenceCnotCounts) {
  // Model: 6 + 6 - 5 = 7 with target q3 for both strings.
  const std::vector<RotationBlock> seq3 = {block("XXXY", 3, 0.31),
                                           block("XXYX", 3, -0.57)};
  EXPECT_EQ(sequence_model_cost(seq3), 7);
  const QuantumCircuit c3 = synthesize_sequence(4, seq3);
  EXPECT_EQ(c3.cnot_count(), 7);
  expect_sequence_correct(4, seq3, MergePolicy::kMerge);

  // Model: 6 + 6 - 4 = 8 with target q0.
  const std::vector<RotationBlock> seq0 = {block("XXXY", 0, 0.31),
                                           block("XXYX", 0, -0.57)};
  EXPECT_EQ(sequence_model_cost(seq0), 8);
  const QuantumCircuit c0 = synthesize_sequence(4, seq0);
  EXPECT_EQ(c0.cnot_count(), 8);
  expect_sequence_correct(4, seq0, MergePolicy::kMerge);
}

TEST(Synthesis, MergedEqualsNaiveUnitary) {
  Rng rng(37);
  for (int rep = 0; rep < 20; ++rep) {
    const std::size_t n = 4;
    std::vector<RotationBlock> seq;
    const int blocks = 2 + static_cast<int>(rng.index(3));
    for (int k = 0; k < blocks; ++k) {
      PauliString p(n);
      std::size_t weight = 0;
      while (weight < 2) {
        for (std::size_t q = 0; q < n; ++q)
          p.set_letter(q, static_cast<pauli::Letter>(rng.index(4)));
        weight = p.weight();
      }
      std::vector<std::size_t> support;
      for (std::size_t q = 0; q < n; ++q)
        if (p.letter(q) != pauli::Letter::I) support.push_back(q);
      RotationBlock b;
      b.string = p;
      b.target = support[rng.index(support.size())];
      b.angle_coeff = rng.uniform(-2, 2);
      seq.push_back(b);
    }
    expect_sequence_correct(n, seq, MergePolicy::kMerge);
    expect_sequence_correct(n, seq, MergePolicy::kNone);
    // Merged emission never uses more entanglers than naive.
    EXPECT_LE(synthesize_sequence(n, seq, MergePolicy::kMerge).cnot_count(),
              synthesize_sequence(n, seq, MergePolicy::kNone).cnot_count());
    // And never beats the model (the model is the paper's lower envelope
    // for this template family).
    EXPECT_GE(synthesize_sequence(n, seq, MergePolicy::kMerge).cnot_count(),
              sequence_model_cost(seq));
  }
}

TEST(Synthesis, GoodTargetChainsAchieveModel) {
  // Sequences whose consecutive target collisions are all good must emit
  // exactly the model count.
  Rng rng(53);
  const std::size_t n = 5;
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<RotationBlock> seq;
    const std::size_t t = rng.index(n);
    const int blocks = 2 + static_cast<int>(rng.index(4));
    for (int k = 0; k < blocks; ++k) {
      PauliString p(n);
      for (std::size_t q = 0; q < n; ++q)
        p.set_letter(q, static_cast<pauli::Letter>(rng.index(4)));
      // Force the target letter to X or Y (every {X,Y}^2 collision is good).
      p.set_letter(t, rng.bernoulli(0.5) ? pauli::Letter::X : pauli::Letter::Y);
      RotationBlock b;
      b.string = p;
      b.target = t;
      b.angle_coeff = rng.uniform(-2, 2);
      seq.push_back(b);
    }
    const QuantumCircuit c = synthesize_sequence(n, seq, MergePolicy::kMerge);
    EXPECT_EQ(c.cnot_count(), sequence_model_cost(seq));
    expect_sequence_correct(n, seq, MergePolicy::kMerge);
  }
}

TEST(Su2, EulerDecompositionReconstructs) {
  // Check U = e^{i phase} Rz(a) Rx(b) Rz(g) for all basis-change diffs.
  const pauli::Letter letters[3] = {pauli::Letter::X, pauli::Letter::Y,
                                    pauli::Letter::Z};
  for (pauli::Letter l1 : letters) {
    for (pauli::Letter l2 : letters) {
      const Mat2 diff = basis_change(l2) * basis_change(l1).adjoint();
      const EulerZXZ e = euler_zxz(diff);
      // Rebuild.
      const Complex i{0, 1};
      const Mat2 rz_a{{std::exp(-i * (e.alpha / 2)), 0, 0,
                       std::exp(i * (e.alpha / 2))}};
      const Mat2 rz_g{{std::exp(-i * (e.gamma / 2)), 0, 0,
                       std::exp(i * (e.gamma / 2))}};
      const Mat2 rx{{std::cos(e.beta / 2), -i * std::sin(e.beta / 2),
                     -i * std::sin(e.beta / 2), std::cos(e.beta / 2)}};
      Mat2 rebuilt = rz_a * rx * rz_g;
      for (auto& v : rebuilt.m) v *= std::exp(i * e.phase);
      for (int k = 0; k < 4; ++k)
        EXPECT_NEAR(std::abs(rebuilt.m[k] - diff.m[k]), 0.0, 1e-10);
      // For differing letters beta must be a Clifford angle (odd multiple
      // of pi/2) so the merged XX rotation costs exactly one CNOT.
      if (l1 != l2) {
        const double b = std::abs(std::fmod(std::abs(e.beta), M_PI));
        EXPECT_NEAR(std::min(b, M_PI - b), M_PI / 2, 1e-9);
      }
    }
  }
}

}  // namespace
}  // namespace femto::synth
