// Failure-injection tests: the library's contracts must fire on misuse
// (FEMTO_EXPECTS aborts), and rewrite passes must be idempotent and
// unitary-preserving under stress.
#include <gtest/gtest.h>

#include "circuit/peephole.hpp"
#include "common/rng.hpp"
#include "core/gamma_search.hpp"
#include "core/sorting.hpp"
#include "gf2/bitvec.hpp"
#include "gf2/matrix.hpp"
#include "pauli/pauli_string.hpp"
#include "sim/statevector.hpp"
#include "support/unitary.hpp"
#include "synth/pauli_exponential.hpp"

namespace femto {
namespace {

using circuit::Gate;
using circuit::QuantumCircuit;

TEST(Contracts, BitVecOutOfRangeAborts) {
  gf2::BitVec v(4);
  EXPECT_DEATH((void)v.get(4), "precondition");
  EXPECT_DEATH(v.set(7, true), "precondition");
}

TEST(Contracts, BitVecSizeMismatchAborts) {
  gf2::BitVec a(4), b(5);
  EXPECT_DEATH((void)(a ^ b), "precondition");
  EXPECT_DEATH((void)a.dot(b), "precondition");
}

TEST(Contracts, MatrixRowAddSelfAborts) {
  gf2::Matrix m = gf2::Matrix::identity(3);
  EXPECT_DEATH(m.add_row(1, 1), "precondition");
}

TEST(Contracts, GateSameQubitTwoQubitAborts) {
  EXPECT_DEATH((void)Gate::cnot(2, 2), "precondition");
  EXPECT_DEATH((void)Gate::swap(0, 0), "precondition");
}

TEST(Contracts, CircuitQubitBoundsAborts) {
  QuantumCircuit c(2);
  EXPECT_DEATH(c.append(Gate::h(2)), "precondition");
  EXPECT_DEATH(c.append(Gate::cnot(0, 3)), "precondition");
}

TEST(Contracts, SynthesisRejectsIdentityTarget) {
  synth::RotationBlock b;
  b.string = pauli::PauliString::from_string("XI");
  b.target = 1;  // identity site
  b.angle_coeff = 0.5;
  EXPECT_DEATH((void)synth::synthesize_sequence(2, {b}), "precondition");
}

TEST(Contracts, BaselineSortNeedsASharedSupportQubit) {
  // The strings of one term must share a support qubit (the shared-target
  // candidates); two blocks with disjoint support have none.
  synth::RotationBlock a;
  a.string = pauli::PauliString::from_string("XXII");
  a.target = 0;
  synth::RotationBlock b;
  b.string = pauli::PauliString::from_string("IIZY");
  b.target = 2;
  EXPECT_DEATH((void)core::sort_baseline({{a, b}}),
               "the blocks of a term share a support qubit");
}

TEST(Contracts, GammaObjectiveTakesOnlyAConstrainedDevice) {
  // An unconstrained target is scored by the default model (a null target);
  // the objective refuses one instead of keeping a device path for it.
  const std::vector<std::vector<synth::RotationBlock>> no_terms;
  const synth::HardwareTarget xx = synth::HardwareTarget::trapped_ion_xx();
  const synth::HardwareTarget cnot = synth::HardwareTarget::all_to_all_cnot();
  EXPECT_DEATH(core::GammaObjective(4, no_terms, &xx), "precondition");
  EXPECT_DEATH(core::GammaObjective(4, no_terms, &cnot), "precondition");
  const synth::HardwareTarget chain = synth::HardwareTarget::linear_nn(4);
  core::GammaObjective objective(4, no_terms, &chain);
  objective.reset(gf2::Matrix::identity(4));
  EXPECT_EQ(objective.energy(), 0.0);
}

TEST(Contracts, StateVectorHermitianExpOnly) {
  sim::StateVector sv(2);
  pauli::PauliString p = pauli::PauliString::from_string("XZ");
  p.set_phase_exponent(p.phase_exponent() + 1);  // i * XZ: not Hermitian
  EXPECT_DEATH(sv.apply_pauli_exp(p, 0.3), "precondition");
}

TEST(PeepholeStress, IdempotentOnRandomCircuits) {
  Rng rng(71);
  for (int rep = 0; rep < 10; ++rep) {
    const std::size_t n = 4;
    QuantumCircuit c(n);
    for (int g = 0; g < 60; ++g) {
      switch (rng.index(8)) {
        case 0: c.append(Gate::h(rng.index(n))); break;
        case 1: c.append(Gate::s(rng.index(n))); break;
        case 2: c.append(Gate::x(rng.index(n))); break;
        case 3: c.append(Gate::rz(rng.index(n), rng.uniform(-2, 2))); break;
        case 4: c.append(Gate::rx(rng.index(n), rng.uniform(-2, 2))); break;
        default: {
          const std::size_t a = rng.index(n);
          const std::size_t b = (a + 1 + rng.index(n - 1)) % n;
          c.append(rng.bernoulli(0.8) ? Gate::cnot(a, b)
                                      : Gate::xxrot(a, b, rng.uniform(-2, 2)));
        }
      }
    }
    const QuantumCircuit once = circuit::peephole_optimize(c);
    const QuantumCircuit twice = circuit::peephole_optimize(once);
    EXPECT_EQ(once.size(), twice.size());
    EXPECT_TRUE(oracle::circuits_equivalent(c, once));
  }
}

TEST(CircuitStress, InverseRoundTripAllGateKinds) {
  Rng rng(73);
  QuantumCircuit c(4);
  c.append(Gate::h(0));
  c.append(Gate::s(1));
  c.append(Gate::sdg(2));
  c.append(Gate::x(3));
  c.append(Gate::y(0));
  c.append(Gate::z(1));
  c.append(Gate::rz(2, 0.3));
  c.append(Gate::rx(3, -0.7));
  c.append(Gate::ry(0, 1.1));
  c.append(Gate::cnot(0, 1));
  c.append(Gate::cz(1, 2));
  c.append(Gate::swap(2, 3));
  c.append(Gate::xxrot(0, 3, 0.45));
  c.append(Gate::xyrot(1, 2, -0.6));
  QuantumCircuit round = c;
  round.append(c.inverse());
  EXPECT_TRUE(oracle::circuits_equivalent(round, QuantumCircuit(4)));
}

TEST(SynthesisStress, LongMixedSequencesStayUnitary) {
  // 12 random blocks, random targets, merge policy on: the emitted circuit
  // must implement exactly the product of exponentials.
  Rng rng(79);
  const std::size_t n = 4;
  std::vector<synth::RotationBlock> seq;
  for (int k = 0; k < 12; ++k) {
    pauli::PauliString p(n);
    std::size_t weight = 0;
    while (weight == 0) {
      for (std::size_t q = 0; q < n; ++q)
        p.set_letter(q, static_cast<pauli::Letter>(rng.index(4)));
      weight = p.weight();
    }
    synth::RotationBlock b;
    b.string = p;
    std::vector<std::size_t> targets;
    for (std::size_t q = 0; q < n; ++q)
      if (p.letter(q) != pauli::Letter::I) targets.push_back(q);
    b.target = targets[rng.index(targets.size())];
    b.angle_coeff = rng.uniform(-1.5, 1.5);
    seq.push_back(b);
  }
  const auto circ = synth::synthesize_sequence(n, seq);
  for (std::size_t input = 0; input < (std::size_t{1} << n); ++input) {
    sim::StateVector expect = sim::StateVector::basis_state(n, input);
    for (const auto& b : seq) expect.apply_pauli_exp(b.string, b.angle_coeff);
    sim::StateVector actual = sim::StateVector::basis_state(n, input);
    actual.apply_circuit(circ);
    EXPECT_NEAR(std::abs(expect.inner(actual)), 1.0, 1e-9) << input;
  }
}

}  // namespace
}  // namespace femto
