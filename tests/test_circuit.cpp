// Tests for the gate IR and the peephole optimizer.
#include <gtest/gtest.h>

#include "circuit/peephole.hpp"
#include "circuit/quantum_circuit.hpp"
#include "common/rng.hpp"
#include "support/unitary.hpp"
#include "verify/equivalence.hpp"

namespace femto::circuit {
namespace {

TEST(Gate, CnotCosts) {
  EXPECT_EQ(Gate::cnot(0, 1).cnot_cost(), 1);
  EXPECT_EQ(Gate::cz(0, 1).cnot_cost(), 1);
  EXPECT_EQ(Gate::swap(0, 1).cnot_cost(), 3);
  EXPECT_EQ(Gate::h(0).cnot_cost(), 0);
  EXPECT_EQ(Gate::xxrot(0, 1, M_PI / 2).cnot_cost(), 1);
  EXPECT_EQ(Gate::xxrot(0, 1, -M_PI / 2).cnot_cost(), 1);
  EXPECT_EQ(Gate::xxrot(0, 1, 0.3).cnot_cost(), 2);
  EXPECT_EQ(Gate::xxrot(0, 1, 0.0).cnot_cost(), 0);
  EXPECT_EQ(Gate::xyrot(0, 1, 0.7).cnot_cost(), 2);
  EXPECT_EQ(Gate::xyrot(0, 1, 0.0).cnot_cost(), 0);
}

TEST(QuantumCircuit, StatsAndDepth) {
  QuantumCircuit c(3);
  c.append(Gate::h(0));
  c.append(Gate::cnot(0, 1));
  c.append(Gate::cnot(1, 2));
  c.append(Gate::rz(2, 0.5));
  EXPECT_EQ(c.cnot_count(), 2);
  EXPECT_EQ(c.single_qubit_count(), 2u);
  EXPECT_EQ(c.depth(), 4u);
}

TEST(QuantumCircuit, InverseIsInverse) {
  Rng rng(5);
  QuantumCircuit c(3);
  c.append(Gate::h(0));
  c.append(Gate::s(1));
  c.append(Gate::cnot(0, 2));
  c.append(Gate::rz(2, 0.37));
  c.append(Gate::rx(1, -0.8));
  c.append(Gate::xxrot(0, 1, 0.22));
  QuantumCircuit id(3);
  QuantumCircuit both = c;
  both.append(c.inverse());
  EXPECT_TRUE(oracle::circuits_equivalent(both, id));
}

TEST(Peephole, CancelsInversePairs) {
  QuantumCircuit c(2);
  c.append(Gate::h(0));
  c.append(Gate::h(0));
  c.append(Gate::cnot(0, 1));
  c.append(Gate::cnot(0, 1));
  c.append(Gate::s(1));
  c.append(Gate::sdg(1));
  const QuantumCircuit opt = peephole_optimize(c);
  EXPECT_TRUE(opt.empty());
}

TEST(Peephole, MergesRotations) {
  QuantumCircuit c(1);
  c.append(Gate::rz(0, 0.25));
  c.append(Gate::rz(0, 0.5));
  const QuantumCircuit opt = peephole_optimize(c);
  ASSERT_EQ(opt.size(), 1u);
  EXPECT_NEAR(opt.gates()[0].angle, 0.75, 1e-12);
  // Opposite angles vanish entirely.
  QuantumCircuit z(1);
  z.append(Gate::rz(0, 0.25));
  z.append(Gate::rz(0, -0.25));
  EXPECT_TRUE(peephole_optimize(z).empty());
}

TEST(Peephole, CancelsThroughCommutingGates) {
  // CNOT(0,1) Rz(0) CNOT(0,1): Rz on the control commutes, CNOTs cancel.
  QuantumCircuit c(2);
  c.append(Gate::cnot(0, 1));
  c.append(Gate::rz(0, 0.7));
  c.append(Gate::cnot(0, 1));
  const QuantumCircuit opt = peephole_optimize(c);
  EXPECT_EQ(opt.cnot_count(), 0);
  ASSERT_EQ(opt.size(), 1u);
  EXPECT_EQ(opt.gates()[0].kind, GateKind::kRz);
}

TEST(Peephole, CancelsThroughSharedTargetCnots) {
  // CNOT(0,2) CNOT(1,2) CNOT(0,2): outer pair shares target 2 with the
  // middle gate and must cancel.
  QuantumCircuit c(3);
  c.append(Gate::cnot(0, 2));
  c.append(Gate::cnot(1, 2));
  c.append(Gate::cnot(0, 2));
  const QuantumCircuit opt = peephole_optimize(c);
  EXPECT_EQ(opt.cnot_count(), 1);
}

TEST(Peephole, DoesNotCancelThroughBlockingGates) {
  // CNOT(0,1) H(0) CNOT(0,1): H blocks, nothing cancels.
  QuantumCircuit c(2);
  c.append(Gate::cnot(0, 1));
  c.append(Gate::h(0));
  c.append(Gate::cnot(0, 1));
  const QuantumCircuit opt = peephole_optimize(c);
  EXPECT_EQ(opt.cnot_count(), 2);
}

TEST(Peephole, PreservesUnitaryOnRandomCircuits) {
  Rng rng(29);
  for (int rep = 0; rep < 25; ++rep) {
    const std::size_t n = 3;
    QuantumCircuit c(n);
    for (int g = 0; g < 30; ++g) {
      switch (rng.index(7)) {
        case 0: c.append(Gate::h(rng.index(n))); break;
        case 1: c.append(Gate::s(rng.index(n))); break;
        case 2: c.append(Gate::sdg(rng.index(n))); break;
        case 3: c.append(Gate::rz(rng.index(n), rng.uniform(-1, 1))); break;
        case 4: c.append(Gate::x(rng.index(n))); break;
        default: {
          const std::size_t a = rng.index(n);
          std::size_t b = rng.index(n);
          if (a == b) b = (b + 1) % n;
          c.append(Gate::cnot(a, b));
        }
      }
    }
    const QuantumCircuit opt = peephole_optimize(c);
    EXPECT_LE(opt.size(), c.size());
    EXPECT_TRUE(oracle::circuits_equivalent(c, opt))
        << "rep " << rep << "\noriginal:\n" << c.to_string()
        << "optimized:\n" << opt.to_string();
  }
}

TEST(QuantumCircuit, InverseIsExactForEveryGateKind) {
  // Audit of the inverse() switch: every GateKind -- including the
  // parameterized / diagonal ones, where a silently-wrong self-inverse
  // default would hide -- must satisfy C . C^-1 == identity, certified by
  // the equivalence checker (symbolic in the variational parameters).
  const std::size_t n = 3;
  const verify::EquivalenceChecker checker;
  const std::vector<Gate> instances = {
      Gate::x(0),
      Gate::y(1),
      Gate::z(2),
      Gate::h(0),
      Gate::s(1),
      Gate::sdg(2),
      Gate::rz(0, 0.37),
      Gate::rz(1, -1.2, /*param=*/0),
      Gate::rx(1, 0.61),
      Gate::rx(2, 0.8, /*param=*/1),
      Gate::ry(2, -0.83),
      Gate::ry(0, 1.7, /*param=*/0),
      Gate::cnot(0, 2),
      Gate::cz(1, 2),
      Gate::swap(0, 1),
      Gate::xxrot(0, 1, 0.29),
      Gate::xxrot(1, 2, -0.4, /*param... literal*/ -1),
      Gate::xyrot(0, 2, 0.55),
      Gate::xyrot(1, 0, 0.9, /*param=*/1),
  };
  // Every GateKind is represented above.
  for (int k = 0; k <= static_cast<int>(GateKind::kXYrot); ++k) {
    bool covered = false;
    for (const Gate& g : instances)
      covered = covered || g.kind == static_cast<GateKind>(k);
    EXPECT_TRUE(covered) << "GateKind " << k << " missing from the audit";
  }
  for (const Gate& g : instances) {
    QuantumCircuit c(n);
    c.append(g);
    QuantumCircuit both = c;
    both.append(c.inverse());
    const auto report = checker.check(both, QuantumCircuit(n));
    EXPECT_TRUE(report.equivalent())
        << g.to_string() << ": " << report.to_string();
  }
  // And a mixed circuit over all of them at once.
  QuantumCircuit mixed(n);
  for (const Gate& g : instances) mixed.append(g);
  QuantumCircuit both = mixed;
  both.append(mixed.inverse());
  const auto report = checker.check(both, QuantumCircuit(n));
  EXPECT_TRUE(report.equivalent()) << report.to_string();
}

TEST(Peephole, DoesNotMergeTwoQubitRotationsAcrossDifferentPairs) {
  // Regression: XY(0,1) and XY(0,2) share q0 and the same parameter but act
  // on different pairs; merging them was a silent unitary change.
  QuantumCircuit c(3);
  c.append(Gate::xyrot(0, 1, 0.3, /*param=*/0));
  c.append(Gate::xyrot(0, 2, 0.3, /*param=*/0));
  const QuantumCircuit opt = peephole_optimize(c);
  EXPECT_EQ(opt.size(), 2u);
  // Swapped wire order on the same pair IS the same rotation and merges.
  QuantumCircuit same_pair(3);
  same_pair.append(Gate::xyrot(0, 1, 0.3, /*param=*/0));
  same_pair.append(Gate::xyrot(1, 0, 0.4, /*param=*/0));
  const QuantumCircuit merged = peephole_optimize(same_pair);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_NEAR(merged.gates()[0].angle, 0.7, 1e-12);
  const verify::EquivalenceChecker checker;
  EXPECT_TRUE(checker.check(same_pair, merged).equivalent());
}

TEST(Peephole, RulesCertifiedByEquivalenceCheckerOnRandomCircuits) {
  // Property test over the full gate surface (rotations, variational
  // parameters, structured two-qubit gates): every peephole rewrite must be
  // certified by the equivalence checker.
  Rng rng(31);
  const verify::EquivalenceChecker checker;
  for (int rep = 0; rep < 20; ++rep) {
    const std::size_t n = 4;
    QuantumCircuit c(n);
    for (int g = 0; g < 35; ++g) {
      const std::size_t a = rng.index(n);
      std::size_t b = rng.index(n);
      if (a == b) b = (b + 1) % n;
      switch (rng.index(12)) {
        case 0: c.append(Gate::h(a)); break;
        case 1: c.append(Gate::s(a)); break;
        case 2: c.append(Gate::sdg(a)); break;
        case 3: c.append(Gate::x(a)); break;
        case 4: c.append(Gate::y(a)); break;
        case 5:
          c.append(Gate::rz(a, rng.uniform(-2, 2),
                            rng.bernoulli(0.5) ? rng.range(0, 2) : -1));
          break;
        case 6: c.append(Gate::rx(a, rng.uniform(-2, 2))); break;
        case 7: c.append(Gate::ry(a, rng.uniform(-2, 2))); break;
        case 8: c.append(Gate::cnot(a, b)); break;
        case 9: c.append(Gate::cz(a, b)); break;
        case 10:
          c.append(Gate::xxrot(a, b, rng.uniform(-2, 2),
                               rng.bernoulli(0.5) ? rng.range(0, 2) : -1));
          break;
        default:
          c.append(Gate::xyrot(a, b, rng.uniform(-2, 2),
                               rng.bernoulli(0.5) ? rng.range(0, 2) : -1));
      }
    }
    const QuantumCircuit opt = peephole_optimize(c);
    EXPECT_LE(opt.size(), c.size());
    const auto report = checker.check(c, opt);
    EXPECT_TRUE(report.equivalent())
        << "rep " << rep << ": " << report.to_string() << "\noriginal:\n"
        << c.to_string() << "optimized:\n" << opt.to_string();
  }
}

TEST(Peephole, VariationalParamsMergeOnlySameParam) {
  QuantumCircuit c(1);
  c.append(Gate::rz(0, 1.0, 0));
  c.append(Gate::rz(0, 0.5, 0));
  c.append(Gate::rz(0, 1.0, 1));
  const QuantumCircuit opt = peephole_optimize(c);
  ASSERT_EQ(opt.size(), 2u);
  EXPECT_NEAR(opt.gates()[0].angle, 1.5, 1e-12);
  EXPECT_EQ(opt.gates()[0].param, 0);
  EXPECT_EQ(opt.gates()[1].param, 1);
}

}  // namespace
}  // namespace femto::circuit
