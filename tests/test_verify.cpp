// Tests for the verification subsystem (verify/): symbolic Pauli
// propagation, the tiered EquivalenceChecker, compilation-spec certification
// and the cross-encoding frame identity C_adv * U_Gamma == U_Gamma * C_jw --
// including at qubit counts (30+) where dense comparison is impossible.
#include <gtest/gtest.h>

#include <vector>

#include "chem/integrals.hpp"
#include "chem/mo_integrals.hpp"
#include "chem/molecules.hpp"
#include "chem/scf.hpp"
#include "circuit/peephole.hpp"
#include "common/rng.hpp"
#include "core/compiler.hpp"
#include "gf2/linear_synthesis.hpp"
#include "synth/pauli_exponential.hpp"
#include "verify/equivalence.hpp"
#include "verify/test_support.hpp"
#include "vqe/uccsd.hpp"

namespace femto::verify {
namespace {

using circuit::Gate;
using circuit::GateKind;
using circuit::QuantumCircuit;

/// Trimmed solver knobs (same spirit as test_pipeline.cpp).
core::CompileOptions fast_options() {
  core::CompileOptions o;
  o.coloring_orders = 8;
  o.sa_options = {2.0, 0.05, 150, 0};
  o.pso_options.particles = 8;
  o.pso_options.iterations = 15;
  o.gtsp_options.population = 12;
  o.gtsp_options.generations = 30;
  o.gtsp_options.stagnation_limit = 15;
  return o;
}

struct Fixture {
  std::size_t n = 0;
  std::vector<fermion::ExcitationTerm> terms;
};

Fixture molecule_terms(const chem::Molecule& mol, std::size_t keep) {
  auto basis = chem::build_sto3g(mol);
  chem::normalize_basis(basis);
  const auto ints = chem::compute_integrals(mol, basis);
  const auto scf = chem::run_rhf(mol, ints);
  const auto mo = chem::transform_to_mo(mol, ints, scf);
  const auto so = chem::to_spin_orbitals(mo);
  Fixture f;
  f.n = so.n;
  f.terms = vqe::uccsd_hmp2_terms(so);
  if (f.terms.size() > keep) f.terms.resize(keep);
  return f;
}

const Fixture& lih() {
  static const Fixture f = molecule_terms(chem::make_lih(), 4);
  return f;
}

const Fixture& water() {
  static const Fixture f = molecule_terms(chem::make_h2o(), 4);
  return f;
}

TEST(PauliPropagation, SynthesisPoliciesAgreeSymbolicallyAt32Qubits) {
  // kMerge and kNone emit very different gate streams for the same block
  // sequence; symbolic propagation must certify them equal far beyond
  // statevector reach (the dense tier stops at kDenseMaxQubits).
  Rng rng(3);
  const std::size_t n = 32;
  const EquivalenceChecker checker;
  for (int rep = 0; rep < 3; ++rep) {
    const auto blocks = testing::random_rotation_blocks(n, 25, rng);
    const QuantumCircuit merged =
        synth::synthesize_sequence(n, blocks, synth::MergePolicy::kMerge);
    const QuantumCircuit plain =
        synth::synthesize_sequence(n, blocks, synth::MergePolicy::kNone);
    const EquivalenceReport report = checker.check(merged, plain);
    EXPECT_TRUE(report.equivalent()) << report.to_string();
    EXPECT_EQ(report.method, EquivalenceMethod::kPauliPropagation);
    // Both also certify against the block spec itself.
    const EquivalenceReport vs_spec =
        checker.check_spec(merged, make_spec(blocks));
    EXPECT_TRUE(vs_spec.equivalent()) << vs_spec.to_string();
    EXPECT_EQ(vs_spec.method, EquivalenceMethod::kPauliPropagation);
  }
}

TEST(PauliPropagation, CorruptedCircuitRejectedWithLocalizedReport) {
  Rng rng(5);
  const std::size_t n = 32;
  const EquivalenceChecker checker;
  const auto blocks = testing::random_rotation_blocks(n, 20, rng);
  QuantumCircuit circuit = synth::synthesize_sequence(n, blocks);
  ASSERT_TRUE(checker.check_spec(circuit, make_spec(blocks)).equivalent());
  // Flip one CNOT's direction mid-circuit: a single-gate corruption.
  const std::size_t flipped =
      testing::flip_first_cnot(circuit, circuit.size() / 2);
  ASSERT_LT(flipped, circuit.size());
  const EquivalenceReport report = checker.check_spec(circuit, make_spec(blocks));
  EXPECT_FALSE(report.equivalent());
  EXPECT_EQ(report.status, EquivalenceStatus::kNotEquivalent);
  EXPECT_EQ(report.method, EquivalenceMethod::kPauliPropagation);
  EXPECT_FALSE(report.detail.empty());
  // The report localizes the divergence: either a rotation index or a named
  // tableau generator.
  EXPECT_TRUE(report.mismatch_index != EquivalenceReport::kNoIndex ||
              report.detail.find("image of") != std::string::npos)
      << report.to_string();
}

TEST(PauliPropagation, CertifiesPeepholeOnRandomMixedCircuits) {
  Rng rng(7);
  const std::size_t n = 4;
  const EquivalenceChecker checker;
  for (int rep = 0; rep < 20; ++rep) {
    QuantumCircuit c(n);
    for (int g = 0; g < 40; ++g) {
      const std::size_t a = rng.index(n);
      std::size_t b = rng.index(n);
      if (a == b) b = (b + 1) % n;
      switch (rng.index(10)) {
        case 0: c.append(Gate::h(a)); break;
        case 1: c.append(Gate::s(a)); break;
        case 2: c.append(Gate::sdg(a)); break;
        case 3: c.append(Gate::x(a)); break;
        case 4: c.append(Gate::rz(a, rng.uniform(-2, 2),
                                  rng.bernoulli(0.5) ? 0 : -1));
                break;
        case 5: c.append(Gate::ry(a, rng.uniform(-2, 2))); break;
        case 6: c.append(Gate::cnot(a, b)); break;
        case 7: c.append(Gate::cz(a, b)); break;
        case 8: c.append(Gate::xxrot(a, b, rng.uniform(-2, 2))); break;
        default:
          c.append(Gate::xyrot(a, b, rng.uniform(-2, 2),
                               rng.bernoulli(0.5) ? 1 : -1));
      }
    }
    const QuantumCircuit opt = circuit::peephole_optimize(c);
    const EquivalenceReport report = checker.check(c, opt);
    EXPECT_TRUE(report.equivalent())
        << report.to_string() << "\noriginal:\n" << c.to_string()
        << "optimized:\n" << opt.to_string();
  }
}

TEST(EquivalenceChecker, CliffordTierIsExactAndLocalizes) {
  Rng rng(13);
  const std::size_t n = 24;  // beyond dense reach, trivial for the tableau
  QuantumCircuit c(n);
  for (int g = 0; g < 300; ++g) {
    const std::size_t a = rng.index(n);
    std::size_t b = rng.index(n);
    if (a == b) b = (b + 1) % n;
    switch (rng.index(4)) {
      case 0: c.append(Gate::h(a)); break;
      case 1: c.append(Gate::s(a)); break;
      case 2: c.append(Gate::cz(a, b)); break;
      default: c.append(Gate::cnot(a, b));
    }
  }
  const EquivalenceChecker checker;
  // A circuit and its peephole-optimized form: tier-1 certificate.
  const EquivalenceReport ok = checker.check(c, circuit::peephole_optimize(c));
  EXPECT_TRUE(ok.equivalent()) << ok.to_string();
  EXPECT_EQ(ok.method, EquivalenceMethod::kCliffordTableau);
  // One extra S gate: rejected by the same tier with a named generator.
  QuantumCircuit corrupted = c;
  corrupted.append(Gate::s(n / 2));
  const EquivalenceReport bad = checker.check(c, corrupted);
  EXPECT_EQ(bad.status, EquivalenceStatus::kNotEquivalent);
  EXPECT_EQ(bad.method, EquivalenceMethod::kCliffordTableau);
  EXPECT_NE(bad.detail.find("image of"), std::string::npos) << bad.to_string();
}

TEST(EquivalenceChecker, DenseTierArbitratesLiteralAngles) {
  QuantumCircuit a(1);
  a.append(Gate::rz(0, 0.3));
  QuantumCircuit b(1);
  b.append(Gate::rz(0, 0.4));
  const EquivalenceChecker checker;
  const EquivalenceReport report = checker.check(a, b);
  EXPECT_EQ(report.status, EquivalenceStatus::kNotEquivalent);
  EXPECT_EQ(report.method, EquivalenceMethod::kDenseSpotCheck);
  // The symbolic tier alone already rejects them: the dense tier only
  // arbitrates its verdict.
  const EquivalenceReport symbolic =
      checker.compare_forms(propagate_circuit(a, kEquivalenceTol),
                            propagate_circuit(b, kEquivalenceTol));
  EXPECT_EQ(symbolic.status, EquivalenceStatus::kNotEquivalent);
  EXPECT_EQ(symbolic.method, EquivalenceMethod::kPauliPropagation);
  EXPECT_EQ(symbolic.mismatch_index, 0u);
}

TEST(EquivalenceChecker, DenseArbiterRejectsLiteralAngleCounterexample) {
  // Literal-angle (parameter-free) circuits with genuinely different Rx
  // angles: tier 2 flags them and a dense trial is the counterexample.
  QuantumCircuit a(3), b(3);
  Gate g;
  g.kind = GateKind::kH;
  g.q0 = 0;
  a.append(g);
  b.append(g);
  g.kind = GateKind::kRx;
  g.q0 = 1;
  g.angle = 0.5;
  a.append(g);
  g.angle = 0.9;  // genuinely different unitary
  b.append(g);
  const EquivalenceChecker checker;
  const EquivalenceReport report = checker.check(a, b);
  EXPECT_EQ(report.status, EquivalenceStatus::kNotEquivalent);
  EXPECT_EQ(report.method, EquivalenceMethod::kDenseSpotCheck);
  EXPECT_TRUE(report.proven);
}

TEST(EquivalenceChecker, DenseArbiterAcceptsNearIdenticalLiteralAngles) {
  // An angle difference below dense resolution but above the symbolic
  // tolerance: tier 2 flags it, the dense arbiter waves it through as
  // probabilistic equivalence -- the literal-angle corner case tier 3
  // exists for.
  QuantumCircuit a(3), b(3);
  Gate g;
  g.kind = GateKind::kRx;
  g.q0 = 2;
  g.angle = 0.5;
  a.append(g);
  g.angle = 0.5 + 1e-7;
  b.append(g);
  const EquivalenceChecker checker;
  const EquivalenceReport report = checker.check(a, b);
  EXPECT_EQ(report.status, EquivalenceStatus::kEquivalent);
  EXPECT_EQ(report.method, EquivalenceMethod::kDenseSpotCheck);
  EXPECT_FALSE(report.proven);
}

TEST(EquivalenceChecker, CompiledResultsCertifyAgainstTheirSpecs) {
  const Fixture& f = lih();
  const EquivalenceChecker checker;
  // The advanced pipeline (hybrid compression + SA Gamma + GTSP sorting)
  // and the baseline of [9] both emit circuits that must implement their
  // recorded specs exactly.
  core::CompileOptions adv = fast_options();
  core::CompileOptions base = fast_options();
  base.transform = core::TransformKind::kJordanWigner;
  base.sorting = core::SortingMode::kBaseline;
  base.compression = core::CompressionMode::kBosonicOnly;
  for (const core::CompileOptions& options : {adv, base}) {
    const core::CompileResult result =
        core::compile_vqe(f.n, f.terms, options);
    ASSERT_FALSE(result.spec.empty());
    const EquivalenceReport report =
        checker.check_spec(result.circuit, result.spec);
    EXPECT_TRUE(report.equivalent()) << report.to_string();
    // A corrupted emission is caught.
    core::CompileResult corrupted = result;
    for (Gate& g : corrupted.circuit.mutable_gates()) {
      if (g.kind == GateKind::kCnot) {
        std::swap(g.q0, g.q1);
        break;
      }
    }
    EXPECT_FALSE(
        checker.check_spec(corrupted.circuit, corrupted.spec).equivalent());
  }
}

TEST(EquivalenceChecker, CrossEncodingWaterCompilationsEquivalent) {
  // Two independent compilations of the same water plan -- Jordan-Wigner vs
  // the annealed Gamma encoding -- are different circuits implementing
  // U_Gamma C_jw U_Gamma^dag. The checker certifies the frame identity
  // C_adv . U_Gamma == U_Gamma . C_jw symbolically at n = 14, where dense
  // unitary comparison is already infeasible.
  const Fixture& f = water();
  core::CompileOptions options = fast_options();
  options.compression = core::CompressionMode::kNone;
  options.sorting = core::SortingMode::kNone;
  options.transform = core::TransformKind::kJordanWigner;
  const core::CompileResult jw = core::compile_vqe(f.n, f.terms, options);

  const EquivalenceChecker checker;  // n = 14: must succeed symbolically
  const auto check_frame = [&](const core::CompileResult& other) {
    ASSERT_EQ(jw.term_order, other.term_order);  // same plan, same seed
    const QuantumCircuit gamma_network =
        testing::cnot_network_circuit(f.n, other.gamma);
    QuantumCircuit lhs(f.n);  // C_other * U_Gamma: network first, then circuit
    lhs.append(gamma_network);
    lhs.append(other.circuit);
    QuantumCircuit rhs(f.n);  // U_Gamma * C_jw
    rhs.append(jw.circuit);
    rhs.append(gamma_network);
    const EquivalenceReport report = checker.check(lhs, rhs);
    EXPECT_TRUE(report.equivalent()) << report.to_string();
    EXPECT_EQ(report.method, EquivalenceMethod::kPauliPropagation);
  };

  // Bravyi-Kitaev: the Fenwick Gamma is never identity, so the two circuits
  // are guaranteed-different gate streams and the certificate does real
  // work.
  options.transform = core::TransformKind::kBravyiKitaev;
  const core::CompileResult bk = core::compile_vqe(f.n, f.terms, options);
  ASSERT_FALSE(bk.gamma == gf2::Matrix::identity(f.n));
  EXPECT_NE(jw.circuit.to_string(), bk.circuit.to_string());
  check_frame(bk);

  // The annealed Gamma of the advanced transform (may legitimately fall
  // back to identity on small instances; the frame identity holds either
  // way).
  options.transform = core::TransformKind::kAdvanced;
  check_frame(core::compile_vqe(f.n, f.terms, options));
}

TEST(EquivalenceChecker, InverseCircuitCancelsSymbolically) {
  Rng rng(17);
  const std::size_t n = 30;
  const EquivalenceChecker checker;
  const auto blocks = testing::random_rotation_blocks(n, 15, rng);
  const QuantumCircuit c = synth::synthesize_sequence(n, blocks);
  QuantumCircuit both = c;
  both.append(c.inverse());
  const EquivalenceReport report = checker.check(both, QuantumCircuit(n));
  EXPECT_TRUE(report.equivalent()) << report.to_string();
  EXPECT_EQ(report.method, EquivalenceMethod::kPauliPropagation);
}

}  // namespace
}  // namespace femto::verify
