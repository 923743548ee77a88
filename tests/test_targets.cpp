// Hardware-target abstraction tests: routing, native-gate lowering, the
// target-parameterized cost model, and the compile-stack integration.
//
// The load-bearing properties:
//  * all_to_all_cnot is a bit-identical regression anchor: same model
//    cost, same circuit, same restart winners as the target-free pipeline.
//  * model-vs-emission consistency: for randomized good-interface rotation
//    block sequences, sequence_model_cost(seq, target) equals the native
//    entangler count of the emitted (and lowered) circuit -- for both
//    unconstrained targets -- and routed emission costs exactly
//    unrouted + 3 * swaps for the nearest-neighbor target.
//  * every lowering/routing pass preserves the unitary, certified by the
//    equivalence checker (symbolically; dense-arbitrated at small n).
#include <gtest/gtest.h>

#include <cmath>

#include "chem/integrals.hpp"
#include "chem/mo_integrals.hpp"
#include "chem/molecules.hpp"
#include "chem/scf.hpp"
#include "circuit/routing.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "sim/statevector.hpp"
#include "synth/pauli_exponential.hpp"
#include "synth/target.hpp"
#include "verify/equivalence.hpp"
#include "vqe/uccsd.hpp"

namespace femto {
namespace {

using circuit::CouplingMap;
using circuit::Gate;
using circuit::QuantumCircuit;
using pauli::PauliString;
using synth::EntanglerKind;
using synth::HardwareTarget;
using synth::RotationBlock;

// ---- coupling map + router ------------------------------------------------

TEST(CouplingMap, LineDistancesAndHops) {
  const CouplingMap line = CouplingMap::line(5);
  EXPECT_TRUE(line.constrained());
  EXPECT_EQ(line.distance(0, 4), 4u);
  EXPECT_EQ(line.distance(2, 2), 0u);
  EXPECT_TRUE(line.adjacent(1, 2));
  EXPECT_FALSE(line.adjacent(0, 2));
  EXPECT_EQ(line.next_hop(0, 4), 1u);
  EXPECT_EQ(line.next_hop(4, 0), 3u);
  EXPECT_EQ(line.validate(5), "");
  EXPECT_NE(line.validate(6), "");  // device smaller than circuit

  const CouplingMap ring = CouplingMap::ring(6);
  EXPECT_EQ(ring.distance(0, 5), 1u);
  EXPECT_EQ(ring.distance(0, 3), 3u);
}

TEST(CouplingMap, DisconnectedIsDiagnosed) {
  const CouplingMap broken(4, {{0, 1}, {2, 3}});
  EXPECT_NE(broken.validate(4), "");
  EXPECT_NE(broken.validate(4).find("disconnected"), std::string::npos);
}

TEST(Routing, AdjacencyAndPermutationRestore) {
  Rng rng(11);
  const verify::EquivalenceChecker checker;
  for (int rep = 0; rep < 12; ++rep) {
    const std::size_t n = 4 + rng.index(3);  // 4..6
    QuantumCircuit c(n);
    const int gates = 6 + static_cast<int>(rng.index(10));
    for (int g = 0; g < gates; ++g) {
      const std::size_t a = rng.index(n);
      std::size_t b = rng.index(n);
      while (b == a) b = rng.index(n);
      switch (rng.index(4)) {
        case 0: c.append(Gate::cnot(a, b)); break;
        case 1: c.append(Gate::h(a)); break;
        case 2: c.append(Gate::rz(a, rng.uniform(-2, 2), g % 3)); break;
        default: c.append(Gate::xxrot(a, b, rng.uniform(-2, 2), g % 3)); break;
      }
    }
    const CouplingMap line = CouplingMap::line(n);
    const circuit::RoutingResult routed = circuit::route_circuit(c, line);
    EXPECT_TRUE(circuit::respects_coupling(routed.circuit, line));
    // Permutation restored => same unitary; certify it.
    const verify::EquivalenceReport report = checker.check(c, routed.circuit);
    EXPECT_TRUE(report.equivalent()) << report.to_string();
    // Accounting: routed cost = original + 3 CNOTs per inserted SWAP.
    EXPECT_EQ(routed.circuit.cnot_count(),
              c.cnot_count() + 3 * routed.swaps_inserted);
  }
}

TEST(Routing, RingBeatsLineOnWrapAroundPairs) {
  QuantumCircuit c(6);
  c.append(Gate::cnot(0, 5));
  const auto on_line = circuit::route_circuit(c, CouplingMap::line(6));
  const auto on_ring = circuit::route_circuit(c, CouplingMap::ring(6));
  EXPECT_EQ(on_ring.swaps_inserted, 0);
  EXPECT_GT(on_line.swaps_inserted, 0);
}

// ---- native-gate lowering -------------------------------------------------

/// Dense check that two circuits agree on every basis state up to one global
/// phase (small n only).
void expect_same_unitary(const QuantumCircuit& a, const QuantumCircuit& b,
                         int num_params = 0) {
  ASSERT_EQ(a.num_qubits(), b.num_qubits());
  Rng rng(77);
  std::vector<double> params(static_cast<std::size_t>(num_params));
  for (double& p : params) p = rng.uniform(-2.0, 2.0);
  const std::size_t n = a.num_qubits();
  sim::Complex phase{0, 0};
  for (std::size_t input = 0; input < (std::size_t{1} << n); ++input) {
    sim::StateVector sa = sim::StateVector::basis_state(n, input);
    sim::StateVector sb = sim::StateVector::basis_state(n, input);
    sa.apply_circuit(a, params);
    sb.apply_circuit(b, params);
    for (std::size_t i = 0; i < sa.dim(); ++i) {
      if (std::abs(phase) < 0.5 && std::abs(sa.amplitude(i)) > 1e-9 &&
          std::abs(sb.amplitude(i)) > 1e-9)
        phase = sa.amplitude(i) / sb.amplitude(i);
      if (std::abs(phase) > 0.5) {
        EXPECT_NEAR(std::abs(sa.amplitude(i) - phase * sb.amplitude(i)), 0.0,
                    1e-9)
            << "input " << input << " amp " << i;
      }
    }
  }
}

TEST(Lowering, MsUnitImplementsCnot) {
  for (const auto& [c, t] : {std::pair<std::size_t, std::size_t>{0, 1},
                             {1, 0}}) {
    QuantumCircuit cnot(2);
    cnot.append(Gate::cnot(c, t));
    const QuantumCircuit lowered =
        synth::lower_to_target(cnot, HardwareTarget::trapped_ion_xx());
    expect_same_unitary(cnot, lowered);
    EXPECT_EQ(HardwareTarget::trapped_ion_xx().circuit_cost(lowered), 1);
    for (const Gate& g : lowered.gates())
      EXPECT_NE(g.kind, circuit::GateKind::kCnot);
  }
}

TEST(Lowering, EveryTwoQubitKindLowersExactly) {
  const HardwareTarget xx = HardwareTarget::trapped_ion_xx();
  QuantumCircuit all(3);
  all.append(Gate::cnot(0, 1));
  all.append(Gate::cz(1, 2));
  all.append(Gate::swap(0, 2));
  all.append(Gate::xyrot(0, 1, 0.7, 0));
  all.append(Gate::xxrot(1, 2, 0.4, 1));
  const QuantumCircuit lowered = synth::lower_to_target(all, xx);
  for (const Gate& g : lowered.gates())
    EXPECT_TRUE(!g.two_qubit() || g.kind == circuit::GateKind::kXXrot)
        << g.to_string();
  expect_same_unitary(all, lowered, 2);
  // CNOT 1 + CZ 1 + SWAP 3 + XY 2 + XX 1 native pulses.
  EXPECT_EQ(xx.circuit_cost(lowered), 8);
}

TEST(Lowering, RoutedAndLoweredComposes) {
  // A linear_nn-style coupling combined with an XX entangler: route first,
  // then lower; unitary preserved end to end.
  HardwareTarget t;
  t.name = "nn_xx";
  t.entangler = EntanglerKind::kXX;
  t.coupling = CouplingMap::line(4);
  QuantumCircuit c(4);
  c.append(Gate::cnot(0, 3));
  c.append(Gate::rz(1, 0.3, 0));
  c.append(Gate::cnot(1, 2));
  int swaps = 0;
  const QuantumCircuit lowered = synth::lower_to_target(c, t, &swaps);
  EXPECT_GT(swaps, 0);
  expect_same_unitary(c, lowered, 1);
}

// ---- target cost model ----------------------------------------------------

TEST(TargetCostModel, AllToAllDelegatesToLegacy) {
  const HardwareTarget legacy = HardwareTarget::all_to_all_cnot();
  Rng rng(5);
  for (int rep = 0; rep < 50; ++rep) {
    PauliString p(6);
    std::size_t weight = 0;
    while (weight < 2) {
      for (std::size_t q = 0; q < 6; ++q)
        p.set_letter(q, static_cast<pauli::Letter>(rng.index(4)));
      weight = p.weight();
    }
    std::vector<std::size_t> support;
    for (std::size_t q = 0; q < 6; ++q)
      if (p.letter(q) != pauli::Letter::I) support.push_back(q);
    const std::size_t t = support[rng.index(support.size())];
    EXPECT_EQ(synth::string_cost(p, t, legacy), synth::string_cost(p));
  }
}

TEST(TargetCostModel, XxStringCostIs2wMinus3) {
  const HardwareTarget xx = HardwareTarget::trapped_ion_xx();
  EXPECT_EQ(synth::string_cost(PauliString::from_string("XY"), 0, xx), 1);
  EXPECT_EQ(synth::string_cost(PauliString::from_string("XXXY"), 3, xx), 5);
  EXPECT_EQ(synth::string_cost(PauliString::from_string("IZII"), 1, xx), 0);
  // CNOT counterparts: 2, 6, 0.
  EXPECT_EQ(synth::string_cost(PauliString::from_string("XY")), 2);
  EXPECT_EQ(synth::string_cost(PauliString::from_string("XXXY")), 6);
}

TEST(TargetCostModel, XxInterfaceSkipsPartnerWires) {
  // Fig. 4 anchor, re-costed: P1 = XXXY, P2 = XXYX, shared target q3.
  // Partner of both is q2 (highest support != target): CNOT saving 5 loses
  // the omega-1 credit on q2 -> 4 in native pulses.
  const PauliString p1 = PauliString::from_string("XXXY");
  const PauliString p2 = PauliString::from_string("XXYX");
  const HardwareTarget xx = HardwareTarget::trapped_ion_xx();
  EXPECT_EQ(synth::interface_saving(p1, 3, p2, 3), 5);
  EXPECT_EQ(synth::interface_saving(p1, 3, p2, 3, xx), 4);
  // Model sequence cost: 5 + 5 - 4 = 6 pulses (CNOT model: 6 + 6 - 5 = 7).
  std::vector<RotationBlock> seq(2);
  seq[0].string = p1;
  seq[0].target = 3;
  seq[0].angle_coeff = 0.31;
  seq[1].string = p2;
  seq[1].target = 3;
  seq[1].angle_coeff = -0.57;
  EXPECT_EQ(synth::sequence_model_cost(seq, xx), 6);
  const QuantumCircuit c =
      synth::synthesize_sequence(4, seq, synth::MergePolicy::kMerge,
                                 EntanglerKind::kXX);
  EXPECT_EQ(xx.circuit_cost(c), 6);
}

// ---- model-vs-emission property test (satellite) --------------------------

/// Random rotation-block sequence whose consecutive interfaces are either
/// target-disjoint or good collisions (the regime where the model is the
/// exact emission count, for CNOT and XX targets alike). Mirrors the
/// sorter's contract: same-letter strings are never adjacent.
[[nodiscard]] std::vector<RotationBlock> random_good_sequence(Rng& rng,
                                                              std::size_t n,
                                                              int blocks) {
  std::vector<RotationBlock> seq;
  for (int k = 0; k < blocks; ++k) {
    for (int attempt = 0; attempt < 200; ++attempt) {
      PauliString p(n);
      std::size_t weight = 0;
      for (std::size_t q = 0; q < n; ++q)
        p.set_letter(q, static_cast<pauli::Letter>(rng.index(4)));
      weight = p.weight();
      if (weight == 0) continue;
      std::vector<std::size_t> support;
      for (std::size_t q = 0; q < n; ++q)
        if (p.letter(q) != pauli::Letter::I) support.push_back(q);
      RotationBlock b;
      b.string = p;
      b.target = support[rng.index(support.size())];
      b.angle_coeff = rng.uniform(-2, 2);
      b.param = k;  // distinct parameters, as the compiler emits
      if (!seq.empty()) {
        const RotationBlock& prev = seq.back();
        if (prev.string.same_letters(b.string)) continue;
        if (prev.target == b.target &&
            !synth::target_collision_good(prev.string.letter(b.target),
                                          b.string.letter(b.target)))
          continue;  // bad collision: the model is not the emission count
      }
      seq.push_back(std::move(b));
      break;
    }
  }
  return seq;
}

TEST(TargetCostModel, ModelEqualsEmissionForUnconstrainedTargets) {
  Rng rng(20230306);
  const verify::EquivalenceChecker checker;
  const HardwareTarget cnot = HardwareTarget::all_to_all_cnot();
  const HardwareTarget xx = HardwareTarget::trapped_ion_xx();
  for (int rep = 0; rep < 40; ++rep) {
    const std::size_t n = 2 + rng.index(9);  // 2..10 qubits
    const int blocks = 2 + static_cast<int>(rng.index(5));
    const std::vector<RotationBlock> seq = random_good_sequence(rng, n, blocks);
    if (seq.size() < 2) continue;
    const QuantumCircuit c_cnot = synth::synthesize_sequence(
        n, seq, synth::MergePolicy::kMerge, EntanglerKind::kCnot);
    const QuantumCircuit c_xx = synth::synthesize_sequence(
        n, seq, synth::MergePolicy::kMerge, EntanglerKind::kXX);
    EXPECT_EQ(cnot.circuit_cost(c_cnot), synth::sequence_model_cost(seq, cnot))
        << "CNOT target, n=" << n << " rep=" << rep;
    EXPECT_EQ(xx.circuit_cost(c_xx), synth::sequence_model_cost(seq, xx))
        << "XX target, n=" << n << " rep=" << rep;
    // Both emissions implement the same unitary as the spec.
    const verify::CompilationSpec spec = verify::make_spec(seq);
    EXPECT_TRUE(checker.check_spec(c_cnot, spec).equivalent());
    const verify::EquivalenceReport xx_report = checker.check_spec(c_xx, spec);
    EXPECT_TRUE(xx_report.equivalent()) << xx_report.to_string();
  }
}

TEST(TargetCostModel, RoutedEmissionAccountsSwapsExactly) {
  Rng rng(42);
  const verify::EquivalenceChecker checker;
  for (int rep = 0; rep < 15; ++rep) {
    const std::size_t n = 3 + rng.index(6);  // 3..8 qubits
    const int blocks = 2 + static_cast<int>(rng.index(4));
    const std::vector<RotationBlock> seq = random_good_sequence(rng, n, blocks);
    if (seq.empty()) continue;
    const HardwareTarget nn = HardwareTarget::linear_nn(n);
    const QuantumCircuit unrouted = synth::synthesize_sequence(n, seq);
    int swaps = 0;
    const QuantumCircuit routed = synth::lower_to_target(unrouted, nn, &swaps);
    EXPECT_TRUE(circuit::respects_coupling(routed, nn.coupling));
    // Device accounting: routed cost == unrouted cost + 3 per SWAP.
    EXPECT_EQ(nn.circuit_cost(routed),
              nn.circuit_cost(unrouted) + 3 * swaps);
    const verify::EquivalenceReport report =
        checker.check_spec(routed, verify::make_spec(seq));
    EXPECT_TRUE(report.equivalent()) << report.to_string();
  }
}

// ---- option validation (satellite) ----------------------------------------

TEST(Validation, RoutingFreeTargetWithConnectivityIsRejected) {
  HardwareTarget t = HardwareTarget::linear_nn(4);
  t.allow_routing = false;
  const std::string err = t.validate(4);
  EXPECT_NE(err.find("routing is disabled"), std::string::npos) << err;
}

TEST(Validation, CompileOptionDiagnosticsAreSpecific) {
  core::CompileOptions opt;
  EXPECT_EQ(core::validate_options(4, opt), "");

  opt.target = HardwareTarget::linear_nn(4);
  opt.emit_circuit = false;
  EXPECT_NE(core::validate_options(4, opt).find("emit_circuit"),
            std::string::npos);

  opt.emit_circuit = true;
  EXPECT_EQ(core::validate_options(4, opt), "");
  // Device/circuit width mismatches, both directions.
  EXPECT_NE(core::validate_options(5, opt).find("coupling map has"),
            std::string::npos);
  opt.target = HardwareTarget::linear_nn(6);
  EXPECT_NE(core::validate_options(5, opt).find("couples"),
            std::string::npos);

  opt = core::CompileOptions{};
  opt.target.coupling = circuit::CouplingMap(4, {{0, 1}, {2, 3}});
  EXPECT_NE(core::validate_options(4, opt).find("disconnected"),
            std::string::npos);

  opt = core::CompileOptions{};
  opt.gtsp_options.mutation_rate = 1.5;
  EXPECT_NE(core::validate_options(4, opt).find("mutation_rate"),
            std::string::npos);
}

// ---- compile-stack integration --------------------------------------------

struct WaterFixture {
  std::size_t n = 0;
  std::vector<fermion::ExcitationTerm> terms;
};

// (The molecule chain is intentionally inline: bench/bench_fixtures.hpp is
// the bench binaries' entry point and not on the test include path.)
WaterFixture water(std::size_t ne) {
  static WaterFixture f;
  if (f.n == 0) {
    const auto mol = chem::make_h2o();
    auto basis = chem::build_sto3g(mol);
    chem::normalize_basis(basis);
    const auto ints = chem::compute_integrals(mol, basis);
    const auto scf = chem::run_rhf(mol, ints);
    const auto mo = chem::transform_to_mo(mol, ints, scf);
    const auto so = chem::to_spin_orbitals(mo);
    f.n = so.n;
    f.terms = vqe::uccsd_hmp2_terms(so);
  }
  FEMTO_EXPECTS(ne <= f.terms.size());
  WaterFixture truncated;
  truncated.n = f.n;
  truncated.terms.assign(f.terms.begin(),
                         f.terms.begin() + static_cast<std::ptrdiff_t>(ne));
  return truncated;
}

core::CompileOptions fast_options() {
  core::CompileOptions opt;
  opt.sa_options.steps = 200;
  opt.gtsp_options.generations = 40;
  opt.pso_options.iterations = 10;
  opt.coloring_orders = 8;
  return opt;
}

TEST(TargetCompile, DefaultTargetIsBitIdenticalAnchor) {
  const WaterFixture& f = water(5);
  const core::CompileOptions opt = fast_options();
  const core::CompileResult plain = core::compile_vqe(f.n, f.terms, opt);
  core::CompileOptions explicit_target = opt;
  explicit_target.target = HardwareTarget::all_to_all_cnot();
  const core::CompileResult anchored =
      core::compile_vqe(f.n, f.terms, explicit_target);
  // Same plan, same costs, same gates -- the target threading changed
  // nothing on the default target.
  EXPECT_EQ(plain.model_cnots, anchored.model_cnots);
  EXPECT_EQ(plain.model_cost, plain.model_cnots);
  EXPECT_EQ(plain.device_cost, plain.emitted_cnots);
  EXPECT_EQ(plain.term_order, anchored.term_order);
  ASSERT_EQ(plain.circuit.size(), anchored.circuit.size());
  EXPECT_TRUE(plain.circuit.gates() == anchored.circuit.gates());
  EXPECT_TRUE(plain.lowered.empty());
}

TEST(TargetCompile, AllThreeTargetsCompileAndCertify) {
  const WaterFixture& f = water(4);
  const core::CompileScenario s{"water4", f.n, f.terms, fast_options()};
  core::CompilePipeline pipeline({.workers = 2});
  const std::vector<HardwareTarget> targets = {
      HardwareTarget::all_to_all_cnot(),
      HardwareTarget::trapped_ion_xx(),
      HardwareTarget::linear_nn(f.n),
  };
  const core::CompileResponse resp = pipeline.compile(
      {.scenarios = {s}, .targets = targets, .restarts = 2, .verify = true});
  ASSERT_TRUE(resp.done()) << resp.detail;
  ASSERT_EQ(resp.outcomes.size(), 3u);
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const core::ScenarioOutcome& r = resp.outcomes[t];
    EXPECT_EQ(r.target.name, targets[t].name);
    EXPECT_TRUE(r.result.all_verified()) << r.target.name;
    for (const verify::EquivalenceReport& v : r.result.verification)
      EXPECT_TRUE(v.equivalent()) << r.target.name << ": " << v.to_string();
    // Each target cell is the scenario compiled alone for that target.
    core::CompileScenario alone = s;
    alone.options.target = targets[t];
    const core::CompileResponse plain = pipeline.compile(
        {.scenarios = {alone}, .restarts = 2, .verify = true});
    ASSERT_TRUE(plain.done()) << plain.detail;
    const core::MultiStartResult& p = plain.outcomes.at(0).result;
    EXPECT_EQ(r.result.best.model_cnots, p.best.model_cnots) << r.target.name;
    EXPECT_EQ(r.result.best_restart, p.best_restart) << r.target.name;
    EXPECT_TRUE(r.result.best.circuit.gates() == p.best.circuit.gates())
        << r.target.name;
    EXPECT_TRUE(r.result.best.lowered.gates() == p.best.lowered.gates())
        << r.target.name;
  }
  // Trapped-ion: native artifact contains no CNOTs, and the pulse model is
  // never worse than the CNOT count of the same plan (the XX model takes
  // the cheaper of its two exact lowering forms per chunk).
  const core::CompileResult& ion = resp.outcomes[1].result.best;
  EXPECT_FALSE(ion.lowered.empty());
  for (const Gate& g : ion.lowered.gates())
    EXPECT_TRUE(!g.two_qubit() || g.kind == circuit::GateKind::kXXrot);
  EXPECT_LE(ion.model_cost, ion.model_cnots);
  // Linear chain: routed artifact respects the coupling and reports swaps.
  const core::CompileResult& nn = resp.outcomes[2].result.best;
  EXPECT_FALSE(nn.lowered.empty());
  EXPECT_TRUE(circuit::respects_coupling(
      nn.lowered, HardwareTarget::linear_nn(f.n).coupling));
  EXPECT_EQ(nn.device_cost, nn.lowered.cnot_count());
}

}  // namespace
}  // namespace femto
