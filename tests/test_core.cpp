// Integration tests for the compiler pipelines (paper Fig. 2).
//
// Anchors:
//  - a single fermionic double excitation compiles to 13 CNOTs (the known
//    optimum of [8]) under advanced sorting with JW;
//  - a compressible hybrid double costs 7, a bosonic double costs 2;
//  - compiled circuits are unitarily equivalent to the exact product of
//    generator exponentials (JW, no compression), or to its U_Gamma
//    conjugation (advanced transform);
//  - the advanced pipeline never loses to the baseline on the model count.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/compiler.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "sim/statevector.hpp"

namespace femto::core {
namespace {

using fermion::ExcitationTerm;

[[nodiscard]] CompileOptions fast_options() {
  CompileOptions opt;
  opt.sa_options.steps = 400;
  opt.pso_options.iterations = 30;
  opt.pso_options.particles = 12;
  opt.gtsp_options.generations = 120;
  opt.coloring_orders = 16;
  return opt;
}

TEST(Compiler, FermionicDoubleCosts13) {
  // A double excitation whose JW strings have weight 4 (adjacent orbitals,
  // empty Z-strings) compiles to the known 13-CNOT optimum of [8]:
  // 8 strings x 6 CNOTs - 7 interfaces x 5 savings = 13.
  const std::vector<ExcitationTerm> terms = {
      ExcitationTerm::make_double(4, 5, 0, 1)};
  CompileOptions opt = fast_options();
  opt.transform = TransformKind::kJordanWigner;
  opt.compression = CompressionMode::kNone;  // force the fermionic path
  const CompileResult res = compile_vqe(8, terms, opt);
  EXPECT_EQ(res.model_cnots, 13);
  EXPECT_EQ(res.emitted_cnots, 13);
  // With Z-strings (orbital gaps) the cost grows by 2 per crossed mode:
  // supports {0, Z1, 2, 4, Z5, 6} -> 8 x 10 - 7 x 9 = 17.
  const std::vector<ExcitationTerm> gapped = {
      ExcitationTerm::make_double(4, 6, 0, 2)};
  const CompileResult res2 = compile_vqe(8, gapped, opt);
  EXPECT_EQ(res2.model_cnots, 17);
}

TEST(Compiler, BosonicDoubleCosts2) {
  const std::vector<ExcitationTerm> terms = {
      ExcitationTerm::make_double(4, 5, 0, 1)};
  CompileOptions opt = fast_options();
  opt.transform = TransformKind::kJordanWigner;
  const CompileResult res = compile_vqe(6, terms, opt);
  EXPECT_EQ(res.model_cnots, 2);
  EXPECT_EQ(res.emitted_cnots, 2);
}

TEST(Compiler, HybridDoubleCosts7) {
  // Creation pair (2,3), annihilation on adjacent modes 0 and 5 -> after
  // compression the operator is weight-3 strings; the paper's count is 7.
  const std::vector<ExcitationTerm> terms = {
      ExcitationTerm::make_double(2, 3, 4, 5)};
  // (4,5) is also a spin pair -> that's bosonic; use (0, 5) instead:
  const std::vector<ExcitationTerm> hybrid_terms = {
      ExcitationTerm::make_double(2, 3, 0, 5)};
  ASSERT_EQ(hybrid_terms[0].classification(),
            fermion::ExcitationClass::kHybrid);
  CompileOptions opt = fast_options();
  opt.transform = TransformKind::kJordanWigner;
  const CompileResult res = compile_vqe(6, hybrid_terms, opt);
  // sigma+_2 (x) c_0 c_5: strings span {2, 0, 1..4 Z-string...}; with the
  // pair (2,3) compressed the Z over (2,3) drops; weight-4 strings give
  // 4 blocks * 6 - 3 * interfaces... the paper's 7 applies to adjacent
  // annihilation; here we simply require the advanced count to beat naive.
  EXPECT_LE(res.model_cnots, 16);
  (void)terms;
}

TEST(Compiler, HybridAdjacentAnnihilationCosts7) {
  // The Fig. 3(a) shape: pair (2,3) compressed, annihilation on adjacent
  // modes (4, 6)? Adjacent *JW-wise* means indices differing by 1 with no
  // Z-string: use a 8-mode system with term a+_4 a+_5 a_0 a_6 reversed...
  // Simplest faithful instance: creation pair (0,1), annihilation (2, 3) is
  // bosonic; so take creation pair (0,1), annihilation (2, 5): Z-string over
  // 3,4 remains -> not the 7-count case. Use annihilation (4,5)? bosonic.
  // The true 7-CNOT case needs annihilation indices adjacent with the
  // in-between Z removed by compression: a+_2 a+_3 a_4 a_6 with pair (4,5)?
  // not a pair. Take a+_0 a+_1 a_3 a_4? (3,4) not a spin pair but adjacent:
  // Z-string between 3 and 4 is empty -> weight-3 strings after compressing
  // (0,1):
  const std::vector<ExcitationTerm> terms = {
      ExcitationTerm::make_double(0, 1, 3, 4)};
  ASSERT_EQ(terms[0].classification(), fermion::ExcitationClass::kHybrid);
  CompileOptions opt = fast_options();
  opt.transform = TransformKind::kJordanWigner;
  const CompileResult res = compile_vqe(6, terms, opt);
  EXPECT_EQ(res.model_cnots, 7);
  EXPECT_EQ(res.emitted_cnots, 7);
}

TEST(Compiler, CircuitMatchesExactEvolutionJwNoCompression) {
  // Multi-term circuit vs exact generator exponentials, random parameters.
  const std::vector<ExcitationTerm> terms = {
      ExcitationTerm::make_double(4, 6, 0, 2),
      ExcitationTerm::make_double(5, 7, 1, 3),
      ExcitationTerm::single(6, 2),
  };
  CompileOptions opt = fast_options();
  opt.transform = TransformKind::kJordanWigner;
  opt.compression = CompressionMode::kNone;
  opt.sorting = SortingMode::kBaseline;  // keeps term blocks contiguous
  const CompileResult res = compile_vqe(8, terms, opt);
  Rng rng(7);
  std::vector<double> theta;
  for (std::size_t k = 0; k < terms.size(); ++k)
    theta.push_back(rng.uniform(-0.8, 0.8));
  // Exact: apply generators in res.term_order with parameters by position.
  sim::StateVector expect = sim::StateVector::basis_state(8, 0b00001111);
  for (std::size_t k = 0; k < res.ordered_generators.size(); ++k)
    for (const auto& t : res.ordered_generators[k].terms())
      expect.apply_pauli_exp(t.string, -2.0 * t.coefficient.imag() * theta[k]);
  // Circuit path.
  sim::StateVector actual = sim::StateVector::basis_state(8, 0b00001111);
  actual.apply_circuit(res.circuit, theta);
  const double overlap = std::abs(expect.inner(actual));
  EXPECT_NEAR(overlap, 1.0, 1e-9);
}

TEST(Compiler, CircuitMatchesConjugatedEvolutionAdvancedTransform) {
  // With Gamma != I (no compression), the circuit must equal
  // U_Gamma (exact JW evolution) U_Gamma^dag acting on the encoded state.
  const std::vector<ExcitationTerm> terms = {
      ExcitationTerm::make_double(4, 6, 0, 2),
      ExcitationTerm::make_double(4, 7, 1, 2),
  };
  CompileOptions opt = fast_options();
  opt.transform = TransformKind::kAdvanced;
  opt.compression = CompressionMode::kNone;
  // Baseline sorting keeps each term's (mutually commuting) strings
  // contiguous, so the circuit equals the conjugated product of term
  // exponentials exactly. (Advanced sorting interleaves strings across
  // terms -- a different, equally valid ansatz; covered by the single-term
  // and JW tests.)
  opt.sorting = SortingMode::kBaseline;
  const CompileResult res = compile_vqe(8, terms, opt);
  const auto network = gf2::synthesize_pmh(res.gamma);
  Rng rng(11);
  std::vector<double> theta = {rng.uniform(-1, 1), rng.uniform(-1, 1)};

  // Exact JW evolution from |HF> = modes {0,1,2} occupied... use 0b0111.
  sim::StateVector expect = sim::StateVector::basis_state(8, 0b0111);
  for (std::size_t k = 0; k < res.ordered_generators.size(); ++k)
    for (const auto& t : res.ordered_generators[k].terms())
      expect.apply_pauli_exp(t.string, -2.0 * t.coefficient.imag() * theta[k]);
  // Then encode: |psi_enc> = U_Gamma |psi_JW>.
  for (const auto& g : network) expect.apply_cnot(g.control, g.target);

  // Circuit path from the encoded reference U_Gamma|0b0111>.
  sim::StateVector actual = sim::StateVector::basis_state(8, 0b0111);
  for (const auto& g : network) actual.apply_cnot(g.control, g.target);
  actual.apply_circuit(res.circuit, theta);

  EXPECT_NEAR(std::abs(expect.inner(actual)), 1.0, 1e-9);
}

TEST(Compiler, SingleTermAdvancedSortingExactUnitary) {
  // Strings within one excitation term commute, so any GTSP order of them
  // implements exactly exp(theta (T - T+)).
  const std::vector<ExcitationTerm> terms = {
      ExcitationTerm::make_double(4, 6, 0, 2)};
  CompileOptions opt = fast_options();
  opt.transform = TransformKind::kJordanWigner;
  opt.compression = CompressionMode::kNone;
  const CompileResult res = compile_vqe(8, terms, opt);
  const std::vector<double> theta{0.377};
  sim::StateVector expect = sim::StateVector::basis_state(8, 0b00000101);
  for (const auto& t : res.ordered_generators[0].terms())
    expect.apply_pauli_exp(t.string, -2.0 * t.coefficient.imag() * theta[0]);
  sim::StateVector actual = sim::StateVector::basis_state(8, 0b00000101);
  actual.apply_circuit(res.circuit, theta);
  EXPECT_NEAR(std::abs(expect.inner(actual)), 1.0, 1e-9);
}

TEST(Compiler, AdvancedNeverLosesToBaselineOnModelCount) {
  // A mixed term set exercising all classes.
  const std::vector<ExcitationTerm> terms = {
      ExcitationTerm::make_double(6, 7, 0, 1),   // bosonic
      ExcitationTerm::make_double(6, 7, 0, 3),   // hybrid
      ExcitationTerm::make_double(8, 9, 2, 3),   // bosonic
      ExcitationTerm::make_double(4, 9, 0, 2),   // fermionic
      ExcitationTerm::make_double(5, 8, 1, 3),   // fermionic
  };
  CompileOptions adv = fast_options();
  const CompileResult res_adv = compile_vqe(10, terms, adv);

  CompileOptions base = fast_options();
  base.transform = TransformKind::kJordanWigner;
  base.sorting = SortingMode::kBaseline;
  base.compression = CompressionMode::kBosonicOnly;
  const CompileResult res_base = compile_vqe(10, terms, base);

  EXPECT_LE(res_adv.model_cnots, res_base.model_cnots);
  EXPECT_GT(res_adv.model_cnots, 0);
}

TEST(Compiler, OrderedGeneratorsFollowPlanOrder) {
  const std::vector<ExcitationTerm> terms = {
      ExcitationTerm::make_double(4, 9, 0, 2),  // fermionic
      ExcitationTerm::make_double(6, 7, 0, 1),  // bosonic -> applied first
  };
  const CompileResult res = compile_vqe(10, terms, fast_options());
  ASSERT_EQ(res.term_order.size(), 2u);
  EXPECT_EQ(res.term_order[0], 1u);  // bosonic first
  EXPECT_EQ(res.term_order[1], 0u);
  EXPECT_EQ(res.ordered_generators.size(), 2u);
}

TEST(Compiler, DecompressionCountedWhenFermionicTouchesPair) {
  const std::vector<ExcitationTerm> terms = {
      ExcitationTerm::make_double(6, 7, 0, 1),  // bosonic: pairs (6,7),(0,1)
      ExcitationTerm::make_double(6, 8, 0, 2),  // fermionic touches 6 and 0
  };
  const CompileResult res = compile_vqe(10, terms, fast_options());
  EXPECT_EQ(res.decompression_cnots, 2);
  // Model total includes the decompression CNOTs.
  int seg_total = 0;
  for (const auto& s : res.segments) seg_total += s.model_cnots;
  EXPECT_EQ(res.model_cnots, seg_total + 2);
}

TEST(Compiler, TransformKindsAllProduceValidCounts) {
  const std::vector<ExcitationTerm> terms = {
      ExcitationTerm::make_double(4, 6, 0, 2),
      ExcitationTerm::make_double(5, 7, 1, 3),
      ExcitationTerm::make_double(4, 7, 0, 3),
  };
  for (TransformKind kind :
       {TransformKind::kJordanWigner, TransformKind::kBravyiKitaev,
        TransformKind::kBaselineGT, TransformKind::kAdvanced}) {
    CompileOptions opt = fast_options();
    opt.transform = kind;
    opt.compression = CompressionMode::kNone;
    const CompileResult res = compile_vqe(8, terms, opt);
    EXPECT_GT(res.model_cnots, 0);
    EXPECT_GE(res.emitted_cnots, res.model_cnots);
  }
}

TEST(Compiler, GtExactObjectiveCoversAtMostTwentyFermionicTerms) {
  // The GT search scores candidates with the exact pipeline cost up to
  // kGtExactObjectiveMaxTerms fermionic terms and with the fast proxy
  // above: 20 terms count exact evaluations, 21 count none.
  ASSERT_EQ(kGtExactObjectiveMaxTerms, 20u);
  std::vector<ExcitationTerm> terms;
  for (const auto& [p, q] : {std::pair<std::size_t, std::size_t>{4, 6},
                             {4, 7}, {5, 6}, {5, 7}})
    for (const auto& [r, s] : {std::pair<std::size_t, std::size_t>{0, 2},
                               {0, 3}, {1, 2}, {1, 3}})
      terms.push_back(ExcitationTerm::make_double(p, q, r, s));
  for (std::size_t p = 4; p < 8; ++p)
    for (std::size_t r = 0; r < 4; ++r)
      terms.push_back(ExcitationTerm::single(p, r));
  ASSERT_GE(terms.size(), 21u);
  CompileOptions opt = fast_options();
  opt.transform = TransformKind::kBaselineGT;
  opt.sorting = SortingMode::kBaseline;
  opt.compression = CompressionMode::kBosonicOnly;
  opt.emit_circuit = false;
  opt.pso_options.iterations = 2;
  opt.pso_options.particles = 4;
  const obs::Counter& exact =
      obs::registry().counter("solver.gt_exact_evaluations");
  const obs::Counter& held_karp_runs =
      obs::registry().counter("solver.held_karp_runs");

  const std::vector<ExcitationTerm> twenty(terms.begin(), terms.begin() + 20);
  std::uint64_t before = exact.value();
  std::uint64_t runs_before = held_karp_runs.value();
  const CompileResult res20 = compile_vqe(8, twenty, opt);
  ASSERT_EQ(res20.plan.fermionic.size(), 20u);
  EXPECT_GT(exact.value(), before);
  EXPECT_GT(held_karp_runs.value(), runs_before);

  const std::vector<ExcitationTerm> twenty_one(terms.begin(),
                                               terms.begin() + 21);
  before = exact.value();
  const CompileResult res21 = compile_vqe(8, twenty_one, opt);
  ASSERT_EQ(res21.plan.fermionic.size(), 21u);
  EXPECT_EQ(exact.value(), before);
}

}  // namespace
}  // namespace femto::core
