// Tests for the hybrid-encoding pipeline (paper Sec. III-A + Appendix A).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "core/compiler.hpp"
#include "encoding/compressed_ops.hpp"
#include "encoding/hybrid_plan.hpp"
#include "sim/statevector.hpp"
#include "transform/linear_encoding.hpp"

namespace femto::encoding {
namespace {

using fermion::ExcitationTerm;

/// The nine hybrid terms of the paper's Appendix A, converted to 0-indexed
/// spin orbitals (paper is 1-indexed with pairs (odd p, p+1); here pairs are
/// (even p, p+1)).
[[nodiscard]] std::vector<ExcitationTerm> appendix_terms() {
  return {
      ExcitationTerm::make_double(8, 11, 2, 3),    // h0 (pair 2,3)
      ExcitationTerm::make_double(10, 11, 2, 5),   // h1 (pair 10,11)
      ExcitationTerm::make_double(19, 20, 4, 5),   // h2 (pair 4,5)
      ExcitationTerm::make_double(18, 21, 4, 5),   // h3 (pair 4,5)
      ExcitationTerm::make_double(12, 15, 0, 1),   // h4 (pair 0,1)
      ExcitationTerm::make_double(10, 13, 4, 5),   // h5 (pair 4,5)
      ExcitationTerm::make_double(12, 13, 4, 7),   // h6 (pair 12,13)
      ExcitationTerm::make_double(12, 15, 6, 7),   // h7 (pair 6,7)
      ExcitationTerm::make_double(16, 17, 2, 7),   // h8 (pair 16,17)
  };
}

TEST(HybridPlan, PaperAppendixExample) {
  const auto terms = appendix_terms();
  for (const auto& t : terms)
    ASSERT_EQ(t.classification(), fermion::ExcitationClass::kHybrid)
        << t.to_string();
  Rng rng(4242);
  const HybridPlan plan = plan_hybrid_encoding(terms, rng, 64);

  // Paper: S_sink = {h2, h3}, S_source = {h4, h8}, S_color = {h0, h5, h7},
  // folded = {h1, h6}.
  auto sorted = [](std::vector<std::size_t> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(plan.sinks), (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(sorted(plan.sources), (std::vector<std::size_t>{4, 8}));
  EXPECT_EQ(sorted(plan.colored), (std::vector<std::size_t>{0, 5, 7}));
  EXPECT_EQ(sorted(plan.fermionic), (std::vector<std::size_t>{1, 6}));
  EXPECT_EQ(plan.chromatic_number, 2);
  EXPECT_EQ(plan.hybrid_folded, 2u);
}

TEST(HybridPlan, OrderingIsSymmetrySafe) {
  // In the final compressed order, no term may break a pair that a *later*
  // compressed term needs.
  const auto terms = appendix_terms();
  Rng rng(7);
  const HybridPlan plan = plan_hybrid_encoding(terms, rng, 64);
  const auto order = plan.compressed_order();
  for (std::size_t a = 0; a < order.size(); ++a)
    for (std::size_t b = a + 1; b < order.size(); ++b)
      EXPECT_FALSE(terms[order[a]].breaks_symmetry_of(terms[order[b]]))
          << "term " << order[a] << " breaks later term " << order[b];
}

TEST(HybridPlan, BosonicAndFermionicClassifiedOut) {
  std::vector<ExcitationTerm> terms = {
      ExcitationTerm::make_double(4, 5, 0, 1),  // bosonic
      ExcitationTerm::make_double(4, 6, 0, 2),  // fermionic
      ExcitationTerm::single(4, 0),             // single -> fermionic
      ExcitationTerm::make_double(6, 7, 0, 3),  // hybrid
  };
  Rng rng(1);
  const HybridPlan plan = plan_hybrid_encoding(terms, rng);
  EXPECT_EQ(plan.bosonic, (std::vector<std::size_t>{0}));
  EXPECT_EQ(plan.hybrid_total, 1u);
  // The lone hybrid is isolated -> a sink.
  EXPECT_EQ(plan.sinks, (std::vector<std::size_t>{3}));
  EXPECT_EQ(plan.fermionic.size(), 2u);
}

/// Low index of each pair the compiler's decompression schedule opens, in
/// schedule order.
[[nodiscard]] std::vector<std::size_t> pairs_opened(
    const std::vector<ExcitationTerm>& terms, const HybridPlan& plan) {
  std::vector<std::size_t> lows;
  for (const auto& e : core::detail::decompression_schedule(terms, plan))
    lows.push_back(e.low);
  return lows;
}

TEST(CompressedPairs, TracksPairsAndDecompression) {
  std::vector<ExcitationTerm> terms = {
      ExcitationTerm::make_double(4, 5, 0, 1),  // bosonic: pairs (4,5),(0,1)
      ExcitationTerm::make_double(6, 7, 0, 3),  // hybrid: pair (6,7), ind {0,3}
      ExcitationTerm::make_double(4, 6, 0, 2),  // fermionic touches 4
  };
  Rng rng(1);
  const HybridPlan plan = plan_hybrid_encoding(terms, rng);
  const auto pairs = compressed_pairs(terms, plan);
  // Pairs 4, 0, 6 (low indices).
  EXPECT_EQ(pairs.size(), 3u);
  // The hybrid term acts on qubit 0 on its own and opens pair (0,1); the
  // fermionic term acts on 4, 6, 0, 2 individually and opens (4,5), (6,7).
  EXPECT_EQ(pairs_opened(terms, plan), (std::vector<std::size_t>{0, 4, 6}));

  // Without the fermionic term the hybrid term still opens pair (0,1).
  terms.pop_back();
  Rng rng2(1);
  EXPECT_EQ(pairs_opened(terms, plan_hybrid_encoding(terms, rng2)),
            (std::vector<std::size_t>{0}));
}

TEST(CompressedOps, ReduceDeletesPairZZ) {
  pauli::PauliSum sum(6);
  sum.add({1.0, 0.0}, pauli::PauliString::from_string("XZZIIY"));
  const pauli::PauliSum red = reduce_over_pairs(sum, {1 /* pair (1,2) */});
  ASSERT_EQ(red.size(), 1u);
  EXPECT_TRUE(red.terms()[0].string.same_letters(
      pauli::PauliString::from_string("XIIIIY")));
}

TEST(CompressedOps, BosonicGeneratorIsTwoQubitGivens) {
  // Bosonic term: creation pair (2,3), annihilation pair (0,1).
  const auto term = ExcitationTerm::make_double(2, 3, 0, 1);
  const pauli::PauliSum g = compressed_generator(6, term, {0, 2});
  // sigma+_2 sigma-_0 - h.c. expands to (XY - YX)-type strings on qubits
  // {0, 2} only.
  ASSERT_EQ(g.size(), 2u);
  for (const auto& t : g.terms()) {
    EXPECT_EQ(t.string.weight(), 2u);
    EXPECT_EQ(t.string.letter(1), pauli::Letter::I);
    EXPECT_EQ(t.string.letter(3), pauli::Letter::I);
    EXPECT_NEAR(t.coefficient.real(), 0.0, 1e-12);  // anti-Hermitian
  }
}

TEST(CompressedOps, HybridGeneratorWeightThree) {
  // Hybrid with creation pair (2,3) and annihilation on 0, 1 is bosonic --
  // use annihilation (0, 4): JW string Z1 Z2 Z3 between; pairs (2,3)
  // compressed removes ZZ, Z1 remains (uncompressed spectator member of
  // pair (0,1)? no -- (0,1) not compressed here).
  const auto term = ExcitationTerm::make_double(2, 3, 0, 4);
  const pauli::PauliSum g = compressed_generator(6, term, {2});
  ASSERT_EQ(g.size(), 4u);
  for (const auto& t : g.terms()) {
    // supports qubits {0, 1(Z), 2, 4}: weight 4 with the Z1 string letter.
    EXPECT_EQ(t.string.letter(3), pauli::Letter::I);
    EXPECT_NEAR(t.coefficient.real(), 0.0, 1e-12);
  }
}

TEST(CompressedOps, CompressedCircuitMatchesUncompressedOnSymmetricStates) {
  // Pin the semantics: for the bosonic term exp(theta(T - T^dag)) acting on
  // a pair-symmetric state, the compressed generator conjugated by the
  // compression CNOTs reproduces the full JW unitary (up to theta sign,
  // which VQE absorbs; we test both signs and require one to match).
  const std::size_t n = 4;
  const auto term = ExcitationTerm::make_double(2, 3, 0, 1);
  const auto enc = transform::LinearEncoding::jordan_wigner(n);
  const pauli::PauliSum full = enc.map(term.generator());
  const pauli::PauliSum comp = compressed_generator(n, term, {0, 2});
  const double theta = 0.437;

  for (int sign = -1; sign <= 1; sign += 2) {
    // Start from |1100> occupation (modes 0,1 occupied) = HF-like state.
    sim::StateVector full_sv = sim::StateVector::basis_state(n, 0b0011);
    for (const auto& t : full.terms())
      full_sv.apply_pauli_exp(t.string, -2.0 * t.coefficient.imag() * theta);

    // Compressed path: prepare |1 0 0 0> (pair (0,1) compressed to qubit 0,
    // pair (2,3) to qubit 2), apply compressed exponential, decompress via
    // CNOTs.
    sim::StateVector comp_sv = sim::StateVector::basis_state(n, 0b0001);
    for (const auto& t : comp.terms())
      comp_sv.apply_pauli_exp(t.string,
                              sign * -2.0 * t.coefficient.imag() * theta);
    comp_sv.apply_cnot(0, 1);
    comp_sv.apply_cnot(2, 3);

    double dist = 0;
    for (std::size_t i = 0; i < full_sv.dim(); ++i)
      dist = std::max(dist,
                      std::abs(full_sv.amplitude(i) - comp_sv.amplitude(i)));
    if (dist < 1e-10) {
      SUCCEED();
      return;
    }
  }
  FAIL() << "neither theta sign matched the uncompressed evolution";
}

}  // namespace
}  // namespace femto::encoding
