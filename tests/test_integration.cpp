// Cross-module integration and property tests.
//
//  - Full option-matrix sweep of the compiler on a mixed term set: counting
//    invariants hold for every (transform x sorting x compression) combo.
//  - GTSP GA versus brute force on small instances.
//  - Random excitation sets: the hybrid plan never breaks a later
//    compressed term's symmetry (the Sec. III-A safety property).
//  - End-to-end H2: VQE through the *emitted circuit* reaches FCI.
#include <gtest/gtest.h>

#include <algorithm>

#include "chem/fci.hpp"
#include "chem/integrals.hpp"
#include "chem/molecules.hpp"
#include "chem/mo_integrals.hpp"
#include "chem/scf.hpp"
#include "core/compiler.hpp"
#include "encoding/hybrid_plan.hpp"
#include "opt/gtsp.hpp"
#include "sim/statevector.hpp"
#include "support/gtsp_oracle.hpp"
#include "transform/linear_encoding.hpp"
#include "vqe/driver.hpp"
#include "vqe/uccsd.hpp"

namespace femto {
namespace {

using fermion::ExcitationTerm;

struct ComboParam {
  core::TransformKind transform;
  core::SortingMode sorting;
  core::CompressionMode compression;
};

class CompilerMatrix : public ::testing::TestWithParam<ComboParam> {};

TEST_P(CompilerMatrix, CountingInvariants) {
  const ComboParam combo = GetParam();
  const std::vector<ExcitationTerm> terms = {
      ExcitationTerm::make_double(6, 7, 0, 1),   // bosonic
      ExcitationTerm::make_double(6, 7, 2, 5),   // hybrid
      ExcitationTerm::make_double(8, 9, 0, 3),   // hybrid
      ExcitationTerm::make_double(4, 9, 0, 2),   // fermionic
      ExcitationTerm::single(8, 2),              // single
  };
  core::CompileOptions opt;
  opt.transform = combo.transform;
  opt.sorting = combo.sorting;
  opt.compression = combo.compression;
  opt.sa_options.steps = 200;
  opt.pso_options.iterations = 15;
  opt.pso_options.particles = 8;
  opt.gtsp_options.generations = 60;
  const auto res = core::compile_vqe(10, terms, opt);
  // Invariants:
  EXPECT_GT(res.model_cnots, 0);
  EXPECT_GE(res.emitted_cnots, res.model_cnots);
  EXPECT_EQ(res.term_order.size(), terms.size());
  EXPECT_EQ(res.ordered_generators.size(), terms.size());
  // term_order is a permutation.
  std::vector<std::size_t> sorted = res.term_order;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
  // Circuit references at most as many parameters as terms.
  EXPECT_LE(res.circuit.num_params(), static_cast<int>(terms.size()));
  // Naive upper bound: every term fermionic, no savings.
  int naive = 0;
  const auto jw = transform::LinearEncoding::jordan_wigner(10);
  for (const auto& t : terms) {
    const auto mapped = jw.map(t.generator());
    for (const auto& pt : mapped.terms()) naive += synth::string_cost(pt.string);
  }
  EXPECT_LE(res.model_cnots, naive);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, CompilerMatrix,
    ::testing::Values(
        ComboParam{core::TransformKind::kJordanWigner,
                   core::SortingMode::kNone, core::CompressionMode::kNone},
        ComboParam{core::TransformKind::kJordanWigner,
                   core::SortingMode::kBaseline,
                   core::CompressionMode::kBosonicOnly},
        ComboParam{core::TransformKind::kJordanWigner,
                   core::SortingMode::kAdvanced,
                   core::CompressionMode::kHybrid},
        ComboParam{core::TransformKind::kBravyiKitaev,
                   core::SortingMode::kBaseline,
                   core::CompressionMode::kBosonicOnly},
        ComboParam{core::TransformKind::kBravyiKitaev,
                   core::SortingMode::kAdvanced,
                   core::CompressionMode::kHybrid},
        ComboParam{core::TransformKind::kBaselineGT,
                   core::SortingMode::kBaseline,
                   core::CompressionMode::kBosonicOnly},
        ComboParam{core::TransformKind::kBaselineGT,
                   core::SortingMode::kNone, core::CompressionMode::kNone},
        ComboParam{core::TransformKind::kAdvanced,
                   core::SortingMode::kAdvanced,
                   core::CompressionMode::kHybrid},
        ComboParam{core::TransformKind::kAdvanced,
                   core::SortingMode::kBaseline,
                   core::CompressionMode::kNone}));

TEST(GtspBruteForce, GaMatchesOptimumOnSmallInstances) {
  Rng build_rng(21);
  for (int rep = 0; rep < 6; ++rep) {
    // 5 clusters x 2 vertices: brute force = 5! orders x 2^5 choices.
    oracle::GtspInstance inst;
    int next = 0;
    for (int c = 0; c < 5; ++c) inst.clusters.push_back({next++, next++});
    std::vector<double> w(100);
    for (double& v : w) v = build_rng.uniform(0, 10);
    inst.weight = [&w](int a, int b) {
      return w[static_cast<std::size_t>(a * 10 + b)];
    };
    // Brute force.
    std::vector<std::size_t> perm{0, 1, 2, 3, 4};
    double best = -1;
    std::sort(perm.begin(), perm.end());
    do {
      for (int choice = 0; choice < 32; ++choice) {
        double total = 0;
        for (int k = 0; k + 1 < 5; ++k) {
          const int va = inst.clusters[perm[static_cast<std::size_t>(k)]]
                                      [(choice >> perm[static_cast<std::size_t>(k)]) & 1];
          const int vb = inst.clusters[perm[static_cast<std::size_t>(k + 1)]]
                                      [(choice >> perm[static_cast<std::size_t>(k + 1)]) & 1];
          total += inst.weight(va, vb);
        }
        best = std::max(best, total);
      }
    } while (std::next_permutation(perm.begin(), perm.end()));
    Rng rng(17 + rep);
    const auto sol = opt::solve_gtsp_ga(oracle::materialize(inst), rng);
    EXPECT_NEAR(sol.value, best, 1e-9) << "rep " << rep;
  }
}

TEST(HybridPlanProperty, RandomTermSetsAreSymmetrySafe) {
  Rng rng(33);
  for (int rep = 0; rep < 20; ++rep) {
    const std::size_t n = 12;
    std::vector<ExcitationTerm> terms;
    const int count = 4 + static_cast<int>(rng.index(8));
    for (int k = 0; k < count; ++k) {
      std::size_t p = rng.index(n), q = rng.index(n);
      std::size_t r = rng.index(n), s = rng.index(n);
      if (p == q || r == s) continue;
      terms.push_back(ExcitationTerm::make_double(p, q, r, s));
    }
    if (terms.empty()) continue;
    Rng plan_rng(rep);
    const auto plan = encoding::plan_hybrid_encoding(terms, plan_rng, 16);
    const auto order = plan.compressed_order();
    for (std::size_t a = 0; a < order.size(); ++a)
      for (std::size_t b = a + 1; b < order.size(); ++b)
        EXPECT_FALSE(terms[order[a]].breaks_symmetry_of(terms[order[b]]));
    // Segment sizes account for every term exactly once.
    EXPECT_EQ(plan.full_order().size(), terms.size());
  }
}

TEST(EndToEnd, H2VqeThroughEmittedCircuitReachesFci) {
  const auto mol = chem::make_h2(1.4);
  auto basis = chem::build_sto3g(mol);
  chem::normalize_basis(basis);
  const auto ints = chem::compute_integrals(mol, basis);
  const auto scf = chem::run_rhf(mol, ints);
  const auto mo = chem::transform_to_mo(mol, ints, scf);
  const auto so = chem::to_spin_orbitals(mo);
  const auto fci = chem::run_fci(so);

  auto terms = vqe::uccsd_hmp2_terms(so);
  core::CompileOptions opt;
  opt.transform = core::TransformKind::kJordanWigner;
  opt.compression = core::CompressionMode::kNone;
  opt.sorting = core::SortingMode::kBaseline;
  const auto res = core::compile_vqe(so.n, terms, opt);

  const auto enc = transform::LinearEncoding::jordan_wigner(so.n);
  const pauli::PauliSum hq = enc.map(chem::build_hamiltonian(so));
  const std::size_t hf_index = (std::size_t{1} << so.nelec) - 1;

  // Optimize theta by evaluating the *circuit* (golden-section-free: just
  // coarse grid + refinement on the dominant double amplitude).
  const auto circuit_energy = [&](const std::vector<double>& theta) {
    sim::StateVector sv = sim::StateVector::basis_state(so.n, hf_index);
    sv.apply_circuit(res.circuit, theta);
    return sv.expectation(hq).real();
  };
  std::vector<double> theta(res.ordered_generators.size(), 0.0);
  // Coordinate descent, enough for this 3-parameter problem.
  double e = circuit_energy(theta);
  for (int round = 0; round < 30; ++round) {
    for (std::size_t k = 0; k < theta.size(); ++k) {
      for (double step : {0.1, -0.1, 0.01, -0.01, 0.001, -0.001}) {
        std::vector<double> cand = theta;
        cand[k] += step;
        const double ec = circuit_energy(cand);
        if (ec < e) {
          e = ec;
          theta = cand;
        }
      }
    }
  }
  EXPECT_NEAR(e, fci.energy, 2e-4);
  EXPECT_LT(e, scf.total_energy);
}

TEST(EdgeCases, EmptyAndSingletonCompiles) {
  core::CompileOptions opt;
  const auto empty = core::compile_vqe(4, {}, opt);
  EXPECT_EQ(empty.model_cnots, 0);
  EXPECT_EQ(empty.emitted_cnots, 0);
  EXPECT_TRUE(empty.term_order.empty());

  const auto single = core::compile_vqe(
      6, {ExcitationTerm::make_double(4, 5, 0, 1)}, opt);
  EXPECT_EQ(single.model_cnots, 2);  // one bosonic block
}

TEST(EdgeCases, SinglesOnlyAnsatz) {
  const std::vector<ExcitationTerm> terms = {ExcitationTerm::single(4, 0),
                                             ExcitationTerm::single(5, 1)};
  core::CompileOptions opt;
  const auto res = core::compile_vqe(6, terms, opt);
  // Each single = 2 strings of weight (gap+1): supports {0..4} weight 5:
  // cost 2*(2*4) - savings; must be positive and emitted >= model.
  EXPECT_GT(res.model_cnots, 0);
  EXPECT_GE(res.emitted_cnots, res.model_cnots);
}

}  // namespace
}  // namespace femto
