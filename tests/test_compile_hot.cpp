// Property tests for the compile hot paths: every fast path must be
// BIT-IDENTICAL to its reference implementation --
//  * word-parallel interface_saving / best_shared_target_saving vs the
//    scalar per-site omega sums,
//  * GammaObjective vs the full recomputation of
//    tests/support/cost_oracle.hpp on the default model, a routed CNOT line
//    and a routed XX line: apply/undo over random elementary-move
//    sequences, and reset() to random GT candidates (unit upper-triangular
//    times permutation),
//  * anneal_gamma_fast vs the generic simulated-annealing driver on the
//    same RNG stream,
//  * sort_advanced's per-block-pair GTSP instance build vs the
//    per-vertex-pair fill of tests/support/sort_oracle.hpp, at every SIMD
//    dispatch level,
//  * the dense GTSP GA vs the lazy solver of tests/support/gtsp_oracle.hpp,
//    on real-valued weights and on tie-prone integer weights, and its lane
//    value DP vs the backtracking DP, at every SIMD dispatch level,
//  * the pushed 8-lane Held-Karp DP, sort_baseline and the symplectic exact
//    GT objective vs the reference formulation in
//    tests/support/baseline_oracle.hpp, at every SIMD dispatch level.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <type_traits>
#include <vector>

#include "chem/integrals.hpp"
#include "chem/mo_integrals.hpp"
#include "chem/molecules.hpp"
#include "chem/scf.hpp"
#include "common/simd.hpp"
#include "core/compiler.hpp"
#include "support/baseline_oracle.hpp"
#include "support/cost_oracle.hpp"
#include "support/gtsp_oracle.hpp"
#include "support/level_session.hpp"
#include "support/sort_oracle.hpp"
#include "transform/linear_encoding.hpp"
#include "vqe/uccsd.hpp"

namespace femto {
namespace {

using pauli::Letter;

/// Random non-identity Pauli string on n qubits.
pauli::PauliString random_string(std::size_t n, Rng& rng) {
  pauli::PauliString p(n);
  while (p.weight() == 0) {
    for (std::size_t q = 0; q < n; ++q) {
      constexpr Letter letters[4] = {Letter::I, Letter::X, Letter::Y,
                                     Letter::Z};
      p.set_letter(q, letters[rng.index(4)]);
    }
  }
  return p;
}

std::vector<synth::RotationBlock> random_blocks(std::size_t n, std::size_t m,
                                                Rng& rng) {
  std::vector<synth::RotationBlock> blocks;
  for (std::size_t k = 0; k < m; ++k) {
    synth::RotationBlock b;
    b.string = random_string(n, rng);
    b.target = b.string.support().lowest_set();
    b.angle_coeff = 1.0;
    b.param = static_cast<int>(k);
    blocks.push_back(std::move(b));
  }
  return blocks;
}

/// XX entangler on linear_nn(n)'s coupling: the one device whose Gamma
/// objective and GTSP weights keep the per-target partner-form saving.
synth::HardwareTarget xx_line(std::size_t n) {
  synth::HardwareTarget t = synth::HardwareTarget::linear_nn(n);
  t.name = "xx_line";
  t.entangler = synth::EntanglerKind::kXX;
  return t;
}

/// Scalar reference of the default-model interface saving (the per-site
/// omega sum of Sec. III-B, exactly as the seed code computed it).
int interface_saving_scalar(const pauli::PauliString& p1, std::size_t t1,
                            const pauli::PauliString& p2, std::size_t t2) {
  if (t1 != t2) return 0;
  const bool good =
      synth::target_collision_good(p1.letter(t1), p2.letter(t1));
  int saving = 0;
  for (std::size_t q = 0; q < p1.num_qubits(); ++q) {
    if (q == t1) continue;
    const Letter a = p1.letter(q);
    const Letter b = p2.letter(q);
    if (a == Letter::I || b == Letter::I) continue;
    saving += (good && a == b) ? 2 : 1;
  }
  return saving;
}

TEST(InterfaceSaving, WordParallelMatchesScalarOnRandomPairs) {
  Rng rng(101);
  for (int rep = 0; rep < 400; ++rep) {
    const std::size_t n = 2 + rng.index(78);  // crosses the 64-bit word edge
    const pauli::PauliString p1 = random_string(n, rng);
    const pauli::PauliString p2 = random_string(n, rng);
    int best = -1;
    for (std::size_t t = 0; t < n; ++t) {
      if (p1.letter(t) == Letter::I || p2.letter(t) == Letter::I) continue;
      const int scalar = interface_saving_scalar(p1, t, p2, t);
      EXPECT_EQ(synth::interface_saving(p1, t, p2, t), scalar);
      best = std::max(best, scalar);
    }
    EXPECT_EQ(synth::best_shared_target_saving(p1, p2), best)
        << "n=" << n << " rep=" << rep;
  }
}

TEST(InterfaceSaving, DeviceFormsMatchScalarReference) {
  // The partner-form rewrite must agree with a direct per-site loop for the
  // XX target on every shared-target pair.
  const synth::HardwareTarget xx = synth::HardwareTarget::trapped_ion_xx();
  Rng rng(102);
  for (int rep = 0; rep < 200; ++rep) {
    const std::size_t n = 2 + rng.index(14);
    const pauli::PauliString p1 = random_string(n, rng);
    const pauli::PauliString p2 = random_string(n, rng);
    for (std::size_t t = 0; t < n; ++t) {
      if (p1.letter(t) == Letter::I || p2.letter(t) == Letter::I) continue;
      const std::size_t partner1 = synth::xx_partner(p1, t);
      const std::size_t partner2 = synth::xx_partner(p2, t);
      const bool good =
          synth::target_collision_good(p1.letter(t), p2.letter(t));
      int expected = 0;
      for (std::size_t q = 0; q < n; ++q) {
        if (q == t || q == partner1 || q == partner2) continue;
        const Letter a = p1.letter(q);
        const Letter b = p2.letter(q);
        if (a == Letter::I || b == Letter::I) continue;
        expected += (good && a == b) ? 2 : 1;
      }
      EXPECT_EQ(synth::interface_saving(p1, t, p2, t, xx), expected);
    }
  }
}

// The cache keeps a pointer to its target, so a temporary one would dangle.
static_assert(std::is_constructible_v<synth::StringCostCache,
                                      const synth::HardwareTarget&>);
static_assert(
    !std::is_constructible_v<synth::StringCostCache, synth::HardwareTarget>);
static_assert(!std::is_constructible_v<synth::StringCostCache,
                                       const synth::HardwareTarget&&>);

TEST(StringCostCache, MemoizesExactly) {
  Rng rng(104);
  const synth::HardwareTarget targets[2] = {
      synth::HardwareTarget::trapped_ion_xx(),
      synth::HardwareTarget::linear_nn(10)};
  for (const auto& hw : targets) {
    synth::StringCostCache cache(hw);
    for (int rep = 0; rep < 200; ++rep) {
      const pauli::PauliString p = random_string(10, rng);
      int cheapest = std::numeric_limits<int>::max();
      for (std::size_t t = 0; t < 10; ++t) {
        if (p.letter(t) == Letter::I) continue;
        cheapest = std::min(cheapest, synth::string_cost(p, t, hw));
      }
      // The first lookup of a support computes; a repeat, or a later
      // string on the same support, hits the memo.
      EXPECT_EQ(cache.min_cost(p.x(), p.z()), cheapest);
      EXPECT_EQ(cache.min_cost(p.x(), p.z()), cheapest);
    }
  }
}

/// Random double-excitation term set on n modes (n even), the Hamiltonian
/// shape the Gamma searches run on.
std::vector<fermion::ExcitationTerm> random_terms(std::size_t n,
                                                  std::size_t count,
                                                  Rng& rng) {
  std::vector<fermion::ExcitationTerm> terms;
  while (terms.size() < count) {
    const std::size_t p = rng.index(n), q = rng.index(n);
    const std::size_t r = rng.index(n), s = rng.index(n);
    if (p == q || r == s) continue;
    terms.push_back(fermion::ExcitationTerm::make_double(p, q, r, s));
  }
  return terms;
}

std::vector<std::vector<synth::RotationBlock>> jw_term_blocks(
    std::size_t n, const std::vector<fermion::ExcitationTerm>& terms) {
  std::vector<std::vector<synth::RotationBlock>> out;
  int param = 0;
  for (const auto& t : terms)
    out.push_back(core::blocks_from_generator(
        transform::jw_map(n, t.generator()), param++));
  return out;
}

TEST(GammaObjective, IncrementalMatchesFullRecomputeUnderRandomMoves) {
  Rng rng(105);
  const synth::HardwareTarget linear8 = synth::HardwareTarget::linear_nn(8);
  const synth::HardwareTarget xx_line8 = xx_line(8);
  for (int rep = 0; rep < 10; ++rep) {
    const std::size_t n = 8;
    const auto terms = random_terms(n, 4 + rng.index(4), rng);
    const auto term_blocks = jw_term_blocks(n, terms);
    const auto blocks = core::discover_blocks(n, terms, {});
    std::vector<std::size_t> movable;
    for (std::size_t b = 0; b < blocks.size(); ++b)
      if (blocks[b].size() >= 2) movable.push_back(b);
    if (movable.empty()) continue;

    const synth::HardwareTarget* hws[3] = {nullptr, &linear8, &xx_line8};
    for (const synth::HardwareTarget* hw : hws) {
      core::GammaObjective objective(n, term_blocks, hw);
      objective.reset(gf2::Matrix::identity(n));
      gf2::Matrix gamma = gf2::Matrix::identity(n);
      EXPECT_EQ(objective.energy(),
                oracle::fermionic_fast_cost(gamma, term_blocks, hw));
      for (int move = 0; move < 60; ++move) {
        const auto& block = blocks[movable[rng.index(movable.size())]];
        const std::size_t src = block[rng.index(block.size())];
        std::size_t dst = block[rng.index(block.size())];
        while (dst == src) dst = block[rng.index(block.size())];
        objective.apply_move(src, dst);
        if (rng.bernoulli(0.3)) {
          // Rejected proposal: undo must restore state and energy exactly.
          objective.undo_move();
        } else {
          gamma.add_row(src, dst);
        }
        ASSERT_TRUE(objective.gamma() == gamma);
        ASSERT_EQ(objective.energy(),
                  oracle::fermionic_fast_cost(gamma, term_blocks, hw))
            << "rep=" << rep << " move=" << move
            << " device=" << (hw != nullptr ? hw->name : "none");
        // The maintained inverse-transpose must stay exact.
        ASSERT_TRUE(objective.inverse_transpose() ==
                    gamma.inverse()->transpose());
      }
    }
  }
}

TEST(GammaObjective, ResetMatchesFullRecomputeOnGtCandidates) {
  // The GT baselines reset one objective to every candidate they score: a
  // random unit upper-triangular matrix times a random permutation over all
  // qubits. Each reset must equal the full recomputation, on the default
  // model, on a routed CNOT line (closed-form pair savings) and on a routed
  // XX line (the per-target scan).
  Rng rng(121);
  int resets = 0;
  for (int rep = 0; rep < 40; ++rep) {
    const std::size_t n = 6 + rng.index(7);
    const auto terms = random_terms(n, 3 + rng.index(6), rng);
    const auto term_blocks = jw_term_blocks(n, terms);
    const synth::HardwareTarget linear = synth::HardwareTarget::linear_nn(n);
    const synth::HardwareTarget xx_linear = xx_line(n);
    const synth::HardwareTarget* hws[3] = {nullptr, &linear, &xx_linear};
    for (const synth::HardwareTarget* hw : hws) {
      core::GammaObjective objective(n, term_blocks, hw);
      for (int k = 0; k < 30; ++k) {
        std::vector<std::size_t> perm(n);
        for (std::size_t i = 0; i < n; ++i) perm[i] = i;
        rng.shuffle(perm);
        const gf2::Matrix gamma =
            gf2::Matrix::random_upper_triangular(n, rng).multiply(
                gf2::Matrix::permutation(perm));
        objective.reset(gamma);
        ++resets;
        ASSERT_TRUE(objective.gamma() == gamma);
        ASSERT_EQ(objective.energy(),
                  oracle::fermionic_fast_cost(gamma, term_blocks, hw))
            << "rep=" << rep << " k=" << k
            << " device=" << (hw != nullptr ? hw->name : "none");
        ASSERT_TRUE(objective.inverse_transpose() ==
                    gamma.inverse()->transpose());
      }
    }
  }
  EXPECT_EQ(resets, 3600);
}

TEST(AnnealGammaFast, BitIdenticalToGenericSimulatedAnnealing) {
  // On the default model and on a routed CNOT line, whose objective prices
  // pair savings in closed form and string costs through its cache.
  Rng build_rng(106);
  const synth::HardwareTarget linear8 = synth::HardwareTarget::linear_nn(8);
  for (int rep = 0; rep < 6; ++rep) {
    const std::size_t n = 8;
    const auto terms = random_terms(n, 5, build_rng);
    const auto term_blocks = jw_term_blocks(n, terms);
    const auto blocks = core::discover_blocks(n, terms, {});
    const opt::SaOptions options{2.0, 0.05, 300, rep % 2 == 0 ? 0 : 50};

    const synth::HardwareTarget* hws[2] = {nullptr, &linear8};
    for (const synth::HardwareTarget* hw : hws) {
      Rng generic_rng(500 + rep);
      const core::GammaState generic = oracle::anneal_gamma(
          n, blocks,
          [&](const gf2::Matrix& g) {
            return oracle::fermionic_fast_cost(g, term_blocks, hw);
          },
          generic_rng, options);

      Rng fast_rng(500 + rep);
      core::GammaObjective objective(n, term_blocks, hw);
      const core::GammaState fast =
          core::anneal_gamma_fast(n, blocks, objective, fast_rng, options);

      const std::string where = "rep " + std::to_string(rep) + " device " +
                                (hw != nullptr ? hw->name : "none");
      EXPECT_TRUE(fast.gamma == generic.gamma) << where;
      EXPECT_EQ(fast.blocks, generic.blocks) << where;
      // Both Rngs must have consumed the identical stream.
      EXPECT_EQ(generic_rng.index(1u << 30), fast_rng.index(1u << 30))
          << where;
    }
  }
}

/// Weights of random_gtsp: real-valued in [-2, 8), or tie-prone integers
/// -3..4 like sort_advanced's (an interface saving plus a routing bonus
/// <= 0).
enum class GtspWeights { kReal, kInteger };

/// Random GTSP instance with a pure tabulated weight: clusters of
/// 1..max_size consecutive vertices.
oracle::GtspInstance random_gtsp(std::size_t clusters, std::size_t max_size,
                                 Rng& rng, std::vector<double>& table,
                                 GtspWeights weights = GtspWeights::kReal) {
  oracle::GtspInstance inst;
  int next = 0;
  for (std::size_t c = 0; c < clusters; ++c) {
    std::vector<int> cluster;
    const std::size_t size = 1 + rng.index(max_size);
    for (std::size_t v = 0; v < size; ++v) cluster.push_back(next++);
    inst.clusters.push_back(std::move(cluster));
  }
  const std::size_t stride = static_cast<std::size_t>(next);
  table.resize(stride * stride);
  for (double& v : table)
    v = weights == GtspWeights::kReal
            ? rng.uniform(-2.0, 8.0)
            : static_cast<double>(rng.range(-3, 4));
  inst.weight = [&table, stride](int a, int b) {
    return table[static_cast<std::size_t>(a) * stride +
                 static_cast<std::size_t>(b)];
  };
  return inst;
}

TEST(DenseGtsp, GaBitIdenticalToLazyReference) {
  // Real-valued weights: every SIMD level must reproduce the lazy solver's
  // order, choice, value and RNG position.
  const LevelSession session;
  Rng build_rng(107);
  for (int rep = 0; rep < 12; ++rep) {
    std::vector<double> table;
    const auto inst =
        random_gtsp(1 + build_rng.index(20), 3, build_rng, table);
    const opt::GtspOptions options{.population = 16,
                                   .generations = 40,
                                   .tournament = 3,
                                   .mutation_rate = 0.4,
                                   .stagnation_limit = 25};
    Rng ref_rng(700 + rep);
    const opt::GtspSolution reference =
        oracle::solve_gtsp_ga_reference(inst, ref_rng, options);
    const std::size_t ref_next = ref_rng.index(1u << 30);
    const opt::GtspDense dense = oracle::materialize(inst);
    for (const simd::Level lvl : session.levels()) {
      ASSERT_EQ(simd::set_level(lvl), lvl);
      Rng dense_rng(700 + rep);
      const opt::GtspSolution got =
          opt::solve_gtsp_ga(dense, dense_rng, options);
      const std::string where =
          "rep " + std::to_string(rep) + " " + simd::to_string(lvl);
      EXPECT_EQ(got.cluster_order, reference.cluster_order) << where;
      EXPECT_EQ(got.vertex_choice, reference.vertex_choice) << where;
      EXPECT_EQ(got.value, reference.value) << where;
      EXPECT_EQ(dense_rng.index(1u << 30), ref_next) << where;
    }
  }
}

TEST(DenseGtsp, GaBitIdenticalToLazyReferenceOnIntegerTies) {
  // Production weights are integers, so DP maxima and tournament fitnesses
  // tie often. 1..40 clusters of 1..12 vertices cross the 4/5 and 8/9 lane
  // group edges, and whichever cluster holds the last ids makes the tail
  // load read the matrix's slack. Default options; every SIMD level must
  // reproduce the lazy solver's order, choice, value and RNG position.
  const LevelSession session;
  Rng build_rng(123);
  for (int rep = 0; rep < 40; ++rep) {
    std::vector<double> table;
    const oracle::GtspInstance inst =
        random_gtsp(1 + static_cast<std::size_t>(rep), 12, build_rng, table,
                    GtspWeights::kInteger);
    Rng ref_rng(900 + rep);
    const opt::GtspSolution reference =
        oracle::solve_gtsp_ga_reference(inst, ref_rng);
    const std::size_t ref_next = ref_rng.index(1u << 30);
    const opt::GtspDense dense = oracle::materialize(inst);
    for (const simd::Level lvl : session.levels()) {
      ASSERT_EQ(simd::set_level(lvl), lvl);
      Rng dense_rng(900 + rep);
      const opt::GtspSolution got = opt::solve_gtsp_ga(dense, dense_rng);
      const std::string where =
          "rep " + std::to_string(rep) + " " + simd::to_string(lvl);
      EXPECT_EQ(got.cluster_order, reference.cluster_order) << where;
      EXPECT_EQ(got.vertex_choice, reference.vertex_choice) << where;
      EXPECT_EQ(got.value, reference.value) << where;
      EXPECT_EQ(dense_rng.index(1u << 30), ref_next) << where;
    }
  }
}

TEST(DenseGtsp, ValueDpBitEqualsBacktrackingDpAtEveryLevel) {
  // The lane DP the GA evaluates offspring with must return the backtracking
  // DP's value bit for bit, on real-valued and on tie-prone integer weights.
  const LevelSession session;
  Rng build_rng(131);
  for (int rep = 0; rep < 60; ++rep) {
    std::vector<double> table;
    const std::size_t clusters = 1 + build_rng.index(30);
    const oracle::GtspInstance inst = random_gtsp(
        clusters, 12, build_rng, table,
        rep % 2 == 0 ? GtspWeights::kReal : GtspWeights::kInteger);
    const opt::GtspDense dense = oracle::materialize(inst);
    std::vector<std::size_t> order(clusters);
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (int trial = 0; trial < 8; ++trial) {
      build_rng.shuffle(order);
      opt::GtspWorkspace ws;
      const double expected =
          opt::detail::cluster_dp(dense, order.data(), clusters, ws).value;
      for (const simd::Level lvl : session.levels()) {
        ASSERT_EQ(simd::set_level(lvl), lvl);
        const double got =
            opt::detail::cluster_dp_value(dense, order.data(), clusters, ws);
        EXPECT_EQ(std::memcmp(&got, &expected, sizeof(double)), 0)
            << "rep " << rep << " trial " << trial << " "
            << simd::to_string(lvl) << ": " << got << " vs " << expected;
      }
    }
  }
}

TEST(SortAdvanced, InstanceBitEqualsPerVertexPairReference) {
  // The per-block-pair fill must write every weight byte the historical
  // per-vertex-pair fill wrote (slack included), with the same clusters and
  // vertex targets, on the default model, a routed CNOT line, the XX
  // partner form and a routed XX line, at every SIMD level. Some blocks
  // repeat an earlier block's letters (with another phase), which must
  // earn no saving.
  const LevelSession session;
  Rng rng(141);
  int instances = 0;
  for (int rep = 0; rep < 60; ++rep) {
    const std::size_t n = 3 + rng.index(10);
    const std::size_t m = 1 + rng.index(40);
    std::vector<synth::RotationBlock> blocks = random_blocks(n, m, rng);
    for (std::size_t k = 1; k < m; ++k)
      if (rng.bernoulli(0.2)) {
        blocks[k].string = blocks[rng.index(k)].string;
        blocks[k].string.set_phase_exponent(static_cast<int>(rng.index(4)));
      }
    const synth::HardwareTarget linear = synth::HardwareTarget::linear_nn(n);
    const synth::HardwareTarget xx = synth::HardwareTarget::trapped_ion_xx();
    const synth::HardwareTarget xx_linear = xx_line(n);
    const synth::HardwareTarget* hws[4] = {nullptr, &linear, &xx, &xx_linear};
    for (const synth::HardwareTarget* hw : hws) {
      const core::detail::AdvancedInstance reference =
          oracle::advanced_instance_reference(blocks, hw);
      for (const simd::Level lvl : session.levels()) {
        ASSERT_EQ(simd::set_level(lvl), lvl);
        const core::detail::AdvancedInstance got =
            core::detail::advanced_instance(blocks, hw);
        const std::string where = "rep " + std::to_string(rep) + " device " +
                                  (hw != nullptr ? hw->name : "none") + " " +
                                  simd::to_string(lvl);
        EXPECT_EQ(got.gtsp.clusters, reference.gtsp.clusters) << where;
        EXPECT_EQ(got.gtsp.num_vertices, reference.gtsp.num_vertices) << where;
        EXPECT_EQ(got.targets, reference.targets) << where;
        ASSERT_EQ(got.gtsp.weights.size(), reference.gtsp.weights.size())
            << where;
        EXPECT_EQ(std::memcmp(got.gtsp.weights.data(),
                              reference.gtsp.weights.data(),
                              got.gtsp.weights.size() * sizeof(double)),
                  0)
            << where;
        ++instances;
      }
    }
  }
  EXPECT_EQ(instances, 60 * 4 * static_cast<int>(session.levels().size()));
}

TEST(DenseGtspDeathTest, AllocateRefusesNonConsecutiveClusterIds) {
  opt::GtspDense consecutive;
  consecutive.clusters = {{0, 1, 2}, {3}, {4, 5}};
  consecutive.allocate();
  EXPECT_EQ(consecutive.num_vertices, 6u);
  EXPECT_EQ(consecutive.weights.size(), 6u * 6u + opt::kGtspLanes - 1);
  opt::GtspDense gapped;
  gapped.clusters = {{0, 2}, {1, 3}};
  EXPECT_DEATH(gapped.allocate(), "consecutive");
  opt::GtspDense descending;
  descending.clusters = {{1, 0}, {2}};
  EXPECT_DEATH(descending.allocate(), "consecutive");
}

/// Random string whose letters come from a small alphabet on few qubits, so
/// interface savings collide often (ties between orders and targets).
pauli::PauliString tie_prone_string(std::size_t n, Rng& rng) {
  pauli::PauliString p(n);
  while (p.weight() == 0)
    for (std::size_t q = 0; q < n; ++q) {
      constexpr Letter letters[3] = {Letter::I, Letter::X, Letter::Y};
      p.set_letter(q, letters[rng.index(3)]);
    }
  return p;
}

/// One term of m blocks that all have support on `shared` qubits. Half the
/// draws share one x-vector (the structure of an excitation's strings), and
/// several shared columns are copied from another shared column, or copied
/// with X and Y swapped, so distinct candidate targets tie exactly.
std::vector<synth::RotationBlock> random_term(std::size_t n, std::size_t m,
                                              Rng& rng) {
  std::vector<synth::RotationBlock> blocks;
  const bool excitation_like = rng.index(2) == 0;
  const pauli::PauliString x_source = random_string(n, rng);
  for (std::size_t k = 0; k < m; ++k) {
    synth::RotationBlock b;
    if (excitation_like) {
      pauli::PauliString p(n);
      gf2::BitVec z(n);
      for (std::size_t q = 0; q < n; ++q) z.set(q, rng.index(2) == 1);
      p.set_symplectic(x_source.x() | x_source.z(), std::move(z));
      b.string = std::move(p);
    } else {
      b.string = rng.index(2) == 0 ? random_string(n, rng)
                                   : tie_prone_string(n, rng);
    }
    if (k > 0 && rng.index(4) == 0) b.string = blocks[rng.index(k)].string;
    blocks.push_back(std::move(b));
  }
  // Force support on a few shared qubits; copy some shared columns.
  const std::size_t num_shared = 1 + rng.index(std::min<std::size_t>(n, 4));
  std::vector<std::size_t> shared;
  for (std::size_t q = 0; q < n && shared.size() < num_shared; ++q)
    if (rng.index(2) == 0 || n - q <= num_shared - shared.size())
      shared.push_back(q);
  for (std::size_t q : shared)
    for (auto& b : blocks)
      if (b.string.letter(q) == Letter::I)
        b.string.set_letter(q, rng.index(2) == 0 ? Letter::X : Letter::Z);
  for (std::size_t k = 1; k < shared.size(); ++k) {
    if (rng.index(2) == 0) continue;
    const std::size_t from = shared[rng.index(k)];
    const bool swap_xy = rng.index(2) == 0;
    for (auto& b : blocks) {
      Letter l = b.string.letter(from);
      if (swap_xy && l == Letter::X)
        l = Letter::Y;
      else if (swap_xy && l == Letter::Y)
        l = Letter::X;
      b.string.set_letter(shared[k], l);
    }
  }
  for (std::size_t k = 0; k < blocks.size(); ++k) {
    blocks[k].string.set_phase_exponent(static_cast<int>(
        (blocks[k].string.x() & blocks[k].string.z()).popcount()));
    blocks[k].target = blocks[k].string.support().lowest_set();
    blocks[k].angle_coeff = 0.25 + static_cast<double>(k);
    blocks[k].param = static_cast<int>(k);
  }
  return blocks;
}

/// Row-major weight table of one term at one shared target, rows padded to
/// the DP's lane width (w[i * stride + j] = saving of j directly after i).
std::vector<int> weight_table(const std::vector<synth::RotationBlock>& blocks,
                              std::size_t target, std::size_t stride) {
  const std::size_t m = blocks.size();
  std::vector<int> w(m * stride, 0);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < m; ++j)
      if (i != j && !blocks[i].string.same_letters(blocks[j].string))
        w[i * stride + j] = synth::interface_saving(
            blocks[i].string, target, blocks[j].string, target);
  return w;
}

TEST(HeldKarp, PushedDpMatchesPullOracleAndBruteForce) {
  // Every term size up to a double excitation's 8 strings, at every SIMD
  // level: the pushed 8-lane DP must return the pull-form oracle's savings
  // AND order (the same first-maximizer tie-break), and the savings must be
  // the brute-force maximum over all m! orders.
  const LevelSession session;
  Rng rng(109);
  for (int rep = 0; rep < 64; ++rep) {
    const std::size_t m = 1 + static_cast<std::size_t>(rep) % 8;
    const std::size_t n = 3 + rng.index(6);
    const auto blocks = random_term(n, m, rng);
    const std::vector<std::size_t> shared = oracle::common_targets(blocks);
    ASSERT_FALSE(shared.empty());
    const std::size_t target = shared[rng.index(shared.size())];
    const std::size_t stride = core::detail::kHeldKarpLanes;
    const std::vector<int> w = weight_table(blocks, target, stride);
    const oracle::IntraResult ref =
        oracle::held_karp_order_pull(blocks, target);
    for (const simd::Level lvl : session.levels()) {
      ASSERT_EQ(simd::set_level(lvl), lvl);
      std::vector<std::size_t> order(m);
      const int savings =
          core::detail::held_karp_path(w.data(), m, stride, order.data());
      EXPECT_EQ(savings, ref.savings)
          << "rep " << rep << " level " << simd::to_string(lvl);
      EXPECT_EQ(order, ref.order)
          << "rep " << rep << " level " << simd::to_string(lvl);
    }
    std::vector<std::size_t> perm(m);
    for (std::size_t i = 0; i < m; ++i) perm[i] = i;
    int best = -1;
    do {
      int savings = 0;
      for (std::size_t k = 0; k + 1 < m; ++k)
        savings += w[perm[k] * stride + perm[k + 1]];
      best = std::max(best, savings);
    } while (std::next_permutation(perm.begin(), perm.end()));
    EXPECT_EQ(ref.savings, best) << "rep " << rep;
    int realized = 0;
    for (std::size_t k = 0; k + 1 < m; ++k)
      realized += w[ref.order[k] * stride + ref.order[k + 1]];
    EXPECT_EQ(realized, best) << "rep " << rep;
    EXPECT_LE(best, core::detail::path_savings_bound(w.data(), m, stride))
        << "rep " << rep;
  }
}

TEST(HeldKarp, WideTermsUseTwoLaneGroups) {
  // Terms of 9..12 blocks pad rows to 16 lanes; the pushed DP must still
  // agree with the pull oracle at every level.
  const LevelSession session;
  Rng rng(113);
  for (int rep = 0; rep < 8; ++rep) {
    const std::size_t m = 9 + rng.index(4);
    const std::size_t n = 4 + rng.index(4);
    auto blocks = random_blocks(n, m, rng);
    for (auto& b : blocks)
      if (b.string.letter(0) == Letter::I) b.string.set_letter(0, Letter::X);
    const std::size_t stride = 2 * core::detail::kHeldKarpLanes;
    const std::vector<int> w = weight_table(blocks, 0, stride);
    const oracle::IntraResult ref = oracle::held_karp_order_pull(blocks, 0);
    for (const simd::Level lvl : session.levels()) {
      ASSERT_EQ(simd::set_level(lvl), lvl);
      std::vector<std::size_t> order(m);
      EXPECT_EQ(core::detail::held_karp_path(w.data(), m, stride, order.data()),
                ref.savings)
          << "rep " << rep;
      EXPECT_EQ(order, ref.order) << "rep " << rep;
    }
  }
}

/// Letters, targets and angles of a sorted sequence must match exactly.
void expect_same_sequence(const std::vector<synth::RotationBlock>& got,
                          const std::vector<synth::RotationBlock>& want,
                          const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].string, want[k].string) << where << " slot " << k;
    EXPECT_EQ(got[k].target, want[k].target) << where << " slot " << k;
    EXPECT_EQ(got[k].param, want[k].param) << where << " slot " << k;
    EXPECT_EQ(got[k].angle_coeff, want[k].angle_coeff)
        << where << " slot " << k;
  }
}

TEST(BaselineOracle, SortBaselineMatchesReferenceOnRandomTerms) {
  // (a) Random per-term block sets, m = 1..8, with forced ties between
  // candidate targets: the ordered strings, targets and cost must equal the
  // reference sorter's, on the default model and on device models (the
  // routed linear_nn(n) that the compiler threads in, plus the XX partner
  // form with and without a constrained coupling map).
  const LevelSession session;
  Rng rng(117);
  for (int rep = 0; rep < 120; ++rep) {
    const std::size_t n = 3 + rng.index(8);
    const std::size_t num_terms = 1 + rng.index(4);
    std::vector<std::vector<synth::RotationBlock>> per_term;
    for (std::size_t t = 0; t < num_terms; ++t) {
      const std::size_t m = 1 + rng.index(8);
      per_term.push_back(random_term(n, m, rng));
      for (auto& b : per_term.back())
        b.param = static_cast<int>(10 * t) + b.param;
    }
    synth::HardwareTarget xx_routed = synth::HardwareTarget::trapped_ion_xx();
    xx_routed.coupling = synth::HardwareTarget::linear_nn(n).coupling;
    const synth::HardwareTarget devices[4] = {
        synth::HardwareTarget::all_to_all_cnot(),
        synth::HardwareTarget::linear_nn(n),
        synth::HardwareTarget::trapped_ion_xx(), xx_routed};
    for (const auto& hw : devices) {
      const synth::HardwareTarget* hw_ptr =
          hw.is_all_to_all_cnot() ? nullptr : &hw;
      const auto want = oracle::sort_baseline_reference(per_term, hw_ptr);
      for (const simd::Level lvl : session.levels()) {
        ASSERT_EQ(simd::set_level(lvl), lvl);
        const auto got = core::sort_baseline(per_term, hw_ptr);
        const std::string where = "rep " + std::to_string(rep) + " " +
                                  hw.name + " " + simd::to_string(lvl);
        expect_same_sequence(got, want, where);
        EXPECT_EQ(synth::sequence_model_cost(got, hw),
                  synth::sequence_model_cost(want, hw))
            << where;
      }
    }
  }
}

/// Fermionic-segment JW blocks of a molecule's first `ne` HMP2 terms under
/// the GT column's options (bosonic-only compression).
std::vector<std::vector<synth::RotationBlock>> gt_fermionic_blocks(
    const chem::Molecule& mol, std::size_t ne, const core::CompileOptions& opt,
    std::size_t& n) {
  auto basis = chem::build_sto3g(mol);
  chem::normalize_basis(basis);
  const auto ints = chem::compute_integrals(mol, basis);
  const auto scf = chem::run_rhf(mol, ints);
  const auto mo = chem::transform_to_mo(mol, ints, scf);
  const auto so = chem::to_spin_orbitals(mo);
  std::vector<fermion::ExcitationTerm> terms = vqe::uccsd_hmp2_terms(so);
  if (terms.size() > ne) terms.resize(ne);
  n = so.n;
  core::detail::StageContext ctx;
  ctx.n = n;
  ctx.terms = &terms;
  ctx.options = &opt;
  core::CompileResult result;
  Rng rng(opt.seed);
  core::detail::stage_plan(ctx, result, rng);
  return ctx.fermionic_jw_blocks;
}

TEST(BaselineOracle, ExactObjectiveMatchesLinearEncodingReference) {
  // (b) The GT fermionic blocks of HF, LiH and H2O(8) under 200 random
  // upper-triangular x permutation Gammas: the symplectic objective must
  // equal the reference objective that maps every block through a full
  // LinearEncoding and sorts with the reference sorter.
  core::CompileOptions opt;
  opt.transform = core::TransformKind::kBaselineGT;
  opt.sorting = core::SortingMode::kBaseline;
  opt.compression = core::CompressionMode::kBosonicOnly;
  opt.emit_circuit = false;
  const LevelSession session;
  struct Row {
    chem::Molecule mol;
    std::size_t ne;
  };
  const Row rows[3] = {{chem::make_hf(), 3}, {chem::make_lih(), 3},
                       {chem::make_h2o(), 8}};
  Rng rng(119);
  for (const Row& row : rows) {
    std::size_t n = 0;
    const auto blocks = gt_fermionic_blocks(row.mol, row.ne, opt, n);
    ASSERT_FALSE(blocks.empty()) << row.mol.name;
    for (int rep = 0; rep < 200; ++rep) {
      std::vector<std::size_t> perm(n);
      for (std::size_t i = 0; i < n; ++i) perm[i] = i;
      rng.shuffle(perm);
      const gf2::Matrix gamma = gf2::Matrix::random_upper_triangular(n, rng)
                                    .multiply(gf2::Matrix::permutation(perm));
      const int want =
          oracle::exact_fermionic_cost_reference(gamma, blocks, opt.target);
      for (const simd::Level lvl : session.levels()) {
        ASSERT_EQ(simd::set_level(lvl), lvl);
        EXPECT_EQ(core::detail::exact_fermionic_cost(gamma, blocks, opt,
                                                     nullptr),
                  want)
            << row.mol.name << " rep " << rep << " " << simd::to_string(lvl);
      }
    }
  }
}

}  // namespace
}  // namespace femto
