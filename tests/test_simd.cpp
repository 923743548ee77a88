// SIMD dispatch equivalence tests.
//
// The contract under test (sim/kernels.hpp, gf2/wordops.hpp): every
// dispatch level -- portable, AVX2, AVX-512 -- produces BIT-IDENTICAL
// results, because the vector paths reorder work across elements only,
// never within one element's arithmetic. The tests therefore compare raw
// bytes (memcmp), not tolerances. Levels the host CPU lacks are skipped
// automatically (simd::set_level clamps); on a plain x86-64 machine the
// suite still proves portable == AVX2, and on CI's x86-64-v3 leg that is
// the shipping pair.
#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <vector>

#include "circuit/quantum_circuit.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "gf2/bitvec.hpp"
#include "gf2/wordops.hpp"
#include "obs/metrics.hpp"
#include "sim/statevector.hpp"
#include "support/level_session.hpp"

namespace femto {
namespace {

using circuit::Gate;
using circuit::GateKind;
using sim::Complex;
using sim::StateVector;

constexpr GateKind kAllKinds[] = {
    GateKind::kX,    GateKind::kY,  GateKind::kZ,    GateKind::kH,
    GateKind::kS,    GateKind::kSdg, GateKind::kRz,  GateKind::kRx,
    GateKind::kRy,   GateKind::kCnot, GateKind::kCz, GateKind::kSwap,
    GateKind::kXXrot, GateKind::kXYrot};

[[nodiscard]] gf2::BitVec random_bits(std::size_t n, Rng& rng) {
  gf2::BitVec v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.bernoulli(0.5));
  return v;
}

[[nodiscard]] StateVector random_state(std::size_t n, Rng& rng) {
  StateVector sv(n);
  for (auto& a : sv.amplitudes()) a = Complex(rng.normal(), rng.normal());
  sv.normalize();
  return sv;
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

[[nodiscard]] bool bytes_equal(const std::vector<Complex>& a,
                               const std::vector<Complex>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0;
}

// --- dispatch plumbing ----------------------------------------------------

TEST(SimdDispatch, SetLevelClampsToHostSupport) {
  LevelSession session;
  const simd::Level best = simd::max_supported();
  EXPECT_EQ(simd::set_level(simd::Level::kPortable), simd::Level::kPortable);
  // Requesting more than the host has clamps to the host maximum.
  EXPECT_LE(static_cast<int>(simd::set_level(simd::Level::kAvx512)),
            static_cast<int>(best));
  EXPECT_EQ(simd::set_level(best), best);
}

TEST(SimdDispatch, LevelGaugePublished) {
  LevelSession session;
  (void)simd::set_level(simd::Level::kPortable);
  EXPECT_EQ(obs::registry().gauge("sim.simd_level").value(), 0);
  const simd::Level best = simd::max_supported();
  (void)simd::set_level(best);
  EXPECT_EQ(obs::registry().gauge("sim.simd_level").value(),
            static_cast<std::int64_t>(best));
}

TEST(SimdDispatch, LevelNames) {
  EXPECT_STREQ(simd::to_string(simd::Level::kPortable), "portable");
  EXPECT_STREQ(simd::to_string(simd::Level::kAvx2), "avx2");
  EXPECT_STREQ(simd::to_string(simd::Level::kAvx512), "avx512");
}

// --- gf2 word kernels -----------------------------------------------------

// Widths straddling the word boundaries: 1, 63/64/65 (one-word edge),
// 255/256/257 (the 4-word AVX2 block edge and the 8-word half of AVX-512).
constexpr std::size_t kWidths[] = {1, 63, 64, 65, 255, 256, 257};

TEST(SimdWordops, AllReductionsIdenticalAcrossLevels) {
  LevelSession session;
  Rng rng(20250807);
  for (const std::size_t n : kWidths) {
    for (int rep = 0; rep < 8; ++rep) {
      const gf2::BitVec a = random_bits(n, rng);
      const gf2::BitVec b = random_bits(n, rng);
      const gf2::BitVec c = random_bits(n, rng);
      const gf2::BitVec d = random_bits(n, rng);
      const std::size_t nw = a.word_count();

      std::vector<std::size_t> pops, apops, opops;
      std::vector<int> pars, apars;
      std::vector<gf2::wordops::SupportCounts> scs;
      for (const simd::Level lvl : session.levels()) {
        ASSERT_EQ(simd::set_level(lvl), lvl);
        pops.push_back(gf2::wordops::popcount(a.word_data(), nw));
        apops.push_back(
            gf2::wordops::and_popcount(a.word_data(), b.word_data(), nw));
        opops.push_back(
            gf2::wordops::or_popcount(a.word_data(), b.word_data(), nw));
        pars.push_back(gf2::wordops::parity(a.word_data(), nw) ? 1 : 0);
        apars.push_back(
            gf2::wordops::and_parity(a.word_data(), b.word_data(), nw) ? 1
                                                                       : 0);
        scs.push_back(gf2::wordops::support_counts(
            a.word_data(), b.word_data(), c.word_data(), d.word_data(), nw));
      }
      for (std::size_t l = 1; l < session.levels().size(); ++l) {
        EXPECT_EQ(pops[l], pops[0]) << "popcount n=" << n;
        EXPECT_EQ(apops[l], apops[0]) << "and_popcount n=" << n;
        EXPECT_EQ(opops[l], opops[0]) << "or_popcount n=" << n;
        EXPECT_EQ(pars[l], pars[0]) << "parity n=" << n;
        EXPECT_EQ(apars[l], apars[0]) << "and_parity n=" << n;
        EXPECT_EQ(scs[l].common, scs[0].common) << "support_counts n=" << n;
        EXPECT_EQ(scs[l].equal, scs[0].equal) << "support_counts n=" << n;
        EXPECT_EQ(scs[l].has_xy, scs[0].has_xy) << "support_counts n=" << n;
      }
    }
  }
}

TEST(SimdWordops, InplaceOpsIdenticalAcrossLevels) {
  LevelSession session;
  Rng rng(77);
  for (const std::size_t n : kWidths) {
    const gf2::BitVec src = random_bits(n, rng);
    const gf2::BitVec base = random_bits(n, rng);
    std::vector<gf2::BitVec> xors, ors, ands;
    for (const simd::Level lvl : session.levels()) {
      ASSERT_EQ(simd::set_level(lvl), lvl);
      gf2::BitVec x = base, o = base, a = base;
      x ^= src;
      o |= src;
      a &= src;
      xors.push_back(x);
      ors.push_back(o);
      ands.push_back(a);
    }
    for (std::size_t l = 1; l < session.levels().size(); ++l) {
      EXPECT_TRUE(xors[l] == xors[0]) << "xor n=" << n;
      EXPECT_TRUE(ors[l] == ors[0]) << "or n=" << n;
      EXPECT_TRUE(ands[l] == ands[0]) << "and n=" << n;
    }
  }
}

// --- statevector kernels --------------------------------------------------

TEST(SimdKernels, EveryGateKindBitIdenticalAcrossLevels) {
  LevelSession session;
  Rng rng(4242);
  const std::size_t n = 7;
  for (const GateKind kind : kAllKinds) {
    for (int rep = 0; rep < 4; ++rep) {
      const Gate g = random_gate(kind, n, rng);
      const StateVector base = random_state(n, rng);
      std::vector<std::vector<Complex>> results;
      for (const simd::Level lvl : session.levels()) {
        ASSERT_EQ(simd::set_level(lvl), lvl);
        StateVector sv = base;
        sv.apply_gate(g);
        results.push_back(sv.amplitudes());
      }
      for (std::size_t l = 1; l < session.levels().size(); ++l)
        EXPECT_TRUE(bytes_equal(results[l], results[0]))
            << "gate kind " << static_cast<int>(kind) << " level "
            << simd::to_string(session.levels()[l]);
    }
  }
}

TEST(SimdKernels, PauliExpBitIdenticalAcrossLevels) {
  LevelSession session;
  Rng rng(999);
  // Awkward mask shapes: pure Z (diagonal path, various run lengths), pure
  // X, X with low/high pivot, Y mixtures, single site, full support.
  const char* strings[] = {"ZIIIIII", "IIIZIIZ", "ZZZZZZZ", "XIIIIII",
                           "IIIIIIX", "XXIIIXX", "YIIIIIY", "XYZIZYX",
                           "IYIIIYI", "ZZXXYYZ"};
  for (const char* s : strings) {
    const pauli::PauliString p = pauli::PauliString::from_string(s);
    for (const double angle : {0.37, -1.1, 0.0}) {
      const StateVector base = random_state(p.num_qubits(), rng);
      std::vector<std::vector<Complex>> exps, accs;
      for (const simd::Level lvl : session.levels()) {
        ASSERT_EQ(simd::set_level(lvl), lvl);
        StateVector sv = base;
        sv.apply_pauli_exp(p, angle);
        exps.push_back(sv.amplitudes());
        std::vector<Complex> out(base.dim(), Complex{0.0, 0.0});
        base.accumulate_pauli(p, Complex{0.5, -0.25}, out);
        accs.push_back(std::move(out));
      }
      for (std::size_t l = 1; l < session.levels().size(); ++l) {
        EXPECT_TRUE(bytes_equal(exps[l], exps[0]))
            << s << " angle " << angle << " exp at "
            << simd::to_string(session.levels()[l]);
        EXPECT_TRUE(bytes_equal(accs[l], accs[0]))
            << s << " accumulate at "
            << simd::to_string(session.levels()[l]);
      }
    }
  }
}

/// Reference Pauli exponential: the historical per-index loop, no sub-run
/// decomposition. Guards the run-decomposed kernel against structural
/// mistakes (pair enumeration, phase hoisting), independent of SIMD.
void reference_pauli_exp(std::vector<Complex>& a,
                         const sim::kernels::PauliMasks& m, double c,
                         double s) {
  const std::size_t dim = a.size();
  if (m.x == 0) {
    const Complex even{c, -s}, odd{c, s};
    for (std::size_t i = 0; i < dim; ++i)
      a[i] *= (std::popcount(i & m.z) & 1) ? odd : even;
    return;
  }
  const std::size_t pb = std::size_t{1} << (std::bit_width(m.x) - 1);
  const std::size_t flip = static_cast<std::size_t>(m.x);
  const Complex mis{0.0, -s};
  for (std::size_t g = 0; g < dim; g += 2 * pb) {
    for (std::size_t i = g; i < g + pb; ++i) {
      const std::size_t j = i ^ flip;
      const Complex ai = a[i], aj = a[j];
      a[i] = c * ai + mis * m.phase(j) * aj;
      a[j] = c * aj + mis * m.phase(i) * ai;
    }
  }
}

TEST(SimdKernels, PauliExpMatchesPerIndexReference) {
  LevelSession session;
  ASSERT_EQ(simd::set_level(simd::Level::kPortable), simd::Level::kPortable);
  Rng rng(31337);
  const char* strings[] = {"ZIZ", "XIX", "YZY", "IXI", "ZZZZZ", "XYZIX"};
  for (const char* s : strings) {
    const pauli::PauliString p = pauli::PauliString::from_string(s);
    const StateVector base = random_state(p.num_qubits(), rng);
    const double angle = 0.83;
    const double half = p.sign().real() * angle / 2;

    StateVector sv = base;
    sv.apply_pauli_exp(p, angle);

    std::vector<Complex> ref = base.amplitudes();
    reference_pauli_exp(ref, sim::detail::make_masks(p), std::cos(half),
                        std::sin(half));
    EXPECT_TRUE(bytes_equal(sv.amplitudes(), ref)) << s;
  }
}

}  // namespace
}  // namespace femto
