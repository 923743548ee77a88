// SIMD dispatch equivalence tests.
//
// The contract under test (sim/kernels.hpp): every dispatch level --
// portable, AVX2, AVX-512 -- produces BIT-IDENTICAL results, because the
// vector paths reorder work across elements only, never within one
// element's arithmetic. The tests therefore compare raw bytes (memcmp), not
// tolerances. Levels the host CPU lacks are skipped automatically
// (simd::set_level clamps); on a plain x86-64 machine the suite still
// proves portable == AVX2, and on CI's x86-64-v3 leg that is the shipping
// pair. The GTSP and Held-Karp lanes have their own level tests in
// test_compile_hot; the GF(2) word kernels have one path, checked bit by
// bit in test_gf2.
#include <gtest/gtest.h>

#include <complex>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "circuit/quantum_circuit.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
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

// The level a process resolves at start-up is the one FEMTO_SIMD names,
// clamped to the host. A value that names no level fails here, so a CI leg
// meant to force the portable kernels cannot run the best level unnoticed.
// (Every test that switches levels restores the entry level on exit.)
TEST(SimdDispatch, StartupLevelIsTheOneFemtoSimdNames) {
  const char* env = std::getenv("FEMTO_SIMD");
  const std::string value = env == nullptr ? "auto" : env;
  simd::Level named = simd::max_supported();
  if (value == "portable" || value == "scalar" || value == "0") {
    named = simd::Level::kPortable;
  } else if (value == "avx2" || value == "1") {
    named = simd::Level::kAvx2;
  } else if (value == "avx512" || value == "2") {
    named = simd::Level::kAvx512;
  } else {
    ASSERT_EQ(value, "auto") << "FEMTO_SIMD names no level";
  }
  EXPECT_EQ(simd::level(), simd::detail::clamp(named))
      << "FEMTO_SIMD=" << value;
}

TEST(SimdDispatch, UnknownFemtoSimdFallsBackToBestOnStderr) {
  for (const char* typo : {"portabel", "PORTABLE", "avx-2", ""}) {
    testing::internal::CaptureStderr();
    const simd::Level got =
        simd::detail::parse_level(typo, simd::Level::kAvx2);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(got, simd::Level::kAvx2) << '"' << typo << '"';
    EXPECT_NE(err.find(std::string("FEMTO_SIMD=\"") + typo + '"'),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("accepted: portable"), std::string::npos) << err;
  }
  for (const char* ok : {"portable", "scalar", "0", "avx2", "1", "avx512",
                         "2", "auto"}) {
    testing::internal::CaptureStderr();
    (void)simd::detail::parse_level(ok, simd::Level::kAvx2);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "") << ok;
  }
  EXPECT_EQ(simd::detail::parse_level("0", simd::Level::kAvx2),
            simd::Level::kPortable);
  EXPECT_EQ(simd::detail::parse_level("avx512", simd::Level::kAvx2),
            simd::Level::kAvx512);
  EXPECT_EQ(simd::detail::parse_level(nullptr, simd::Level::kAvx2),
            simd::Level::kAvx2);
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
