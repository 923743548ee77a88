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
//
// Also covered here: sim::BatchedState against B independent per-state
// runs (every gate kind, batch sizes 1/2/7/64, per-lane parameter sweeps),
// and the batched wiring in vqe::energies and core::evolve_states.
#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <vector>

#include "circuit/quantum_circuit.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/dynamics.hpp"
#include "gf2/bitvec.hpp"
#include "gf2/wordops.hpp"
#include "obs/metrics.hpp"
#include "sim/batched.hpp"
#include "sim/statevector.hpp"
#include "support/level_session.hpp"
#include "vqe/driver.hpp"

namespace femto {
namespace {

using circuit::Gate;
using circuit::GateKind;
using circuit::QuantumCircuit;
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

// --- batched statevector --------------------------------------------------

constexpr std::size_t kBatches[] = {1, 2, 7, 64};

TEST(BatchedState, EveryGateKindMatchesPerState) {
  Rng rng(60606);
  const std::size_t n = 5;
  for (const std::size_t batch : kBatches) {
    std::vector<StateVector> states;
    for (std::size_t b = 0; b < batch; ++b)
      states.push_back(random_state(n, rng));
    for (const GateKind kind : kAllKinds) {
      const Gate g = random_gate(kind, n, rng);
      sim::BatchedState bs = sim::BatchedState::from_states(states);
      bs.apply_gate(g);
      for (std::size_t b = 0; b < batch; ++b) {
        StateVector sv = states[b];
        sv.apply_gate(g);
        EXPECT_TRUE(bytes_equal(bs.lane(b).amplitudes(), sv.amplitudes()))
            << "kind " << static_cast<int>(kind) << " batch " << batch
            << " lane " << b;
      }
    }
  }
}

TEST(BatchedState, SharedCircuitMatchesPerState) {
  Rng rng(123321);
  const std::size_t n = 6;
  QuantumCircuit c(n);
  for (int k = 0; k < 40; ++k) {
    const GateKind kind =
        kAllKinds[rng.index(std::size(kAllKinds))];
    c.append(random_gate(kind, n, rng));
  }
  // Consecutive diagonals on one qubit exercise the fusion path.
  Gate rz;
  rz.kind = GateKind::kRz;
  rz.q0 = 2;
  rz.angle = 0.71;
  c.append(rz);
  rz.angle = -0.32;
  c.append(rz);

  for (const std::size_t batch : kBatches) {
    std::vector<StateVector> states;
    for (std::size_t b = 0; b < batch; ++b)
      states.push_back(random_state(n, rng));
    sim::BatchedState bs = sim::BatchedState::from_states(states);
    bs.apply_circuit(c);
    for (std::size_t b = 0; b < batch; ++b) {
      StateVector sv = states[b];
      sv.apply_circuit(c);
      EXPECT_TRUE(bytes_equal(bs.lane(b).amplitudes(), sv.amplitudes()))
          << "batch " << batch << " lane " << b;
    }
  }
}

TEST(BatchedState, PerLanePauliSweepMatchesPerState) {
  Rng rng(789789);
  const char* strings[] = {"ZIZIZ", "XXIII", "YZIXY", "IIZII", "XIIIX"};
  for (const char* s : strings) {
    const pauli::PauliString p = pauli::PauliString::from_string(s);
    const std::size_t n = p.num_qubits();
    for (const std::size_t batch : kBatches) {
      std::vector<StateVector> states;
      std::vector<double> angles;
      for (std::size_t b = 0; b < batch; ++b) {
        states.push_back(random_state(n, rng));
        angles.push_back(b == 0 ? 0.0 : rng.uniform(-2.0, 2.0));
      }
      sim::BatchedState bs = sim::BatchedState::from_states(states);
      bs.apply_pauli_exp(p, std::span<const double>(angles));
      for (std::size_t b = 0; b < batch; ++b) {
        StateVector sv = states[b];
        sv.apply_pauli_exp(p, angles[b]);
        EXPECT_TRUE(bytes_equal(bs.lane(b).amplitudes(), sv.amplitudes()))
            << s << " batch " << batch << " lane " << b;
      }
    }
  }
}

TEST(BatchedState, ExpectationsMatchPerState) {
  Rng rng(246810);
  const std::size_t n = 5;
  pauli::PauliSum h;
  h.add(Complex{0.7, 0.0}, pauli::PauliString::from_string("ZZIII"));
  h.add(Complex{-0.2, 0.0}, pauli::PauliString::from_string("XIXII"));
  h.add(Complex{0.05, 0.0}, pauli::PauliString::from_string("IYYIZ"));
  for (const std::size_t batch : kBatches) {
    std::vector<StateVector> states;
    for (std::size_t b = 0; b < batch; ++b)
      states.push_back(random_state(n, rng));
    const sim::BatchedState bs = sim::BatchedState::from_states(states);
    const std::vector<Complex> exps = bs.expectations(h);
    ASSERT_EQ(exps.size(), batch);
    for (std::size_t b = 0; b < batch; ++b) {
      const Complex scalar = states[b].expectation(h);
      EXPECT_EQ(exps[b].real(), scalar.real()) << "lane " << b;
      EXPECT_EQ(exps[b].imag(), scalar.imag()) << "lane " << b;
    }
  }
}

TEST(BatchedState, FitsMatchesConstructorContract) {
  // fits() is the graceful-fallback probe for the abort-on-violation
  // constructor precondition: n + lane_pow (lanes = bit_ceil(batch)) must
  // stay within the 2^28-amplitude padded-buffer ceiling.
  EXPECT_TRUE(sim::BatchedState::fits(3, 1));
  EXPECT_TRUE(sim::BatchedState::fits(28, 1));
  EXPECT_FALSE(sim::BatchedState::fits(28, 2));
  EXPECT_TRUE(sim::BatchedState::fits(24, 16));
  EXPECT_FALSE(sim::BatchedState::fits(24, 17));  // pads to 32 lanes
  EXPECT_TRUE(sim::BatchedState::fits(0, std::size_t{1} << 28));
  EXPECT_FALSE(sim::BatchedState::fits(1, std::size_t{1} << 28));
  EXPECT_FALSE(sim::BatchedState::fits(3, 0));
  // Far past the ceiling: must return false, not overflow the shift.
  EXPECT_FALSE(sim::BatchedState::fits(60, 16));
  EXPECT_FALSE(sim::BatchedState::fits(3, ~std::size_t{0}));
}

TEST(BatchedState, AppliedCounterAdvances) {
  const std::uint64_t before =
      obs::registry().counter("sim.batched_states_applied").value();
  sim::BatchedState bs(3, 5);
  Gate g;
  g.kind = GateKind::kH;
  g.q0 = 1;
  bs.apply_gate(g);
  EXPECT_EQ(obs::registry().counter("sim.batched_states_applied").value(),
            before + 5);
}

// --- batched wiring: VQE, dynamics, verify --------------------------------

TEST(BatchedWiring, VqeEnergiesMatchScalarPath) {
  vqe::VqeProblem prob;
  prob.num_qubits = 4;
  prob.reference_index = 0b0011;
  prob.hamiltonian.add(Complex{0.4, 0.0}, pauli::PauliString::from_string("ZZII"));
  prob.hamiltonian.add(Complex{0.1, 0.0}, pauli::PauliString::from_string("XXYY"));
  prob.hamiltonian.add(Complex{-0.3, 0.0}, pauli::PauliString::from_string("IZIZ"));
  for (const char* s : {"XYII", "IXYI", "YXXX"}) {
    pauli::PauliSum g;
    g.add(Complex{0.0, 1.0}, pauli::PauliString::from_string(s));
    prob.generators.push_back(std::move(g));
  }
  Rng rng(1357);
  std::vector<std::vector<double>> thetas;
  for (std::size_t b = 0; b < 7; ++b) {
    std::vector<double> t(prob.generators.size());
    for (double& v : t) v = rng.uniform(-1.5, 1.5);
    thetas.push_back(std::move(t));
  }
  thetas[3].assign(prob.generators.size(), 0.0);  // exercise theta = 0 lanes

  const std::vector<double> batched = vqe::energies(
      prob, std::span<const std::vector<double>>(thetas));
  ASSERT_EQ(batched.size(), thetas.size());
  for (std::size_t b = 0; b < thetas.size(); ++b)
    EXPECT_EQ(batched[b], vqe::energy(prob, thetas[b])) << "lane " << b;
}

TEST(BatchedWiring, TrotterEvolutionMatchesPerState) {
  Rng rng(8642);
  const std::size_t n = 4;
  pauli::PauliSum h;
  h.add(Complex{0.5, 0.0}, pauli::PauliString::from_string("ZZII"));
  h.add(Complex{0.25, 0.0}, pauli::PauliString::from_string("IXXI"));
  h.add(Complex{0.1, 0.0}, pauli::PauliString::from_string("IIZY"));
  const core::TrotterResult trotter =
      core::compile_trotter_step(n, h, 0.05);

  std::vector<StateVector> states;
  for (std::size_t b = 0; b < 3; ++b) states.push_back(random_state(n, rng));
  const sim::BatchedState evolved = core::evolve_states(
      trotter.step, 4, sim::BatchedState::from_states(states));
  for (std::size_t b = 0; b < states.size(); ++b) {
    StateVector sv = states[b];
    for (int step = 0; step < 4; ++step) sv.apply_circuit(trotter.step);
    EXPECT_TRUE(bytes_equal(evolved.lane(b).amplitudes(), sv.amplitudes()))
        << "lane " << b;
  }
}

}  // namespace
}  // namespace femto
