// Statevector kernel bench: stride-based kernels (sim/kernels.hpp) vs the
// seed per-amplitude branch-in-loop implementation, at 20 qubits.
//
// The seed loops are reproduced verbatim below (namespace seed) so the
// speedup is measured against the real baseline, not a strawman. Emits
// BENCH_statevector.json with per-kind medians and the headline
// singleq_speedup / twoq_speedup ratios.
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_harness.hpp"
#include "circuit/gate.hpp"
#include "circuit/quantum_circuit.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "sim/statevector.hpp"

namespace {

using namespace femto;
using sim::Complex;

// --- seed implementation (pre-kernel apply loops, kept for comparison) ----

namespace seed {

void apply_matrix1(std::vector<Complex>& amps, std::size_t q, Complex m00,
                   Complex m01, Complex m10, Complex m11) {
  const std::size_t bit = std::size_t{1} << q;
  for (std::size_t i = 0; i < amps.size(); ++i) {
    if (i & bit) continue;
    const Complex a0 = amps[i];
    const Complex a1 = amps[i | bit];
    amps[i] = m00 * a0 + m01 * a1;
    amps[i | bit] = m10 * a0 + m11 * a1;
  }
}

void apply_cnot(std::vector<Complex>& amps, std::size_t c, std::size_t t) {
  const std::size_t cb = std::size_t{1} << c;
  const std::size_t tb = std::size_t{1} << t;
  for (std::size_t i = 0; i < amps.size(); ++i)
    if ((i & cb) && !(i & tb)) std::swap(amps[i], amps[i | tb]);
}

void apply_xxrot(std::vector<Complex>& amps, std::size_t a, std::size_t b,
                 double angle) {
  const std::size_t mask = (std::size_t{1} << a) | (std::size_t{1} << b);
  const double c = std::cos(angle / 2), s = std::sin(angle / 2);
  for (std::size_t i = 0; i < amps.size(); ++i) {
    const std::size_t j = i ^ mask;
    if (j < i) continue;
    const Complex ai = amps[i], aj = amps[j];
    amps[i] = c * ai - Complex(0, s) * aj;
    amps[j] = c * aj - Complex(0, s) * ai;
  }
}

}  // namespace seed

void randomize(sim::StateVector& sv, unsigned s) {
  Rng rng(s);
  for (auto& a : sv.amplitudes()) a = Complex(rng.normal(), rng.normal());
  sv.normalize();
}

}  // namespace

int main() {
  constexpr std::size_t kQubits = 20;
  constexpr int kRepeats = 7;
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);

  bench::Harness h("statevector");
  sim::StateVector sv(kQubits);
  randomize(sv, 7);
  std::vector<Complex> seed_amps = sv.amplitudes();

  // --- single-qubit gate application: one H sweep over every qubit -------
  const double seed_h = h.run("seed/h_sweep_20q", kRepeats, [&] {
    for (std::size_t q = 0; q < kQubits; ++q)
      seed::apply_matrix1(seed_amps, q, inv_sqrt2, inv_sqrt2, inv_sqrt2,
                          -inv_sqrt2);
  });
  const double kern_h = h.run("kernels/h_sweep_20q", kRepeats, [&] {
    for (std::size_t q = 0; q < kQubits; ++q)
      sv.apply_matrix1(q, inv_sqrt2, inv_sqrt2, inv_sqrt2, -inv_sqrt2);
  });

  // Diagonal gates: the seed path pays the full pair loop, the kernel path
  // is one fused streaming pass.
  const Complex i_unit{0.0, 1.0};
  const double seed_rz = h.run("seed/rz_sweep_20q", kRepeats, [&] {
    for (std::size_t q = 0; q < kQubits; ++q)
      seed::apply_matrix1(seed_amps, q, std::exp(-i_unit * 0.1),
                          Complex{0, 0}, Complex{0, 0},
                          std::exp(i_unit * 0.1));
  });
  const double kern_rz = h.run("kernels/rz_sweep_20q", kRepeats, [&] {
    for (std::size_t q = 0; q < kQubits; ++q)
      sv.apply_gate(circuit::Gate::rz(q, 0.2));
  });

  // --- two-qubit gate application: CNOT chain + XX rotations -------------
  const double seed_cnot = h.run("seed/cnot_chain_20q", kRepeats, [&] {
    for (std::size_t q = 0; q + 1 < kQubits; ++q)
      seed::apply_cnot(seed_amps, q, q + 1);
  });
  const double kern_cnot = h.run("kernels/cnot_chain_20q", kRepeats, [&] {
    for (std::size_t q = 0; q + 1 < kQubits; ++q) sv.apply_cnot(q, q + 1);
  });

  const double seed_xx = h.run("seed/xxrot_chain_20q", kRepeats, [&] {
    for (std::size_t q = 0; q + 1 < kQubits; ++q)
      seed::apply_xxrot(seed_amps, q, q + 1, 0.37);
  });
  const double kern_xx = h.run("kernels/xxrot_chain_20q", kRepeats, [&] {
    for (std::size_t q = 0; q + 1 < kQubits; ++q)
      sv.apply_xxrot(q, q + 1, 0.37);
  });

  // --- Pauli exponential (packed-mask path) ------------------------------
  pauli::PauliString p(kQubits);
  for (std::size_t q = 0; q < kQubits; q += 2) p.set_letter(q, pauli::Letter::X);
  for (std::size_t q = 1; q < kQubits; q += 2) p.set_letter(q, pauli::Letter::Z);
  h.run("kernels/pauli_exp_20q", kRepeats, [&] { sv.apply_pauli_exp(p, 0.123); });

  const double singleq = (seed_h + seed_rz) / (kern_h + kern_rz);
  const double twoq = (seed_cnot + seed_xx) / (kern_cnot + kern_xx);
  h.metric("singleq_speedup", singleq);
  h.metric("twoq_speedup", twoq);
  h.metric("h_speedup", seed_h / kern_h);
  h.metric("rz_speedup", seed_rz / kern_rz);
  h.metric("cnot_speedup", seed_cnot / kern_cnot);
  h.metric("xxrot_speedup", seed_xx / kern_xx);
  std::printf("single-qubit speedup: %.2fx, two-qubit speedup: %.2fx\n",
              singleq, twoq);

  // --- SIMD dispatch: forced-portable vs best level ----------------------
  // L1-resident state (11 qubits = 32 KiB of amplitudes) so the comparison
  // measures the arithmetic kernels rather than DRAM bandwidth, and gates on
  // qubits >= 3 only: a gate on qubit q works on contiguous runs of 2^q
  // elements, and sub-vector runs fall back to the shared scalar tail BY
  // DESIGN (bit-identity), so low-qubit gates measure dispatch overhead, not
  // vector throughput. Both timings run the IDENTICAL femto kernels; only
  // simd::set_level changes between them, so the ratio is machine-portable
  // the same way the old-vs-new ratios above are.
  const simd::Level best = simd::max_supported();
  const std::size_t ns = 11;
  sim::StateVector svs(ns);
  randomize(svs, 21);
  pauli::PauliString ps(ns);
  for (std::size_t q = 0; q < ns; ++q)
    ps.set_letter(q, (q % 2 == 0) ? pauli::Letter::X : pauli::Letter::Z);
  const auto simd_workload = [&] {
    for (int rep = 0; rep < 64; ++rep) {
      for (std::size_t q = 3; q < ns; ++q)
        svs.apply_matrix1(q, inv_sqrt2, inv_sqrt2, inv_sqrt2, -inv_sqrt2);
      for (std::size_t q = 3; q < ns; ++q)
        svs.apply_gate(circuit::Gate::rz(q, 0.2));
      for (std::size_t q = 3; q + 1 < ns; ++q) svs.apply_xxrot(q, q + 1, 0.37);
    }
  };
  FEMTO_ASSERT(simd::set_level(simd::Level::kPortable) ==
               simd::Level::kPortable);
  const double t_portable =
      h.run("kernels/simd_sweep_11q_portable", kRepeats, simd_workload);
  FEMTO_ASSERT(simd::set_level(best) == best);
  // Fixed section name (the host's best level lands in info_simd_level):
  // check_bench matches sections by name across machines.
  const double t_best =
      h.run("kernels/simd_sweep_11q_best", kRepeats, simd_workload);

  // --- bit-identity pin: every dispatch level ----------------------------
  // The contract the SIMD layer is built on: changing the dispatch level
  // NEVER changes a single amplitude bit.
  double bit_identical = 1.0;
  {
    circuit::QuantumCircuit probe(ns);
    Rng prng(55);
    for (int k = 0; k < 48; ++k) {
      const auto q0 = prng.index(ns);
      auto q1 = prng.index(ns);
      while (q1 == q0) q1 = prng.index(ns);
      switch (prng.index(6)) {
        case 0: probe.append(circuit::Gate::h(q0)); break;
        case 1: probe.append(circuit::Gate::rz(q0, prng.uniform(-2.0, 2.0))); break;
        case 2: probe.append(circuit::Gate::ry(q0, prng.uniform(-2.0, 2.0))); break;
        case 3: probe.append(circuit::Gate::cnot(q0, q1)); break;
        case 4: probe.append(circuit::Gate::xxrot(q0, q1, prng.uniform(-2.0, 2.0))); break;
        case 5: probe.append(circuit::Gate::xyrot(q0, q1, prng.uniform(-2.0, 2.0))); break;
      }
    }
    sim::StateVector probe_base(ns);
    randomize(probe_base, 77);
    std::vector<std::vector<Complex>> level_amps;
    for (const simd::Level lvl :
         {simd::Level::kPortable, simd::Level::kAvx2, simd::Level::kAvx512}) {
      if (simd::set_level(lvl) != lvl) continue;  // level not on this host
      sim::StateVector sv_l = probe_base;
      sv_l.apply_circuit(probe);
      sv_l.apply_pauli_exp(ps, 0.321);
      level_amps.push_back(sv_l.amplitudes());
    }
    FEMTO_ASSERT(simd::set_level(best) == best);
    for (std::size_t l = 1; l < level_amps.size(); ++l)
      if (std::memcmp(level_amps[l].data(), level_amps[0].data(),
                      level_amps[0].size() * sizeof(Complex)) != 0)
        bit_identical = 0.0;
  }

  h.section("kernels/simd");
  h.metric("simd_kernel_speedup", t_portable / t_best);
  h.metric("simd_bit_identical", bit_identical);
  h.metric("info_simd_level", static_cast<double>(best));
  std::printf(
      "simd kernel speedup (%s vs portable): %.2fx, bit-identical: %.0f\n",
      simd::to_string(best), t_portable / t_best, bit_identical);
  return h.write_json() ? 0 : 1;
}
