// Statevector kernel bench: stride-based kernels (sim/kernels.hpp) vs the
// seed per-amplitude branch-in-loop implementation, at 20 qubits.
//
// The seed loops are reproduced verbatim below (namespace seed) so the
// speedup is measured against the real baseline, not a strawman. Emits
// BENCH_statevector.json with per-kind medians and the headline
// singleq_speedup / twoq_speedup ratios.
#include <cstdio>
#include <vector>

#include "bench_harness.hpp"
#include "circuit/gate.hpp"
#include "common/rng.hpp"
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

  return h.write_json() ? 0 : 1;
}
