// Verification scaling bench: certifies circuit equivalence at qubit counts
// where dense statevector comparison (capped at 28 qubits, practical well
// below that) cannot go, and measures verified-circuits-per-second for the
// CI floor in tools/check_bench.py.
//
// Sections:
//   clifford_32q         tier-1 tableau certificate, 32 qubits / 4k gates
//   symbolic_32q / 40q   tier-2 Pauli propagation vs the block spec at
//                        32 and 40 qubits (variational angles symbolic)
//   corrupted_32q        one flipped CNOT must be rejected, localized
//   water_verify         compile water / STO-3G and certify the emitted
//                        circuit against its recorded compilation spec
//   water_cross_encoding JW vs Bravyi-Kitaev compilations of one water plan
//                        certified via the frame identity C_bk U = U C_jw
//
// The boolean *_value metrics are 1.0 on success and 0.0 on any failure, so
// the bench gate (higher-is-better via the "value" hint) fails loudly if
// verification ever stops certifying; verified_per_s carries an absolute
// floor, machine-independent by a wide margin.
#include <cstdio>
#include <vector>

#include "bench_fixtures.hpp"
#include "bench_harness.hpp"
#include "circuit/peephole.hpp"
#include "common/rng.hpp"
#include "core/compiler.hpp"
#include "gf2/linear_synthesis.hpp"
#include "synth/pauli_exponential.hpp"
#include "verify/equivalence.hpp"
#include "verify/test_support.hpp"

namespace femto::bench {
namespace {

using circuit::Gate;
using circuit::GateKind;
using circuit::QuantumCircuit;

QuantumCircuit random_clifford(std::size_t n, int gates, Rng& rng) {
  QuantumCircuit c(n);
  for (int g = 0; g < gates; ++g) {
    const std::size_t a = rng.index(n);
    std::size_t b = rng.index(n);
    if (a == b) b = (b + 1) % n;
    switch (rng.index(5)) {
      case 0: c.append(Gate::h(a)); break;
      case 1: c.append(Gate::s(a)); break;
      case 2: c.append(Gate::sdg(a)); break;
      case 3: c.append(Gate::cz(a, b)); break;
      default: c.append(Gate::cnot(a, b));
    }
  }
  return c;
}

/// Compile knobs matching the committed pipeline baselines: every stochastic
/// stage runs, trimmed for bench wall-clock.
core::CompileOptions compile_options() {
  core::CompileOptions o;
  o.coloring_orders = 16;
  o.sa_options = {2.0, 0.05, 300, 0};
  o.pso_options.particles = 8;
  o.pso_options.iterations = 15;
  o.gtsp_options.population = 16;
  o.gtsp_options.generations = 40;
  o.gtsp_options.stagnation_limit = 20;
  return o;
}

}  // namespace
}  // namespace femto::bench

int main() {
  using namespace femto;
  using namespace femto::bench;

  Harness harness("verify");
  // Every section runs at n >= 14, above kDenseMaxQubits: no dense tier.
  const verify::EquivalenceChecker checker;

  // --- tier 1: Clifford tableau at 32 qubits ---------------------------
  {
    Rng rng(101);
    const std::size_t n = 32;
    const QuantumCircuit c = random_clifford(n, 4000, rng);
    const QuantumCircuit opt = circuit::peephole_optimize(c);
    bool ok = true;
    const double t = harness.run("clifford_32q", 5, [&] {
      const auto report = checker.check(c, opt);
      ok = ok && report.equivalent() &&
           report.method == verify::EquivalenceMethod::kCliffordTableau;
    });
    harness.metric("qubits", static_cast<double>(n));
    harness.metric("info_gates", static_cast<double>(c.size()));
    harness.metric("equivalent_value", ok ? 1.0 : 0.0);
    harness.metric("verified_per_s", ok && t > 0 ? 1.0 / t : 0.0);
  }

  // --- tier 2: symbolic propagation at 32 / 40 qubits ------------------
  for (const std::size_t n : {std::size_t{32}, std::size_t{40}}) {
    Rng rng(200 + n);
    const auto blocks = verify::testing::random_rotation_blocks(n, 60, rng,
                                            /*param_probability=*/0.75,
                                            /*extra_weight=*/5);
    const QuantumCircuit circuit = synth::synthesize_sequence(n, blocks);
    const auto spec = verify::make_spec(blocks);
    bool ok = true;
    const std::string name = "symbolic_" + std::to_string(n) + "q";
    const double t = harness.run(name, 5, [&] {
      const auto report = checker.check_spec(circuit, spec);
      ok = ok && report.equivalent() &&
           report.method == verify::EquivalenceMethod::kPauliPropagation;
    });
    harness.metric("qubits", static_cast<double>(n));
    harness.metric("rotations", static_cast<double>(blocks.size()));
    harness.metric("info_gates", static_cast<double>(circuit.size()));
    harness.metric("equivalent_value", ok ? 1.0 : 0.0);
    harness.metric("verified_per_s", ok && t > 0 ? 1.0 / t : 0.0);
  }

  // --- rejection: one flipped CNOT at 32 qubits ------------------------
  {
    Rng rng(303);
    const std::size_t n = 32;
    const auto blocks = verify::testing::random_rotation_blocks(n, 40, rng,
                                            /*param_probability=*/0.75,
                                            /*extra_weight=*/5);
    QuantumCircuit circuit = synth::synthesize_sequence(n, blocks);
    verify::testing::flip_first_cnot(circuit, circuit.size() / 2);
    const auto spec = verify::make_spec(blocks);
    bool rejected = true;
    bool localized = true;
    harness.run("corrupted_32q", 5, [&] {
      const auto report = checker.check_spec(circuit, spec);
      rejected = rejected &&
                 report.status == verify::EquivalenceStatus::kNotEquivalent;
      localized = localized && !report.detail.empty();
    });
    harness.metric("rejected_value", rejected ? 1.0 : 0.0);
    harness.metric("localized_value", localized ? 1.0 : 0.0);
  }

  // --- the paper's workload: water / STO-3G ----------------------------
  {
    const TermFixture& f = water_terms(8);
    const core::CompileResult result =
        core::compile_vqe(f.n, f.terms, compile_options());
    bool ok = true;
    const double t = harness.run("water_verify", 5, [&] {
      ok = ok && checker.check_spec(result.circuit, result.spec).equivalent();
    });
    harness.metric("qubits", static_cast<double>(f.n));
    harness.metric("info_model_cnots", static_cast<double>(result.model_cnots));
    harness.metric("info_spec_ops", static_cast<double>(result.spec.size()));
    harness.metric("equivalent_value", ok ? 1.0 : 0.0);
    harness.metric("verified_per_s", ok && t > 0 ? 1.0 / t : 0.0);
  }

  // --- cross-encoding: JW vs BK compilations of one water plan ---------
  {
    const TermFixture& f = water_terms(8);
    core::CompileOptions options = compile_options();
    options.compression = core::CompressionMode::kNone;
    options.sorting = core::SortingMode::kNone;
    options.transform = core::TransformKind::kJordanWigner;
    const core::CompileResult jw = core::compile_vqe(f.n, f.terms, options);
    options.transform = core::TransformKind::kBravyiKitaev;
    const core::CompileResult bk = core::compile_vqe(f.n, f.terms, options);
    const QuantumCircuit network =
        verify::testing::cnot_network_circuit(f.n, bk.gamma);
    QuantumCircuit lhs(f.n);
    lhs.append(network);
    lhs.append(bk.circuit);
    QuantumCircuit rhs(f.n);
    rhs.append(jw.circuit);
    rhs.append(network);
    bool ok = true;
    harness.run("water_cross_encoding", 3, [&] {
      const auto report = checker.check(lhs, rhs);
      ok = ok && report.equivalent() &&
           report.method == verify::EquivalenceMethod::kPauliPropagation;
    });
    harness.metric("qubits", static_cast<double>(f.n));
    harness.metric("equivalent_value", ok ? 1.0 : 0.0);
  }

  harness.write_json();
  return 0;
}
