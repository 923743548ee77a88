// Tests for the extension modules: the Trotter-step compiler and
// reference-state preparation.
#include <gtest/gtest.h>

#include "core/compiler.hpp"
#include "core/dynamics.hpp"
#include "sim/statevector.hpp"
#include "transform/linear_encoding.hpp"

namespace femto {
namespace {

// ---------------------------------------------------------------- trotter

TEST(Dynamics, TrotterStepMatchesExactForCommutingHamiltonian) {
  // Diagonal (all-Z) Hamiltonian: Trotter is exact; the compiled step must
  // match exp(-i dt H) exactly.
  const std::size_t n = 4;
  pauli::PauliSum h(n);
  h.add({0.7, 0.0}, pauli::PauliString::from_string("ZZII"));
  h.add({-0.3, 0.0}, pauli::PauliString::from_string("IZZI"));
  h.add({0.2, 0.0}, pauli::PauliString::from_string("ZIIZ"));
  const double dt = 0.31;
  const auto res = core::compile_trotter_step(n, h, dt, 7);
  sim::StateVector actual(n);
  for (std::size_t q = 0; q < n; ++q)
    actual.apply_gate(circuit::Gate::h(q));  // superposition input
  sim::StateVector expect = actual;
  actual.apply_circuit(res.step);
  for (const auto& t : h.terms())
    expect.apply_pauli_exp(t.string, 2.0 * t.coefficient.real() * dt);
  EXPECT_NEAR(std::abs(expect.inner(actual)), 1.0, 1e-10);
}

TEST(Dynamics, SortingReducesEmittedCnots) {
  // 3-site Hubbard chain: the sorted, merged step against the unmerged
  // emission in Hamiltonian order.
  const std::size_t n = 6;
  const auto hq = transform::LinearEncoding::jordan_wigner(n).map(
      core::hubbard_chain(3, 1.0, 4.0));
  const auto res = core::compile_trotter_step(n, hq, 0.05, 7);
  EXPECT_EQ(res.step.cnot_count(), 26);
  EXPECT_EQ(synth::synthesize_sequence(n, res.blocks, synth::MergePolicy::kNone)
                .cnot_count(),
            38);
}

// ------------------------------------------------------------ preparation

TEST(Preparation, CompressedHartreeFockState) {
  // Bosonic term on pairs (0,1) and (4,5); 4 electrons occupy modes 0..3.
  const std::vector<fermion::ExcitationTerm> terms = {
      fermion::ExcitationTerm::make_double(4, 5, 0, 1)};
  core::CompileOptions opt;
  const auto res = core::compile_vqe(6, terms, opt);
  const auto prep = res.preparation(4);
  sim::StateVector sv(6);
  sv.apply_circuit(prep);
  // Compressed rep: pair (0,1) occupied -> qubit0 = 1, qubit1 parked 0;
  // modes 2,3 occupied normally; pair (4,5) empty.
  // Expected basis state: bits {0, 2, 3} = index 0b001101.
  EXPECT_NEAR(std::abs(sv.amplitude(0b001101)), 1.0, 1e-12);
}

TEST(Preparation, NoCompressionPlainHartreeFock) {
  const std::vector<fermion::ExcitationTerm> terms = {
      fermion::ExcitationTerm::make_double(4, 6, 0, 2)};
  core::CompileOptions opt;
  opt.compression = core::CompressionMode::kNone;
  const auto res = core::compile_vqe(8, terms, opt);
  const auto prep = res.preparation(4);
  sim::StateVector sv(8);
  sv.apply_circuit(prep);
  EXPECT_NEAR(std::abs(sv.amplitude(0b00001111)), 1.0, 1e-12);
}

}  // namespace
}  // namespace femto
