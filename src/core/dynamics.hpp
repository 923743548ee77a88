// Trotterized real-time evolution compiler (paper Sec. V extension).
//
// Compiles one first-order Trotter step exp(-i dt H) ~ prod_k exp(-i dt c_k
// P_k) with the advanced sorting engine. The same GTSP machinery that
// optimizes VQE ansatz circuits applies unchanged -- precisely the paper's
// point about extending the framework to dynamics.
#pragma once

#include <cstdint>
#include <vector>

#include "core/sorting.hpp"
#include "fermion/operators.hpp"
#include "synth/pauli_exponential.hpp"

namespace femto::core {

/// Spinful Fermi-Hubbard chain on `sites` sites, spins interleaved (mode
/// 2i + s is site i, spin s):
///   H = -t sum_<ij>,s (c+_is c_js + h.c.) + U sum_i n_iu n_id.
[[nodiscard]] inline fermion::FermionOperator hubbard_chain(std::size_t sites,
                                                            double t,
                                                            double u) {
  fermion::FermionOperator h;
  for (std::size_t i = 0; i + 1 < sites; ++i) {
    for (std::size_t s = 0; s < 2; ++s) {
      const std::size_t a = 2 * i + s;
      const std::size_t b = 2 * (i + 1) + s;
      h.add_term({-t, 0.0}, {{a, true}, {b, false}});
      h.add_term({-t, 0.0}, {{b, true}, {a, false}});
    }
  }
  for (std::size_t i = 0; i < sites; ++i) {
    h.add_term({u, 0.0}, {{2 * i, true}, {2 * i, false}, {2 * i + 1, true},
                          {2 * i + 1, false}});
  }
  return h;
}

struct TrotterResult {
  std::vector<synth::RotationBlock> blocks;          // Hamiltonian order
  std::vector<synth::RotationBlock> ordered_blocks;  // advanced sorting
  circuit::QuantumCircuit step;  // one Trotter step, ordered_blocks emitted
};

/// Compiles one Trotter step for a Hermitian PauliSum Hamiltonian: one
/// block exp(-i dt c P) per non-identity term, sorted on Rng(seed).
[[nodiscard]] inline TrotterResult compile_trotter_step(
    std::size_t n, const pauli::PauliSum& hamiltonian, double dt,
    std::uint64_t seed) {
  TrotterResult result;
  for (const pauli::PauliTerm& term : hamiltonian.terms()) {
    if (term.string.is_identity_letters()) continue;  // global phase
    FEMTO_EXPECTS(std::abs(term.coefficient.imag()) < 1e-10);
    synth::RotationBlock b;
    b.string = term.string;
    b.angle_coeff = 2.0 * term.coefficient.real() * dt;
    b.target = b.string.support().lowest_set();
    result.blocks.push_back(std::move(b));
  }
  Rng rng(seed);
  result.ordered_blocks = sort_advanced(result.blocks, rng);
  result.step = synth::synthesize_sequence(n, result.ordered_blocks);
  return result;
}

}  // namespace femto::core
