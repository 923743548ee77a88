// Full-recompute references for the fast Gamma-search cost, kept verbatim
// from the straightforward formulation so core::GammaObjective and
// core::anneal_gamma_fast can be checked bit-for-bit against them:
//
//  * fast_term_cost_reference: the greedy-chain cost of one term, every
//    (candidate block, shared target) pair scored directly;
//  * fermionic_fast_cost: every block of a segment mapped through a
//    candidate Gamma (x -> Gamma x, z -> Gamma^-T z), then each term costed
//    by the reference above;
//  * anneal_gamma: opt::simulated_annealing over core::propose_gamma_move
//    with a caller-supplied full-recompute cost.
//
// Test-only: nothing in src/ includes this file.
#pragma once

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "core/gamma_search.hpp"
#include "core/rotation_blocks.hpp"
#include "opt/simulated_annealing.hpp"

namespace femto::oracle {

using core::GammaState;
using core::propose_gamma_move;
using core::valid_targets;

/// Greedy-chain cost of one term: string costs (on a constrained device the
/// cheapest routing-aware target per block), minus the savings of a
/// nearest-neighbor chain from block 0 with per-block target freedom.
[[nodiscard]] inline int fast_term_cost_reference(
    const std::vector<synth::RotationBlock>& blocks,
    const synth::HardwareTarget* hw = nullptr) {
  if (blocks.empty()) return 0;
  const synth::HardwareTarget* device =
      hw != nullptr && !hw->is_all_to_all_cnot() ? hw : nullptr;
  int total = 0;
  for (const auto& b : blocks) {
    if (device == nullptr) {
      total += synth::string_cost(b.string);
    } else if (!device->coupling.constrained()) {
      total += synth::string_cost(b.string, b.target, *device);
    } else {
      int cheapest = std::numeric_limits<int>::max();
      for (std::size_t t : valid_targets(b))
        cheapest = std::min(cheapest,
                            synth::string_cost(b.string, t, *device));
      total += cheapest;
    }
  }
  // Greedy chain: start at block 0 with its first target.
  std::vector<bool> used(blocks.size(), false);
  used[0] = true;
  std::size_t cur = 0;
  for (std::size_t step = 1; step < blocks.size(); ++step) {
    int best = -1;
    std::size_t best_next = 0;
    for (std::size_t cand = 0; cand < blocks.size(); ++cand) {
      if (used[cand] || blocks[cand].string.same_letters(blocks[cur].string))
        continue;
      for (std::size_t t1 : valid_targets(blocks[cur])) {
        if (blocks[cand].string.letter(t1) == pauli::Letter::I) continue;
        const int s =
            device != nullptr
                ? synth::interface_saving(blocks[cur].string, t1,
                                          blocks[cand].string, t1, *device)
                : synth::interface_saving(blocks[cur].string, t1,
                                          blocks[cand].string, t1);
        if (s > best) {
          best = s;
          best_next = cand;
        }
      }
    }
    if (best < 0) {
      // No shareable target; take any unused block with zero saving.
      for (std::size_t cand = 0; cand < blocks.size(); ++cand)
        if (!used[cand]) {
          best_next = cand;
          best = 0;
          break;
        }
    }
    total -= std::max(best, 0);
    used[best_next] = true;
    cur = best_next;
  }
  return total;
}

/// Fast cost of a fermionic segment under a candidate Gamma: conjugate the
/// symplectic components of every block (x -> Gamma x, z -> Gamma^-T z) and
/// sum the per-term greedy-chain costs. Returns 1e18 for singular
/// candidates.
[[nodiscard]] inline double fermionic_fast_cost(
    const gf2::Matrix& gamma,
    const std::vector<std::vector<synth::RotationBlock>>& term_blocks,
    const synth::HardwareTarget* hw = nullptr) {
  const auto inv = gamma.inverse();
  if (!inv.has_value()) return 1e18;
  const gf2::Matrix inv_t = inv->transpose();
  const std::size_t n = gamma.size();
  double total = 0;
  for (const auto& blocks : term_blocks) {
    std::vector<synth::RotationBlock> mapped = blocks;
    for (auto& b : mapped) {
      pauli::PauliString s(n);
      s.set_symplectic(gamma.apply(b.string.x()), inv_t.apply(b.string.z()));
      b.string = std::move(s);
      const std::size_t t = b.string.support().lowest_set();
      if (t >= n) return 1e18;  // string vanished: degenerate transform
      b.target = t;
    }
    total += fast_term_cost_reference(mapped, hw);
  }
  return total;
}

/// Simulated-annealing search over block-diagonal Gamma. `cost` evaluates a
/// candidate matrix (typically the fast segment cost).
[[nodiscard]] inline GammaState anneal_gamma(
    std::size_t n, const std::vector<std::vector<std::size_t>>& blocks,
    const std::function<double(const gf2::Matrix&)>& cost, Rng& rng,
    const opt::SaOptions& options = {}) {
  GammaState init{gf2::Matrix::identity(n), blocks};
  const auto energy = [&cost](const GammaState& s) { return cost(s.gamma); };
  const auto res = opt::simulated_annealing<GammaState>(
      std::move(init), energy, propose_gamma_move, rng, options);
  return res.best;
}

}  // namespace femto::oracle
