// Reference implementation of the baseline sorter and the exact baseline
// (GT) objective, kept verbatim from the straightforward formulation so the
// optimized versions in src/ can be checked bit-for-bit against it:
//
//  * held_karp_order_pull: the pull-form subset DP over one term at one
//    shared target (dp[mask][last] = max over predecessors, scanned in
//    ascending index with strict improvement);
//  * sort_baseline_reference: every common target of a term tried in
//    ascending qubit order with a per-target copy of the blocks, the first
//    maximizer kept, then the doubly-greedy inter-term ordering;
//  * exact_fermionic_cost_reference: every candidate Gamma mapped through a
//    full transform::LinearEncoding (Clifford conjugation with exact sign),
//    then the reference sorter and the sequence model cost.
//
// Test-only: nothing in src/ includes this file.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "core/compiler.hpp"
#include "transform/linear_encoding.hpp"

namespace femto::oracle {

struct IntraResult {
  std::vector<std::size_t> order;
  int savings = 0;
};

/// Exact best order of one term's blocks for a fixed shared target: pull
/// form of the subset DP (every state (mask, last) is the max over its
/// unique source row mask \ {last}; predecessors in ascending index, strict
/// improvement, so the first maximizer wins).
[[nodiscard]] inline IntraResult held_karp_order_pull(
    const std::vector<synth::RotationBlock>& blocks, std::size_t target,
    const synth::HardwareTarget* hw = nullptr) {
  const std::size_t m = blocks.size();
  FEMTO_EXPECTS(m >= 1 && m <= 16);
  // Column-major savings: wt[j*m + i] = saving of j following i.
  std::vector<int> wt(m * m, 0);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < m; ++j)
      if (i != j && !blocks[i].string.same_letters(blocks[j].string))
        wt[j * m + i] = hw != nullptr
                            ? synth::interface_saving(blocks[i].string, target,
                                                      blocks[j].string, target,
                                                      *hw)
                            : synth::interface_saving(blocks[i].string, target,
                                                      blocks[j].string, target);
  const std::size_t full = std::size_t{1} << m;
  std::vector<int> dp(full * m, 0);
  std::vector<int> parent(full * m, -1);
  for (std::size_t k = 0; k < m; ++k) {
    dp[(std::size_t{1} << k) * m + k] = 0;
    parent[(std::size_t{1} << k) * m + k] = -1;
  }
  for (std::size_t mask = 1; mask < full; ++mask) {
    if ((mask & (mask - 1)) == 0) continue;  // singletons are base cases
    for (std::size_t rest = mask; rest != 0; rest &= rest - 1) {
      const std::size_t last = static_cast<std::size_t>(__builtin_ctzll(rest));
      const std::size_t pm = mask ^ (std::size_t{1} << last);
      int best = -1;
      int best_prev = -1;
      for (std::size_t prev_bits = pm; prev_bits != 0;
           prev_bits &= prev_bits - 1) {
        const std::size_t k =
            static_cast<std::size_t>(__builtin_ctzll(prev_bits));
        const int cand = dp[pm * m + k] + wt[last * m + k];
        if (cand > best) {
          best = cand;
          best_prev = static_cast<int>(k);
        }
      }
      dp[mask * m + last] = best;
      parent[mask * m + last] = best_prev;
    }
  }
  IntraResult res;
  std::size_t best_last = 0;
  int best = -1;
  for (std::size_t last = 0; last < m; ++last)
    if (dp[(full - 1) * m + last] > best) {
      best = dp[(full - 1) * m + last];
      best_last = last;
    }
  res.savings = best;
  res.order.resize(m);
  std::size_t mask = full - 1;
  std::size_t cur = best_last;
  for (std::size_t pos = m; pos-- > 0;) {
    res.order[pos] = cur;
    const int par = parent[mask * m + cur];
    mask ^= std::size_t{1} << cur;
    if (par < 0) break;
    cur = static_cast<std::size_t>(par);
  }
  return res;
}

/// Targets common to every block of a term, in ascending qubit order.
[[nodiscard]] inline std::vector<std::size_t> common_targets(
    const std::vector<synth::RotationBlock>& blocks) {
  std::vector<std::size_t> out;
  if (blocks.empty()) return out;
  for (std::size_t t : core::valid_targets(blocks[0])) {
    bool ok = true;
    for (const auto& b : blocks)
      if (b.string.letter(t) == pauli::Letter::I) ok = false;
    if (ok) out.push_back(t);
  }
  return out;
}

/// Baseline sort: per-term shared target (every common target tried in
/// scan order, first maximizer kept) + exact intra-term order, then
/// doubly-greedy inter-term ordering.
[[nodiscard]] inline std::vector<synth::RotationBlock> sort_baseline_reference(
    const std::vector<std::vector<synth::RotationBlock>>& per_term,
    const synth::HardwareTarget* hw = nullptr) {
  struct TermPlan {
    std::vector<synth::RotationBlock> ordered;
    std::size_t target = 0;
  };
  const synth::HardwareTarget* device =
      hw != nullptr && !hw->is_all_to_all_cnot() ? hw : nullptr;
  std::vector<TermPlan> plans;
  for (const auto& term_blocks : per_term) {
    if (term_blocks.empty()) continue;
    TermPlan best;
    int best_savings = std::numeric_limits<int>::min();
    const std::vector<std::size_t> candidates = common_targets(term_blocks);
    FEMTO_EXPECTS(!candidates.empty());
    for (std::size_t t : candidates) {
      std::vector<synth::RotationBlock> with_target = term_blocks;
      for (auto& b : with_target) b.target = t;
      const IntraResult res = held_karp_order_pull(with_target, t, device);
      int savings = res.savings;
      if (device != nullptr && device->coupling.constrained())
        for (const auto& b : with_target)
          savings -= synth::string_cost(b.string, b.target, *device);
      if (savings > best_savings) {
        best_savings = savings;
        best.target = t;
        best.ordered.clear();
        for (std::size_t idx : res.order)
          best.ordered.push_back(with_target[idx]);
      }
    }
    plans.push_back(std::move(best));
  }
  std::vector<std::vector<TermPlan>> groups;
  for (auto& plan : plans) {
    bool placed = false;
    for (auto& g : groups)
      if (g.front().target == plan.target) {
        g.push_back(std::move(plan));
        placed = true;
        break;
      }
    if (!placed) groups.push_back({std::move(plan)});
  }
  std::sort(groups.begin(), groups.end(),
            [](const auto& a, const auto& b) { return a.size() > b.size(); });
  const auto boundary_saving = [device](const TermPlan& a, const TermPlan& b) {
    const synth::RotationBlock& last = a.ordered.back();
    const synth::RotationBlock& first = b.ordered.front();
    if (last.string.same_letters(first.string)) return 0;
    return device != nullptr
               ? synth::interface_saving(last.string, last.target,
                                         first.string, first.target, *device)
               : synth::interface_saving(last.string, last.target,
                                         first.string, first.target);
  };
  std::vector<synth::RotationBlock> out;
  for (auto& group : groups) {
    std::vector<bool> used(group.size(), false);
    std::size_t cur = 0;
    used[0] = true;
    std::vector<std::size_t> order{0};
    for (std::size_t step = 1; step < group.size(); ++step) {
      int best = -1;
      std::size_t best_next = 0;
      for (std::size_t cand = 0; cand < group.size(); ++cand) {
        if (used[cand]) continue;
        const int s = boundary_saving(group[cur], group[cand]);
        if (s > best) {
          best = s;
          best_next = cand;
        }
      }
      used[best_next] = true;
      order.push_back(best_next);
      cur = best_next;
    }
    for (std::size_t idx : order)
      for (const auto& b : group[idx].ordered) out.push_back(b);
  }
  return out;
}

/// The exact baseline objective with full Clifford conjugation: map every
/// JW block through LinearEncoding (sign folded into the angle, canonical
/// letter phase, first-support target), sort with the reference baseline
/// sorter, and cost the sequence on `target`.
[[nodiscard]] inline int exact_fermionic_cost_reference(
    const gf2::Matrix& gamma,
    const std::vector<std::vector<synth::RotationBlock>>& term_blocks,
    const synth::HardwareTarget& target,
    const synth::HardwareTarget* hw = nullptr) {
  if (term_blocks.empty()) return 0;
  const transform::LinearEncoding cand{gamma};
  std::vector<std::vector<synth::RotationBlock>> per_term;
  for (const auto& blocks : term_blocks) {
    std::vector<synth::RotationBlock> mapped = blocks;
    for (auto& b : mapped) {
      b.string = cand.map_string(b.string);
      const pauli::Complex s = b.string.sign();
      b.angle_coeff *= s.real();
      const int y = static_cast<int>((b.string.x() & b.string.z()).popcount());
      b.string.set_phase_exponent(y);
      b.target = b.string.support().lowest_set();
    }
    per_term.push_back(std::move(mapped));
  }
  return synth::sequence_model_cost(sort_baseline_reference(per_term, hw),
                                    target);
}

}  // namespace femto::oracle
