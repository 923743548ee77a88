// The CNOT-counting cost model of Sec. III-B.
//
// A Pauli string of weight w, exponentiated with the Fig. 3(b) template,
// costs 2(w-1) CNOTs. When two blocks [P1,t1] and [P2,t2] are implemented
// back to back with t1 == t2 == t, CNOTs cancel at the interface:
//
//   saving = sum_i omega_i  over non-target qubits i, where
//   omega_i = 0  if either string is I at i,
//   omega_i = 2  if the target collision (P1_t, P2_t) is one of
//                {XX, YY, ZZ, XY, YX} *and* P1_i == P2_i,
//   omega_i = 1  otherwise.
//
// The omega=2 case is full cancellation of the CNOT pair on wire i (the
// inter-block basis changes commute through); omega=1 merges the pair into a
// single CNOT-equivalent entangler (an XX rotation at a Clifford angle).
// These weights are exactly the GTSP edge weights of the paper.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "gf2/wordops.hpp"
#include "pauli/pauli_string.hpp"
#include "synth/target.hpp"

namespace femto::synth {

/// CNOT cost of exponentiating one string in isolation: 2(w-1), 0 for w<=1.
[[nodiscard]] inline int string_cost(const pauli::PauliString& p) {
  const int w = static_cast<int>(p.weight());
  return w <= 1 ? 0 : 2 * (w - 1);
}

/// True when the inter-block gate on the target wire commutes through the
/// CNOT ladders: collisions XX, YY, ZZ (identity diff) and XY, YX (X-axis
/// rotation diff).
[[nodiscard]] inline bool target_collision_good(pauli::Letter a,
                                                pauli::Letter b) {
  using pauli::Letter;
  if (a == b) return true;
  return (a == Letter::X && b == Letter::Y) ||
         (a == Letter::Y && b == Letter::X);
}

namespace detail {

/// Popcounts of (a) the common support of two symplectic pairs and (b) the
/// equal-letter subset of that common support. These two counts determine
/// every interface saving of the default CNOT model: a common wire always
/// contributes omega >= 1, and equal letters upgrade to omega = 2 when the
/// target collision is good.
struct CommonSupport {
  int common = 0;
  int equal = 0;
};

[[nodiscard]] inline CommonSupport common_support_counts(
    const gf2::BitVec& x1, const gf2::BitVec& z1, const gf2::BitVec& x2,
    const gf2::BitVec& z2) {
  // Fused reduction over the raw word spans (wordops.hpp); the has_xy flag
  // it also produces is free and ignored here.
  const gf2::wordops::SupportCounts c = gf2::wordops::support_counts(
      x1.word_data(), z1.word_data(), x2.word_data(), z2.word_data(),
      x1.word_count());
  return CommonSupport{c.common, c.equal};
}

/// Interface saving of the default CNOT model at a shared target whose
/// letters are `a` on the first string and `b` on the second (both non-I),
/// from the pair's common-support counts: every common-support wire other
/// than the target contributes omega = 1, upgraded to omega = 2 on
/// equal-letter wires when the target collision is good.
[[nodiscard]] inline int shared_target_saving(const CommonSupport& c,
                                              pauli::Letter a,
                                              pauli::Letter b) {
  FEMTO_EXPECTS(a != pauli::Letter::I && b != pauli::Letter::I);
  // The target wire is always common; drop it (and its equal-letter credit).
  int saving = c.common - 1;
  if (target_collision_good(a, b)) saving += c.equal - (a == b ? 1 : 0);
  return saving;
}

}  // namespace detail

/// Interface CNOT saving between consecutive blocks [p1,t1] then [p2,t2].
/// Zero unless the targets coincide. Requires both strings non-identity at
/// their own target (guaranteed for valid target choices). Computed
/// word-parallel over the symplectic components
/// (detail::shared_target_saving) -- identical per-site semantics to the
/// scalar loop of the paper's formula.
[[nodiscard]] inline int interface_saving(const pauli::PauliString& p1,
                                          std::size_t t1,
                                          const pauli::PauliString& p2,
                                          std::size_t t2) {
  if (t1 != t2) return 0;
  FEMTO_EXPECTS(p1.num_qubits() == p2.num_qubits());
  return detail::shared_target_saving(
      detail::common_support_counts(p1.x(), p1.z(), p2.x(), p2.z()),
      p1.letter(t1), p2.letter(t2));
}

/// Best interface saving between two strings over every shared target
/// choice, max_t interface_saving(p1, t, p2, t); -1 when the strings share
/// no support (no shared target exists). Closed form: with C common wires
/// and E equal-letter wires among them, a good target off the equal set
/// (an X/Y collision) realizes (C-1) + E, a good equal-letter target
/// realizes (C-1) + (E-1), and any other shared target realizes C-1.
[[nodiscard]] inline int best_shared_target_saving(const gf2::BitVec& x1,
                                                   const gf2::BitVec& z1,
                                                   const gf2::BitVec& x2,
                                                   const gf2::BitVec& z2) {
  // One fused pass yields all three quantities: the common support, its
  // equal-letter subset, and the X/Y-collision flag (both x bits set, z bits
  // differing).
  const gf2::wordops::SupportCounts c = gf2::wordops::support_counts(
      x1.word_data(), z1.word_data(), x2.word_data(), z2.word_data(),
      x1.word_count());
  if (c.common == 0) return -1;
  if (c.has_xy) return c.common - 1 + c.equal;
  if (c.equal > 0) return c.common - 1 + c.equal - 1;
  return c.common - 1;
}

[[nodiscard]] inline int best_shared_target_saving(const pauli::PauliString& p1,
                                                   const pauli::PauliString& p2) {
  return best_shared_target_saving(p1.x(), p1.z(), p2.x(), p2.z());
}

/// One rotation block of a synthesized sequence: exp(-i angle/2 * string),
/// where angle = angle_coeff (param < 0) or angle_coeff * theta[param].
/// `target` must index a non-identity site of `string`.
struct RotationBlock {
  pauli::PauliString string;  // canonical letter form (sign folded into angle)
  std::size_t target = 0;
  double angle_coeff = 0.0;
  int param = -1;
};

/// Model cost of an ordered sequence of blocks: sum of string costs minus
/// interface savings between consecutive blocks.
[[nodiscard]] inline int sequence_model_cost(
    const std::vector<RotationBlock>& seq) {
  int cost = 0;
  for (std::size_t k = 0; k < seq.size(); ++k) {
    cost += string_cost(seq[k].string);
    if (k > 0)
      cost -= interface_saving(seq[k - 1].string, seq[k - 1].target,
                               seq[k].string, seq[k].target);
  }
  return cost;
}

// ---- target-parameterized cost model ------------------------------------
//
// The same formulas, re-costed in the target's native entanglers:
//  * all_to_all_cnot delegates to the functions above (bit-identical; the
//    regression anchor).
//  * trapped_ion_xx has TWO exact lowering forms and takes the cheaper per
//    sequence (emission makes the same choice, so model == emitted count on
//    good-interface chains):
//      - partner form: a weight-w block costs 2w-3 pulses -- the central
//        pair closes as ONE native XX(theta) rotation on (partner, target)
//        instead of a 2-CNOT ladder step -- but interface savings skip the
//        partner wires (they contribute no ladder pulses to save);
//      - CNOT form: the historical template with every CNOT-equivalent
//        lowered to one pulse, i.e. exactly the all-to-all CNOT count.
//    The partner form wins on sparse/lightly-merged sequences (weight-2
//    blocks cost 1 instead of 2); the CNOT form wins on deeply merged
//    chains. The min makes the XX target never worse than the CNOT count.
//  * Connectivity-constrained targets add a routing SURROGATE of
//    routing_weight per hop beyond adjacency on every ladder wire; the exact
//    device cost is counted from the routed circuit (see
//    core/compiler.hpp), never from this surrogate.

namespace detail {

/// Per-block cost of one lowering form (partner_form only meaningful for
/// EntanglerKind::kXX), including the routing surrogate when constrained.
[[nodiscard]] inline int string_cost_form(const pauli::PauliString& p,
                                          std::size_t target,
                                          const HardwareTarget& hw,
                                          bool partner_form) {
  const int w = static_cast<int>(p.weight());
  if (w <= 1) return 0;
  int cost = partner_form ? 2 * w - 3 : 2 * (w - 1);
  if (hw.coupling.constrained()) {
    const std::size_t partner = partner_form ? xx_partner(p, target) : target;
    for (std::size_t q = 0; q < p.num_qubits(); ++q) {
      if (q == target || p.letter(q) == pauli::Letter::I) continue;
      const std::size_t d = hw.coupling.distance(q, target);
      const int extra = static_cast<int>(d) - 1;
      if (extra <= 0) continue;
      // Partner wire: one pulse instead of a ladder pair; half the exposure.
      cost += (q == partner ? hw.routing_weight / 2 : hw.routing_weight) *
              extra;
    }
  }
  return cost;
}

/// Interface saving of one lowering form: the word-parallel common/equal
/// counts minus the contributions of the excluded wires (the target, and on
/// the XX partner form the two partner wires, which carry no ladder pulses).
[[nodiscard]] inline int interface_saving_form(const pauli::PauliString& p1,
                                               std::size_t t1,
                                               const pauli::PauliString& p2,
                                               std::size_t t2,
                                               bool partner_form) {
  using pauli::Letter;
  if (t1 != t2) return 0;
  FEMTO_EXPECTS(p1.num_qubits() == p2.num_qubits());
  FEMTO_EXPECTS(p1.letter(t1) != Letter::I && p2.letter(t2) != Letter::I);
  const bool good_target = target_collision_good(p1.letter(t1), p2.letter(t1));
  const CommonSupport c = common_support_counts(p1.x(), p1.z(), p2.x(), p2.z());
  int common = c.common;
  int equal = c.equal;
  std::size_t excluded[3] = {t1, t1, t1};
  std::size_t num_excluded = 1;
  if (partner_form) {
    const std::size_t partner1 = xx_partner(p1, t1);
    const std::size_t partner2 = xx_partner(p2, t2);
    if (partner1 != t1) excluded[num_excluded++] = partner1;
    if (partner2 != t2 && partner2 != partner1)
      excluded[num_excluded++] = partner2;
  }
  for (std::size_t k = 0; k < num_excluded; ++k) {
    const std::size_t q = excluded[k];
    const Letter a = p1.letter(q);
    const Letter b = p2.letter(q);
    if (a == Letter::I || b == Letter::I) continue;
    --common;
    if (a == b) --equal;
  }
  return common + (good_target ? equal : 0);
}

/// Total model cost of one lowering form over a sequence.
[[nodiscard]] inline int sequence_cost_form(
    const std::vector<RotationBlock>& seq, const HardwareTarget& hw,
    bool partner_form) {
  int cost = 0;
  for (std::size_t k = 0; k < seq.size(); ++k) {
    cost += string_cost_form(seq[k].string, seq[k].target, hw, partner_form);
    if (k > 0)
      cost -= interface_saving_form(seq[k - 1].string, seq[k - 1].target,
                                    seq[k].string, seq[k].target,
                                    partner_form);
  }
  return cost;
}

}  // namespace detail

/// True when the XX partner form is the cheaper exact lowering of `seq`
/// (ties go to the CNOT form). synthesize_sequence makes the same choice,
/// which is what keeps the model equal to the emitted pulse count.
[[nodiscard]] inline bool xx_partner_form_wins(
    const std::vector<RotationBlock>& seq, const HardwareTarget& hw) {
  return detail::sequence_cost_form(seq, hw, /*partner_form=*/true) <
         detail::sequence_cost_form(seq, hw, /*partner_form=*/false);
}

/// Native entangler cost of one block with the given target qubit (for the
/// XX target: its partner form, which is never worse per isolated block).
[[nodiscard]] inline int string_cost(const pauli::PauliString& p,
                                     std::size_t target,
                                     const HardwareTarget& hw) {
  if (hw.is_all_to_all_cnot()) return string_cost(p);
  return detail::string_cost_form(p, target, hw,
                                  hw.entangler == EntanglerKind::kXX);
}

/// Interface saving between consecutive blocks, in native entanglers (for
/// the XX target: the partner form, which is what the GTSP weights steer).
/// Connectivity enters only the string costs, so on every CNOT-entangler
/// device this is exactly the default model's interface_saving.
[[nodiscard]] inline int interface_saving(const pauli::PauliString& p1,
                                          std::size_t t1,
                                          const pauli::PauliString& p2,
                                          std::size_t t2,
                                          const HardwareTarget& hw) {
  if (hw.is_all_to_all_cnot()) return interface_saving(p1, t1, p2, t2);
  return detail::interface_saving_form(p1, t1, p2, t2,
                                       hw.entangler == EntanglerKind::kXX);
}

/// Model cost of an ordered block sequence in the target's native
/// entanglers. For all_to_all_cnot this equals sequence_model_cost(seq)
/// exactly; the XX target takes the cheaper of its two lowering forms; for
/// constrained targets the result includes the routing surrogate.
[[nodiscard]] inline int sequence_model_cost(
    const std::vector<RotationBlock>& seq, const HardwareTarget& hw) {
  if (hw.is_all_to_all_cnot()) return sequence_model_cost(seq);
  const int cnot_form = detail::sequence_cost_form(seq, hw, false);
  if (hw.entangler != EntanglerKind::kXX) return cnot_form;
  return std::min(cnot_form, detail::sequence_cost_form(seq, hw, true));
}

/// Memo of the cheapest device string cost of a block, min over its valid
/// targets (the support sites) of string_cost(p, t, hw). string_cost
/// depends only on the SUPPORT of p (weights, xx_partner, and routing
/// distances are all letter-blind), so the memo key is the support word.
/// Exact memoization of a pure function -- results are bit-identical with
/// or without the cache. Only engaged for single-word supports
/// (num_qubits <= 64, far above any molecular instance); wider strings fall
/// through to the direct computation.
///
/// One cache serves exactly one HardwareTarget, which must outlive it (the
/// cache keeps a pointer, so a temporary target is refused). It is NOT
/// thread-safe: core::GammaObjective owns one per objective, for
/// connectivity-constrained targets only.
class StringCostCache {
 public:
  explicit StringCostCache(const HardwareTarget& hw) : hw_(&hw) {}
  explicit StringCostCache(const HardwareTarget&&) = delete;

  /// Memoized min over all valid targets (the support sites) of
  /// string_cost(p, t, hw), for the string p with symplectic components
  /// (x, z). Looked up by support word; p is built only on a miss.
  [[nodiscard]] int min_cost(const gf2::BitVec& x, const gf2::BitVec& z) {
    if (x.size() > 64) return min_cost_direct(x, z);
    const std::uint64_t key = x.word_data()[0] | z.word_data()[0];
    const auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    const int c = min_cost_direct(x, z);
    memo_.emplace(key, c);
    return c;
  }

 private:
  [[nodiscard]] int min_cost_direct(const gf2::BitVec& x,
                                    const gf2::BitVec& z) const {
    pauli::PauliString p(x.size());
    p.set_symplectic(x, z);
    int cheapest = std::numeric_limits<int>::max();
    for (std::size_t q = 0; q < p.num_qubits(); ++q)
      if (p.letter(q) != pauli::Letter::I)
        cheapest = std::min(cheapest, string_cost(p, q, *hw_));
    return cheapest;
  }

  const HardwareTarget* hw_;
  std::unordered_map<std::uint64_t, int> memo_;
};

}  // namespace femto::synth
