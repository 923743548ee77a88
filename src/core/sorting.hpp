// String-ordering engines.
//
// Advanced sorting (paper Sec. III-B): all strings of a segment are sorted
// jointly over both order and per-string target choice by mapping to GTSP
// (cluster = string, vertices = (string, target)) and solving with the
// genetic algorithm.
//
// Baseline sorting ([9], used for the JW / BK / GT columns of Table I):
// every string of one excitation term shares a single target; the
// intra-term order is solved exactly per target (Held-Karp over <= 8
// strings, the "exhaustive search" of the baseline); inter-term ordering is
// doubly greedy -- group terms by best target, order within groups by
// nearest-neighbor savings.
//
// Hot-path layout (all bit-identical to the historical scalar code):
//  * sort_advanced materializes the GTSP weights straight into a dense
//    matrix (opt::GtspDense) -- no std::function, no hash-map memo -- one
//    block pair at a time (detail::advanced_instance), and runs the
//    allocation-free GA core.
//  * sort_baseline takes each term's pair counts once, runs one Held-Karp
//    per distinct candidate weight table, best-first under a path bound,
//    and relaxes the pushed DP eight lanes at a time (SIMD-dispatched);
//    see detail::plan_term. Its results must equal, bit for bit, the
//    reference formulation in tests/support/baseline_oracle.hpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/simd.hpp"
#include "core/rotation_blocks.hpp"
#include "obs/metrics.hpp"
#include "opt/gtsp.hpp"
#include "synth/cost_model.hpp"

#if FEMTO_SIMD_X86
#include <immintrin.h>
#endif

namespace femto::core {

namespace detail {

/// The GTSP instance sort_advanced solves: cluster k holds one vertex per
/// valid target of block k, in ascending target order, and vertices are
/// numbered cluster by cluster (consecutive ids, as GtspDense requires).
struct AdvancedInstance {
  opt::GtspDense gtsp;
  std::vector<std::size_t> targets;  // target qubit of each vertex
};

/// Builds sort_advanced's instance. The weight of vertex (a, ta) -> (b, tb)
/// is the interface saving of block b after block a on those targets, plus
/// the successor vertex's target-choice bonus on a connectivity-constrained
/// device (its cluster-minimal routing-aware string cost minus its own;
/// 0.0 elsewhere). A saving is zero unless ta == tb, and identical letter
/// strings get none (the paper inserts no edge between equal strings;
/// adjacency is allowed but yields no credit). Intra-cluster pairs are never
/// consulted and stay 0.
///
/// Filled one block pair at a time: one same_letters check and one
/// common-support count per pair, then a walk over the two ascending target
/// lists prices each shared target in closed form
/// (synth::detail::shared_target_saving; on an XX-entangler device the
/// partner form's interface_saving). Bit-equal to the per-vertex-pair fill
/// of tests/support/sort_oracle.hpp.
[[nodiscard]] inline AdvancedInstance advanced_instance(
    const std::vector<synth::RotationBlock>& blocks,
    const synth::HardwareTarget* hw) {
  AdvancedInstance out;
  opt::GtspDense& inst = out.gtsp;
  std::vector<std::size_t>& targets = out.targets;
  const bool device = hw != nullptr && !hw->is_all_to_all_cnot();
  const bool constrained = device && hw->coupling.constrained();
  const bool partner_form =
      device && hw->entangler == synth::EntanglerKind::kXX;
  std::vector<double> bonus;  // per vertex
  for (std::size_t k = 0; k < blocks.size(); ++k) {
    std::vector<int> cluster;
    const std::size_t first = targets.size();
    for (std::size_t t : valid_targets(blocks[k])) {
      cluster.push_back(static_cast<int>(targets.size()));
      targets.push_back(t);
      bonus.push_back(0.0);
    }
    FEMTO_EXPECTS(!cluster.empty());
    if (constrained) {
      int min_cost = std::numeric_limits<int>::max();
      for (std::size_t v = first; v < targets.size(); ++v)
        min_cost = std::min(
            min_cost, synth::string_cost(blocks[k].string, targets[v], *hw));
      for (std::size_t v = first; v < targets.size(); ++v)
        bonus[v] = static_cast<double>(
            min_cost - synth::string_cost(blocks[k].string, targets[v], *hw));
    }
    inst.clusters.push_back(std::move(cluster));
  }
  inst.allocate();
  const std::size_t nv = inst.num_vertices;
  if (constrained) {
    // Every cross-cluster entry starts at its successor's bonus.
    for (const std::vector<int>& ca : inst.clusters)
      for (const int va : ca) {
        double* row = inst.weights.data() + static_cast<std::size_t>(va) * nv;
        std::copy(bonus.begin(), bonus.end(), row);
        std::fill(row + ca.front(), row + ca.back() + 1, 0.0);
      }
  }
  for (std::size_t a = 0; a < blocks.size(); ++a) {
    const pauli::PauliString& pa = blocks[a].string;
    const std::vector<int>& ca = inst.clusters[a];
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      if (b == a) continue;
      const pauli::PauliString& pb = blocks[b].string;
      FEMTO_EXPECTS(pa.num_qubits() == pb.num_qubits());
      if (pa.same_letters(pb)) continue;
      const std::vector<int>& cb = inst.clusters[b];
      const synth::detail::CommonSupport c =
          partner_form ? synth::detail::CommonSupport{}
                       : synth::detail::common_support_counts(pa.x(), pa.z(),
                                                              pb.x(), pb.z());
      std::size_t i = 0, j = 0;
      while (i < ca.size() && j < cb.size()) {
        const std::size_t ta = targets[static_cast<std::size_t>(ca[i])];
        const std::size_t tb = targets[static_cast<std::size_t>(cb[j])];
        if (ta < tb) {
          ++i;
          continue;
        }
        if (tb < ta) {
          ++j;
          continue;
        }
        const int s = partner_form
                          ? synth::interface_saving(pa, ta, pb, ta, *hw)
                          : synth::detail::shared_target_saving(
                                c, pa.letter(ta), pb.letter(ta));
        inst.set_weight(ca[i], cb[j],
                        static_cast<double>(s) +
                            bonus[static_cast<std::size_t>(cb[j])]);
        ++i;
        ++j;
      }
    }
  }
  return out;
}

}  // namespace detail

/// GTSP-based joint sort (order + targets). Returns the blocks in
/// implementation order with targets assigned. With a non-default
/// HardwareTarget the GTSP edge weights become the *device* savings
/// (synth/cost_model.hpp); on connectivity-constrained targets each edge
/// additionally carries the successor vertex's target-choice bonus, so the
/// solver is steered toward cheap target placements as well as savings
/// (detail::advanced_instance). Both extras are exactly zero for
/// all_to_all_cnot / hw == nullptr, keeping the historical behavior
/// bit-identical.
[[nodiscard]] inline std::vector<synth::RotationBlock> sort_advanced(
    const std::vector<synth::RotationBlock>& blocks, Rng& rng,
    const opt::GtspOptions& options = {},
    const synth::HardwareTarget* hw = nullptr) {
  if (blocks.size() <= 1) return blocks;
  const detail::AdvancedInstance inst = detail::advanced_instance(blocks, hw);
  const opt::GtspSolution sol = opt::solve_gtsp_ga(inst.gtsp, rng, options);
  std::vector<synth::RotationBlock> out;
  out.reserve(blocks.size());
  for (std::size_t slot = 0; slot < sol.cluster_order.size(); ++slot) {
    synth::RotationBlock b = blocks[sol.cluster_order[slot]];
    b.target = inst.targets[static_cast<std::size_t>(sol.vertex_choice[slot])];
    out.push_back(std::move(b));
  }
  return out;
}

namespace detail {

/// Largest term the exact intra-term order accepts (2^m DP rows).
inline constexpr std::size_t kMaxHeldKarpBlocks = 16;
/// Lanes the Held-Karp kernels relax at once. Weight-table rows are padded
/// with zero weights to a multiple of this width.
inline constexpr std::size_t kHeldKarpLanes = 8;

// ---- exact intra-term order ---------------------------------------------
//
// Held-Karp in pushed form over a row-major weight table w (w[i*stride + j]
// = saving of block j directly after block i; savings are non-negative).
// Row `mask` of the value table holds, in lane `last` (last outside mask),
// the best savings of a path that covers `mask` and then ends at `last`.
// Row 0 is the base case: a path of one block saves nothing. Every other
// row is relaxed, all lanes at once, from each predecessor prev in `mask`:
//
//   val[mask][last] = max_prev val[mask \ prev][prev] + w[prev][last].
//
// Each state (mask + last, last) has the unique source row `mask`, so this is
// the pull recurrence. Its first-maximizer tie-break (predecessors scanned
// in ascending order, strict improvement) picks the lowest prev whose
// candidate equals the row maximum, so held_karp_path recovers exactly that
// predecessor while walking the optimal path back instead of storing a
// parent table. Lanes inside `mask` and padding lanes hold values nothing
// reads; the full row is never needed.

inline void held_karp_fill_portable(int* val, const int* w, std::size_t m,
                                    std::size_t stride) {
  const std::size_t full = std::size_t{1} << m;
  for (std::size_t mask = 1; mask + 1 < full; ++mask) {
    for (std::size_t l0 = 0; l0 < stride; l0 += kHeldKarpLanes) {
      int best[kHeldKarpLanes];
      std::fill(best, best + kHeldKarpLanes, -1);
      for (std::size_t rest = mask; rest != 0; rest &= rest - 1) {
        const std::size_t prev =
            static_cast<std::size_t>(__builtin_ctzll(rest));
        const int base = val[(mask ^ (std::size_t{1} << prev)) * stride + prev];
        const int* row = w + prev * stride + l0;
        for (std::size_t l = 0; l < kHeldKarpLanes; ++l)
          best[l] = std::max(best[l], base + row[l]);
      }
      std::copy(best, best + kHeldKarpLanes, val + mask * stride + l0);
    }
  }
}

#if FEMTO_SIMD_X86
__attribute__((target("avx2"))) inline void held_karp_fill_avx2(
    int* val, const int* w, std::size_t m, std::size_t stride) {
  const std::size_t full = std::size_t{1} << m;
  for (std::size_t mask = 1; mask + 1 < full; ++mask) {
    for (std::size_t l0 = 0; l0 < stride; l0 += kHeldKarpLanes) {
      __m256i best = _mm256_set1_epi32(-1);
      for (std::size_t rest = mask; rest != 0; rest &= rest - 1) {
        const std::size_t prev =
            static_cast<std::size_t>(__builtin_ctzll(rest));
        const __m256i cand = _mm256_add_epi32(
            _mm256_set1_epi32(
                val[(mask ^ (std::size_t{1} << prev)) * stride + prev]),
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(w + prev * stride + l0)));
        best = _mm256_max_epi32(best, cand);
      }
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(val + mask * stride + l0), best);
    }
  }
}
#endif  // FEMTO_SIMD_X86

/// Fills rows 1 .. 2^m - 2 of the pushed DP (common/simd.hpp dispatch).
/// Bit-identical at every level.
inline void held_karp_fill(int* val, const int* w, std::size_t m,
                           std::size_t stride) {
#if FEMTO_SIMD_X86
  if (simd::level() == simd::Level::kAvx2) {
    held_karp_fill_avx2(val, w, m, stride);
    return;
  }
#endif
  held_karp_fill_portable(val, w, m, stride);
}

/// Exact best Hamiltonian path over an m-block table of non-negative
/// weights (row-major, rows padded with zeros to `stride`, a multiple of
/// kHeldKarpLanes). Writes the block order to order[0, m) and returns its
/// total savings. Scratch is per-thread, so steady-state calls allocate
/// nothing.
[[nodiscard]] inline int held_karp_path(const int* w, std::size_t m,
                                        std::size_t stride,
                                        std::size_t* order) {
  FEMTO_EXPECTS(m >= 1 && m <= kMaxHeldKarpBlocks);
  FEMTO_EXPECTS(stride >= m && stride % kHeldKarpLanes == 0);
  static thread_local std::vector<int> val;
  const std::size_t full = std::size_t{1} << m;
  val.resize(full * stride);
  std::fill_n(val.begin(), stride, 0);
  held_karp_fill(val.data(), w, m, stride);
  const auto value = [&](std::size_t mask, std::size_t last) {
    return val[mask * stride + last];
  };
  int best = -1;
  std::size_t cur = 0;
  for (std::size_t last = 0; last < m; ++last) {
    const int v = value((full - 1) ^ (std::size_t{1} << last), last);
    if (v > best) {
      best = v;
      cur = last;
    }
  }
  // Walk back: the predecessor of (mask + cur, cur) is the lowest prev in
  // mask whose candidate reaches the row value.
  std::size_t mask = full - 1;
  for (std::size_t pos = m - 1; pos > 0; --pos) {
    order[pos] = cur;
    mask ^= std::size_t{1} << cur;
    const int target = value(mask, cur);
    std::size_t rest = mask;
    for (; rest != 0; rest &= rest - 1) {
      const std::size_t prev = static_cast<std::size_t>(__builtin_ctzll(rest));
      if (value(mask ^ (std::size_t{1} << prev), prev) +
              w[prev * stride + cur] ==
          target) {
        cur = prev;
        break;
      }
    }
    FEMTO_ASSERT(rest != 0);
  }
  order[0] = cur;
  return best;
}

/// Upper bound on held_karp_path's savings for any non-negative table. An
/// interior block of a path touches two of its edges and each of the two
/// endpoints one, so twice the path's weight is at most the sum over blocks
/// of their two largest symmetrized weights max(w[i][j], w[j][i]), less the
/// two smallest second-largest ones.
[[nodiscard]] inline int path_savings_bound(const int* w, std::size_t m,
                                            std::size_t stride) {
  int twice = 0;
  int low1 = std::numeric_limits<int>::max();
  int low2 = std::numeric_limits<int>::max();
  for (std::size_t i = 0; i < m; ++i) {
    int top1 = 0;
    int top2 = 0;
    for (std::size_t j = 0; j < m; ++j) {
      if (j == i) continue;
      const int s = std::max(w[i * stride + j], w[j * stride + i]);
      if (s > top1) {
        top2 = top1;
        top1 = s;
      } else if (s > top2) {
        top2 = s;
      }
    }
    twice += top1 + top2;
    if (top2 < low1) {
      low2 = low1;
      low1 = top2;
    } else if (top2 < low2) {
      low2 = top2;
    }
  }
  if (m >= 2) twice -= low1 + low2;
  return twice / 2;
}

/// One term of the baseline sort: its blocks in exact intra-term order, all
/// on the shared target.
struct TermPlan {
  std::vector<synth::RotationBlock> ordered;
  std::size_t target = 0;
};

/// Shared target and exact order of one term. Every common support qubit t
/// is a candidate scored by the Held-Karp savings of its weight table (less
/// the routed string costs on a connectivity-constrained device); the first
/// maximizer in ascending qubit order wins.
///
/// On the default model interface_saving(p_i, t, p_j, t) is
/// (C_ij - 1) + good(p_i(t), p_j(t)) * (E_ij - [p_i(t) == p_j(t)]) with the
/// pair counts C, E independent of t, so the counts are taken once per term
/// and a candidate's table depends on its letter column alone. A candidate
/// whose table and offset repeat an earlier one's can only tie it from a
/// later scan position, so it is skipped. The rest run best-first by
/// path_savings_bound, and a candidate whose bound cannot beat the
/// incumbent (or only tie it from a later scan position) is never run.
/// `held_karp_runs` counts the DPs actually run.
[[nodiscard]] inline TermPlan plan_term(
    const std::vector<synth::RotationBlock>& blocks,
    const synth::HardwareTarget* device, std::uint64_t& held_karp_runs) {
  const std::size_t m = blocks.size();
  FEMTO_EXPECTS(m >= 1 && m <= kMaxHeldKarpBlocks);
  const std::size_t n = blocks[0].string.num_qubits();
  gf2::BitVec shared = blocks[0].string.support();
  for (std::size_t i = 1; i < m; ++i) shared &= blocks[i].string.support();
  FEMTO_EXPECTS(shared.any() &&
                "sort_baseline: the blocks of a term share a support qubit");

  static thread_local std::vector<std::uint8_t> same;
  static thread_local std::vector<int> common, equal;
  same.assign(m * m, 0);
  common.assign(m * m, 0);
  equal.assign(m * m, 0);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = i + 1; j < m; ++j) {
      const pauli::PauliString& pi = blocks[i].string;
      const pauli::PauliString& pj = blocks[j].string;
      if (pi.same_letters(pj)) {
        same[i * m + j] = same[j * m + i] = 1;
      } else if (device == nullptr) {
        const synth::detail::CommonSupport c =
            synth::detail::common_support_counts(pi.x(), pi.z(), pj.x(),
                                                 pj.z());
        common[i * m + j] = common[j * m + i] = c.common;
        equal[i * m + j] = equal[j * m + i] = c.equal;
      }
    }

  struct Candidate {
    int bound = 0;
    int offset = 0;
    std::size_t target = 0;
    std::size_t table = 0;  // offset of its weight table in `tables`
  };
  static thread_local std::vector<int> tables;
  static thread_local std::vector<Candidate> candidates;
  tables.clear();
  candidates.clear();
  const std::size_t stride =
      (m + kHeldKarpLanes - 1) / kHeldKarpLanes * kHeldKarpLanes;
  const std::size_t cells = m * stride;
  const bool routed = device != nullptr && device->coupling.constrained();
  for (std::size_t t = 0; t < n; ++t) {
    if (!shared.get_u(t)) continue;
    const std::size_t at = tables.size();
    tables.resize(at + cells);  // value-initialized: zero weights
    int* w = tables.data() + at;
    if (device == nullptr) {
      pauli::Letter letters[kMaxHeldKarpBlocks] = {};
      for (std::size_t i = 0; i < m; ++i)
        letters[i] = blocks[i].string.letter(t);
      for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < m; ++j) {
          if (i == j || same[i * m + j]) continue;
          int s = common[i * m + j] - 1;
          if (synth::target_collision_good(letters[i], letters[j]))
            s += equal[i * m + j] - (letters[i] == letters[j] ? 1 : 0);
          w[i * stride + j] = s;
        }
    } else {
      for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < m; ++j)
          if (i != j && !same[i * m + j])
            w[i * stride + j] = synth::interface_saving(
                blocks[i].string, t, blocks[j].string, t, *device);
    }
    int offset = 0;
    if (routed)
      for (const auto& b : blocks)
        offset -= synth::string_cost(b.string, t, *device);
    bool repeat = false;
    for (const Candidate& c : candidates)
      if (c.offset == offset &&
          std::equal(w, w + cells, tables.data() + c.table)) {
        repeat = true;
        break;
      }
    if (repeat) {
      tables.resize(at);
      continue;
    }
    candidates.push_back(
        {path_savings_bound(w, m, stride) + offset, offset, t, at});
  }

  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.bound != b.bound ? a.bound > b.bound
                                        : a.target < b.target;
            });
  std::size_t order[kMaxHeldKarpBlocks] = {};
  std::size_t best_order[kMaxHeldKarpBlocks] = {};
  int best_score = 0;
  std::size_t best_target = n;  // n: no candidate run yet
  for (const Candidate& c : candidates) {
    if (best_target != n) {
      if (c.bound < best_score) break;
      if (c.bound == best_score && c.target > best_target) continue;
    }
    const int score =
        held_karp_path(tables.data() + c.table, m, stride, order) + c.offset;
    ++held_karp_runs;
    if (best_target == n || score > best_score ||
        (score == best_score && c.target < best_target)) {
      best_score = score;
      best_target = c.target;
      std::copy(order, order + m, best_order);
    }
  }
  TermPlan plan;
  plan.target = best_target;
  plan.ordered.reserve(m);
  for (std::size_t k = 0; k < m; ++k) {
    plan.ordered.push_back(blocks[best_order[k]]);
    plan.ordered.back().target = best_target;
  }
  return plan;
}

}  // namespace detail

/// Baseline sort: per-term shared target + exact intra-term order
/// (detail::plan_term), then doubly-greedy inter-term ordering (group by
/// target, nearest-neighbor within and across groups). With a non-default
/// HardwareTarget, savings are the device savings and the shared-target
/// choice additionally weighs the routing-aware string costs (zero delta on
/// unconstrained targets). Precondition: the blocks of every term share a
/// support qubit (the strings of one excitation share their x-vector, and
/// Gamma maps it to one common support).
[[nodiscard]] inline std::vector<synth::RotationBlock> sort_baseline(
    const std::vector<std::vector<synth::RotationBlock>>& per_term,
    const synth::HardwareTarget* hw = nullptr) {
  using detail::TermPlan;
  const synth::HardwareTarget* device =
      hw != nullptr && !hw->is_all_to_all_cnot() ? hw : nullptr;
  static obs::Counter& held_karp_runs =
      obs::registry().counter("solver.held_karp_runs");
  std::uint64_t runs = 0;
  std::vector<TermPlan> plans;
  for (const auto& term_blocks : per_term)
    if (!term_blocks.empty())
      plans.push_back(detail::plan_term(term_blocks, device, runs));
  held_karp_runs.inc(runs);
  // Group by shared target (descending group size), nearest-neighbor order
  // within each group using the real boundary savings.
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
    // Greedy chain within the group.
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
      for (auto& b : group[idx].ordered) out.push_back(std::move(b));
  }
  return out;
}

}  // namespace femto::core
