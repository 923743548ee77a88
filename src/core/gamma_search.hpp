// Advanced fermion-to-qubit transformation search (paper Sec. III-C) and
// the baseline searches it supersedes.
//
//  - Block discovery: connected components of the index-pair graph formed by
//    creation pairs and annihilation pairs of the fermionic double
//    excitations (paper Appendix C), minus any excluded indices (qubits that
//    must stay untouched, e.g. compressed-pair members).
//  - Advanced search: simulated annealing over block-diagonal Gamma in
//    GL(N,2); moves are elementary row additions inside one block (closed in
//    GL). The SA objective is GammaObjective's fast per-term cost, updated
//    per move; the final pipeline re-sorts with the full GTSP GA.
//  - Baseline searches ([9]): binary PSO over strictly-upper-triangular
//    bits, and greedy transposition hill-climbing for fermionic level
//    labeling. On large segments they score candidates with the same
//    GammaObjective, reset to each candidate.
//
// GammaObjective is the one fast Gamma cost in src/. Its full-recompute
// reference and the generic-SA form of anneal_gamma_fast live in
// tests/support/cost_oracle.hpp.
#pragma once

#include <cmath>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/sorting.hpp"
#include "fermion/excitation.hpp"
#include "gf2/matrix.hpp"
#include "graph/digraph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opt/binary_pso.hpp"
#include "opt/simulated_annealing.hpp"

namespace femto::core {

/// Gamma blocks from the excitation-term topology. `excluded` indices never
/// appear in any block.
[[nodiscard]] inline std::vector<std::vector<std::size_t>> discover_blocks(
    std::size_t n, const std::vector<fermion::ExcitationTerm>& terms,
    const std::vector<std::size_t>& excluded) {
  std::vector<bool> banned(n, false);
  for (std::size_t e : excluded) banned[e] = true;
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (const auto& t : terms) {
    if (!t.is_double()) continue;
    if (!banned[t.p] && !banned[t.q]) pairs.push_back({t.p, t.q});
    if (!banned[t.r] && !banned[t.s]) pairs.push_back({t.r, t.s});
  }
  return graph::pair_components(n, pairs);
}

/// State of the block-diagonal Gamma search.
struct GammaState {
  gf2::Matrix gamma;                              // full n x n
  std::vector<std::vector<std::size_t>> blocks;   // index sets
};

/// Elementary in-block row addition gamma <- E gamma: row dst ^= row src.
struct GammaMove {
  std::size_t src = 0, dst = 0;
};

/// Draws one in-block move: a block, then src, then dst (re-drawn until it
/// differs from src). A block of fewer than two indices is a null proposal:
/// only the block is drawn, and no move is returned.
[[nodiscard]] inline std::optional<GammaMove> draw_gamma_move(
    const std::vector<std::vector<std::size_t>>& blocks, Rng& rng) {
  if (blocks.empty()) return std::nullopt;
  const auto& block = blocks[rng.index(blocks.size())];
  if (block.size() < 2) return std::nullopt;
  GammaMove move;
  move.src = block[rng.index(block.size())];
  move.dst = block[rng.index(block.size())];
  while (move.dst == move.src) move.dst = block[rng.index(block.size())];
  return move;
}

/// Elementary in-block row addition: gamma <- E gamma (stays invertible).
[[nodiscard]] inline GammaState propose_gamma_move(const GammaState& state,
                                                   Rng& rng) {
  GammaState next = state;
  if (const auto move = draw_gamma_move(state.blocks, rng))
    next.gamma.add_row(move->src, move->dst);
  return next;
}

namespace detail {

/// Best shared-target interface saving between two blocks under a device
/// model: max over the shared support of the per-target device saving,
/// -1 when no shared target exists. Only an XX-entangler device needs this
/// scalar scan: its partner form excludes target-dependent wires. On every
/// CNOT-entangler device (connectivity enters only the string costs) the
/// saving is the default model's, priced by the closed-form
/// synth::best_shared_target_saving.
[[nodiscard]] inline int best_shared_device_saving(
    const pauli::PauliString& p1, const pauli::PauliString& p2,
    const synth::HardwareTarget& hw) {
  int best = -1;
  for (std::size_t t = 0; t < p1.num_qubits(); ++t) {
    if (p1.letter(t) == pauli::Letter::I ||
        p2.letter(t) == pauli::Letter::I)
      continue;
    best = std::max(best, synth::interface_saving(p1, t, p2, t, hw));
  }
  return best;
}

/// Greedy nearest-neighbor chain over a precomputed pair-savings table.
/// table[i*m + j] is the best shared-target saving of j following i, with
/// -1 marking pairs that cannot chain (identical letters or no shared
/// target). Returns the total savings collected along the chain; `used` is
/// caller scratch of at least m bytes. Selection order and tie-breaks match
/// the nested-loop greedy of the full-recompute test oracle
/// (tests/support/cost_oracle.hpp) exactly: candidates are scanned in
/// ascending index with strict improvement, so the first candidate
/// achieving the maximal saving wins, and when every candidate is
/// unreachable the lowest-index unused block is taken with zero credit.
[[nodiscard]] inline int greedy_chain_savings(const int* table, std::size_t m,
                                              std::uint8_t* used) {
  std::fill(used, used + m, std::uint8_t{0});
  used[0] = 1;
  std::size_t cur = 0;
  int collected = 0;
  for (std::size_t step = 1; step < m; ++step) {
    int best = -1;
    std::size_t best_next = 0;
    const int* row = table + cur * m;
    for (std::size_t cand = 0; cand < m; ++cand) {
      if (used[cand]) continue;
      if (row[cand] > best) {
        best = row[cand];
        best_next = cand;
      }
    }
    if (best < 0) {
      for (std::size_t cand = 0; cand < m; ++cand)
        if (!used[cand]) {
          best_next = cand;
          best = 0;
          break;
        }
    }
    collected += std::max(best, 0);
    used[best_next] = 1;
    cur = best_next;
  }
  return collected;
}

}  // namespace detail

/// Incrementally maintained Gamma-search objective. An SA move is one
/// elementary GF(2) row addition gamma <- E gamma with E = I + e_dst e_src^T
/// (and E^-1 = E), so everything the fast cost needs admits an O(1)-per-bit
/// delta update instead of gamma.inverse() + a full re-map of every string:
///
///   gamma           row dst ^= row src
///   (gamma^-1)^T    = E^T (old gamma^-1)^T: row src ^= row dst
///   mapped x        bit dst ^= bit src  (x' = E x)
///   mapped z        bit src ^= bit dst  (z' = E^T z)
///
/// Only terms owning a block with x[src] or z[dst] set can change cost; all
/// others keep their cached per-term value. apply_move / undo_move are exact
/// inverses (E is an involution and the undo journal restores the caches).
///
/// The per-term cost is a greedy-chain proxy of the term's sorted cost:
/// string costs (on a constrained device, the cheapest routing-aware target
/// per block) minus the savings of a nearest-neighbor chain from the term's
/// first block, each step crediting the pair's best shared-target saving
/// (detail::greedy_chain_savings). energy() is bit-identical to the
/// full-recompute reference (tests/support/cost_oracle.hpp) at every point:
/// the same integer per-term costs in the same order.
class GammaObjective {
 public:
  /// Flattens the per-term block table. Call reset() before first use.
  /// `hw` is null (the default CNOT model) or a connectivity-constrained
  /// device, whose routing-aware string costs the objective memoizes in its
  /// own StringCostCache. An unconstrained device target is scored by the
  /// default model, so the caller passes null for it. Pair savings take the
  /// closed form synth::best_shared_target_saving on the default model and
  /// on a CNOT-entangler device alike; only an XX-entangler device scans
  /// the shared targets (detail::best_shared_device_saving).
  GammaObjective(std::size_t n,
                 const std::vector<std::vector<synth::RotationBlock>>& term_blocks,
                 const synth::HardwareTarget* hw = nullptr)
      : device_(hw),
        per_target_scan_(hw != nullptr &&
                         hw->entangler == synth::EntanglerKind::kXX),
        gamma_(gf2::Matrix::identity(n)),
        inv_t_(gf2::Matrix::identity(n)) {
    FEMTO_EXPECTS(hw == nullptr || hw->coupling.constrained());
    std::size_t max_blocks = 0;
    for (const auto& blocks : term_blocks) {
      Term term;
      term.begin = blocks_.size();
      for (const auto& b : blocks)
        blocks_.push_back({b.string.x(), b.string.z(), b.string.x(),
                           b.string.z()});
      term.end = blocks_.size();
      terms_.push_back(term);
      max_blocks = std::max(max_blocks, term.end - term.begin);
    }
    table_.resize(max_blocks * max_blocks);
    used_.resize(max_blocks);
    if (device_ != nullptr) cache_.emplace(*device_);
    if (per_target_scan_)
      scratch_strings_.assign(max_blocks, pauli::PauliString(n));
  }

  /// Full recomputation from an arbitrary (invertible) Gamma: the start of
  /// an SA search, its reheats, and every candidate the GT baseline
  /// searches score.
  void reset(const gf2::Matrix& gamma) {
    gamma_ = gamma;
    const auto inv = gamma.inverse();
    FEMTO_EXPECTS(inv.has_value());
    inv_t_ = inv->transpose();
    total_ = 0;
    for (std::size_t ti = 0; ti < terms_.size(); ++ti) {
      for (std::size_t k = terms_[ti].begin; k < terms_[ti].end; ++k) {
        blocks_[k].x = gamma_.apply(blocks_[k].base_x);
        blocks_[k].z = inv_t_.apply(blocks_[k].base_z);
      }
      terms_[ti].cost = recompute_term(ti);
      total_ += terms_[ti].cost;
    }
    dirty_.clear();
  }

  [[nodiscard]] double energy() const { return static_cast<double>(total_); }
  [[nodiscard]] const gf2::Matrix& gamma() const { return gamma_; }
  [[nodiscard]] const gf2::Matrix& inverse_transpose() const { return inv_t_; }

  /// Applies the elementary move gamma <- E gamma (row dst ^= row src).
  void apply_move(std::size_t src, std::size_t dst) {
    FEMTO_EXPECTS(src != dst);
    last_src_ = src;
    last_dst_ = dst;
    dirty_.clear();
    for (std::size_t ti = 0; ti < terms_.size(); ++ti) {
      bool dirty = false;
      for (std::size_t k = terms_[ti].begin; k < terms_[ti].end; ++k) {
        // Unchecked bit accessors: src/dst are block indices < n by
        // construction, and this loop dominates every SA candidate.
        Block& b = blocks_[k];
        const bool fx = b.x.get_u(src);
        const bool fz = b.z.get_u(dst);
        if (fx) b.x.flip_u(dst);
        if (fz) b.z.flip_u(src);
        dirty = dirty || fx || fz;
      }
      if (dirty) {
        dirty_.push_back({ti, terms_[ti].cost});
        const int c = recompute_term(ti);
        total_ += c - terms_[ti].cost;
        terms_[ti].cost = c;
      }
    }
    gamma_.add_row(src, dst);
    inv_t_.add_row(dst, src);
  }

  /// Exact inverse of the last apply_move (E is an involution; cached term
  /// costs are restored from the journal).
  void undo_move() {
    for (const Dirty& d : dirty_) {
      for (std::size_t k = terms_[d.term].begin; k < terms_[d.term].end; ++k) {
        Block& b = blocks_[k];
        const bool fx = b.x.get_u(last_src_);
        const bool fz = b.z.get_u(last_dst_);
        if (fx) b.x.flip_u(last_dst_);
        if (fz) b.z.flip_u(last_src_);
      }
      total_ += d.old_cost - terms_[d.term].cost;
      terms_[d.term].cost = d.old_cost;
    }
    gamma_.add_row(last_src_, last_dst_);
    inv_t_.add_row(last_dst_, last_src_);
    dirty_.clear();
  }

 private:
  struct Block {
    gf2::BitVec base_x, base_z;  // Jordan-Wigner (identity-Gamma) frame
    gf2::BitVec x, z;            // mapped: x = Gamma base_x, z = Gamma^-T base_z
  };
  struct Term {
    std::size_t begin = 0, end = 0;
    int cost = 0;
  };
  struct Dirty {
    std::size_t term = 0;
    int old_cost = 0;
  };

  [[nodiscard]] static std::size_t support_weight(const Block& b) {
    return gf2::wordops::or_popcount(b.x.word_data(), b.z.word_data(),
                                     b.x.word_count());
  }

  /// Cost of one term over the mapped symplectic pairs: per-block string
  /// costs minus the greedy chain on the pairwise savings table.
  [[nodiscard]] int recompute_term(std::size_t ti) {
    const Term& term = terms_[ti];
    const std::size_t m = term.end - term.begin;
    if (m == 0) return 0;
    const Block* blocks = blocks_.data() + term.begin;
    int total = 0;
    for (std::size_t k = 0; k < m; ++k) {
      if (device_ == nullptr) {
        const std::size_t w = support_weight(blocks[k]);
        total += w <= 1 ? 0 : 2 * (static_cast<int>(w) - 1);
      } else {
        // Constrained device: the cheapest routing-aware target per block.
        total += cache_->min_cost(blocks[k].x, blocks[k].z);
      }
    }
    if (m == 1) return total;
    if (per_target_scan_)
      for (std::size_t k = 0; k < m; ++k)
        scratch_strings_[k].set_symplectic(blocks[k].x, blocks[k].z);
    // Every pair saving is symmetric (C, E, the X/Y-collision flag and the
    // XX partner form's excluded-wire set all are), so the upper triangle
    // is filled and mirrored.
    for (std::size_t i = 0; i < m; ++i) {
      table_[i * m + i] = -1;
      for (std::size_t j = i + 1; j < m; ++j) {
        int s = -1;
        if (!(blocks[i].x == blocks[j].x && blocks[i].z == blocks[j].z))
          s = per_target_scan_
                  ? detail::best_shared_device_saving(
                        scratch_strings_[i], scratch_strings_[j], *device_)
                  : synth::best_shared_target_saving(blocks[i].x, blocks[i].z,
                                                     blocks[j].x, blocks[j].z);
        table_[i * m + j] = table_[j * m + i] = s;
      }
    }
    return total - detail::greedy_chain_savings(table_.data(), m, used_.data());
  }

  const synth::HardwareTarget* device_ = nullptr;
  bool per_target_scan_ = false;  // XX-entangler device: partner-form savings
  std::optional<synth::StringCostCache> cache_;  // device targets only
  gf2::Matrix gamma_, inv_t_;
  std::vector<Block> blocks_;
  std::vector<Term> terms_;
  std::vector<int> table_;
  std::vector<std::uint8_t> used_;
  std::vector<pauli::PauliString> scratch_strings_;  // per_target_scan_ only
  std::vector<Dirty> dirty_;
  std::size_t last_src_ = 0, last_dst_ = 0;
  int total_ = 0;
};

/// Simulated-annealing search over block-diagonal Gamma on the incremental
/// objective. Replays the exact Metropolis loop of opt::simulated_annealing
/// over propose_gamma_move (the same draw_gamma_move, uniform only on uphill
/// candidates), so the returned state is bit-identical to that generic
/// loop on the full-recompute cost (tests/support/cost_oracle.hpp) --
/// only the per-candidate evaluation is O(delta) instead of O(full
/// segment).
[[nodiscard]] inline GammaState anneal_gamma_fast(
    std::size_t n, const std::vector<std::vector<std::size_t>>& blocks,
    GammaObjective& objective, Rng& rng, const opt::SaOptions& options = {}) {
  FEMTO_EXPECTS(options.steps > 0);
  FEMTO_EXPECTS(options.t_initial > 0 && options.t_final > 0);
  // Coarse solver observability: ONE span per SA solve (never per step) so
  // tracing cost stays negligible next to the Metropolis loop itself.
  obs::Span span("gamma_sa", "solver");
  span.arg("steps", options.steps);
  span.arg("blocks", blocks.size());
  static obs::Counter& solves = obs::registry().counter("solver.sa_solves");
  static obs::Counter& steps = obs::registry().counter("solver.sa_steps");
  solves.inc();
  steps.inc(static_cast<std::uint64_t>(options.steps));
  objective.reset(gf2::Matrix::identity(n));
  double current_energy = objective.energy();
  gf2::Matrix best_gamma = objective.gamma();
  double best_energy = current_energy;
  const double cool =
      std::pow(options.t_final / options.t_initial,
               1.0 / static_cast<double>(options.steps));
  double t = options.t_initial;
  for (int step = 0; step < options.steps; ++step, t *= cool) {
    // A null proposal keeps the state: delta 0, always accepted.
    const std::optional<GammaMove> move = draw_gamma_move(blocks, rng);
    double e = current_energy;
    if (move) {
      objective.apply_move(move->src, move->dst);
      e = objective.energy();
    }
    const double delta = e - current_energy;
    if (delta <= 0 || rng.uniform() < std::exp(-delta / t)) {
      current_energy = e;
      if (e < best_energy) {
        best_energy = e;
        best_gamma = objective.gamma();
      }
    } else if (move) {
      objective.undo_move();
    }
    if (options.reheat_interval > 0 && step > 0 &&
        step % options.reheat_interval == 0) {
      // Restore the best state (generic SA copies it; here a reset only
      // when the current state actually drifted).
      if (!(objective.gamma() == best_gamma)) objective.reset(best_gamma);
      current_energy = best_energy;
    }
  }
  return {std::move(best_gamma), blocks};
}

/// Baseline [9]: binary PSO over strictly-upper-triangular entries restricted
/// to `allowed` indices (unit diagonal guarantees invertibility).
[[nodiscard]] inline gf2::Matrix pso_upper_triangular(
    std::size_t n, const std::vector<std::size_t>& allowed,
    const std::function<double(const gf2::Matrix&)>& cost, Rng& rng,
    const opt::PsoOptions& options = {}) {
  const std::size_t m = allowed.size();
  const std::size_t dim = m * (m - 1) / 2;
  const auto decode = [&](const std::vector<bool>& bits) {
    gf2::Matrix gamma = gf2::Matrix::identity(n);
    std::size_t k = 0;
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = i + 1; j < m; ++j)
        gamma.set(allowed[i], allowed[j], bits[k++]);
    return gamma;
  };
  if (dim == 0) return gf2::Matrix::identity(n);
  const auto energy = [&](const std::vector<bool>& bits) {
    return cost(decode(bits));
  };
  const opt::PsoResult res = opt::binary_pso(dim, energy, rng, options);
  return decode(res.best);
}

/// Baseline [9] fermionic level labeling: greedy transposition hill climbing
/// over mode permutations restricted to `allowed` indices. Returns the
/// permutation matrix (a member of GL(N,2), composable with any Gamma).
[[nodiscard]] inline gf2::Matrix greedy_level_labeling(
    std::size_t n, const std::vector<std::size_t>& allowed,
    const std::function<double(const gf2::Matrix&)>& cost, int max_rounds = 4) {
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  double best = cost(gf2::Matrix::permutation(perm));
  for (int round = 0; round < max_rounds; ++round) {
    bool improved = false;
    for (std::size_t a = 0; a < allowed.size(); ++a) {
      for (std::size_t b = a + 1; b < allowed.size(); ++b) {
        std::swap(perm[allowed[a]], perm[allowed[b]]);
        const double cand = cost(gf2::Matrix::permutation(perm));
        if (cand < best - 1e-12) {
          best = cand;
          improved = true;
        } else {
          std::swap(perm[allowed[a]], perm[allowed[b]]);  // revert
        }
      }
    }
    if (!improved) break;
  }
  return gf2::Matrix::permutation(perm);
}

/// Embedded Bravyi-Kitaev (Fenwick) matrix over a subset of indices, identity
/// elsewhere. Used to combine the BK column with pair compression: BK is
/// built over the uncompressed modes only.
[[nodiscard]] inline gf2::Matrix embedded_bravyi_kitaev(
    std::size_t n, const std::vector<std::size_t>& allowed) {
  gf2::Matrix a = gf2::Matrix::identity(n);
  const std::size_t m = allowed.size();
  for (std::size_t i1 = 1; i1 <= m; ++i1) {
    const std::size_t low = i1 & (~i1 + 1);
    a.set(allowed[i1 - 1], allowed[i1 - 1], false);
    for (std::size_t k1 = i1 - low + 1; k1 <= i1; ++k1)
      a.set(allowed[i1 - 1], allowed[k1 - 1], true);
  }
  FEMTO_ENSURES(a.invertible());
  return a;
}

}  // namespace femto::core
