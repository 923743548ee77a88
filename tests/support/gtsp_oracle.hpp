// Reference implementation of the GTSP genetic algorithm, kept verbatim
// from the historical lazy formulation -- the pairwise weight behind a
// std::function, every GA step on freshly allocated vectors -- so the dense
// solver in src/opt/gtsp.hpp can be checked bit-for-bit against it: same
// cluster order, same vertex choice, same value, and the same RNG position
// after the solve.
//
//  * GtspInstance: clusters plus a lazy weight function;
//  * cluster_dp, order_crossover, mutate, greedy_seed: the GA steps;
//  * solve_gtsp_ga_reference: the GA itself;
//  * materialize: the dense instance the production solver runs on, for
//    tests that build an instance from a lambda.
//
// Test-only: nothing in src/ includes this file.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "opt/gtsp.hpp"

namespace femto::oracle {

using opt::GtspOptions;
using opt::GtspSolution;

struct GtspInstance {
  /// clusters[k] lists the global vertex ids of cluster k.
  std::vector<std::vector<int>> clusters;
  /// Pairwise weight (saving) between consecutive vertices; symmetric in our
  /// use but not required.
  std::function<double(int, int)> weight;
};

/// The dense instance of `inst`: its weight materialized over every
/// cross-cluster vertex pair (intra-cluster pairs stay 0).
[[nodiscard]] inline opt::GtspDense materialize(const GtspInstance& inst) {
  opt::GtspDense dense;
  dense.clusters = inst.clusters;
  dense.allocate();
  for (std::size_t ci = 0; ci < dense.clusters.size(); ++ci)
    for (std::size_t cj = 0; cj < dense.clusters.size(); ++cj) {
      if (ci == cj) continue;
      for (int a : dense.clusters[ci])
        for (int b : dense.clusters[cj])
          dense.set_weight(a, b, inst.weight(a, b));
    }
  return dense;
}

/// Exact best vertex assignment for a fixed cluster order (layered DP).
[[nodiscard]] inline GtspSolution cluster_dp(
    const GtspInstance& inst, const std::vector<std::size_t>& order) {
  GtspSolution sol;
  sol.cluster_order = order;
  const std::size_t m = order.size();
  if (m == 0) return sol;
  const auto& first = inst.clusters[order[0]];
  std::vector<double> dp(first.size(), 0.0);
  std::vector<std::vector<int>> back(m);
  for (std::size_t k = 1; k < m; ++k) {
    const auto& prev = inst.clusters[order[k - 1]];
    const auto& cur = inst.clusters[order[k]];
    std::vector<double> next(cur.size(),
                             -std::numeric_limits<double>::infinity());
    back[k].assign(cur.size(), 0);
    for (std::size_t j = 0; j < cur.size(); ++j) {
      for (std::size_t i = 0; i < prev.size(); ++i) {
        const double v = dp[i] + inst.weight(prev[i], cur[j]);
        if (v > next[j]) {
          next[j] = v;
          back[k][j] = static_cast<int>(i);
        }
      }
    }
    dp = std::move(next);
  }
  std::size_t best = 0;
  for (std::size_t j = 1; j < dp.size(); ++j)
    if (dp[j] > dp[best]) best = j;
  sol.value = dp[best];
  sol.vertex_choice.assign(m, 0);
  std::size_t cursor = best;
  for (std::size_t k = m; k-- > 0;) {
    sol.vertex_choice[k] = inst.clusters[order[k]][cursor];
    if (k > 0) cursor = static_cast<std::size_t>(back[k][cursor]);
  }
  return sol;
}

/// Order crossover (OX) for permutations.
[[nodiscard]] inline std::vector<std::size_t> order_crossover(
    const std::vector<std::size_t>& a, const std::vector<std::size_t>& b,
    Rng& rng) {
  const std::size_t m = a.size();
  if (m < 2) return a;
  std::size_t lo = rng.index(m), hi = rng.index(m);
  if (lo > hi) std::swap(lo, hi);
  std::vector<std::size_t> child(m, m);
  std::vector<bool> taken(m, false);
  for (std::size_t k = lo; k <= hi; ++k) {
    child[k] = a[k];
    taken[a[k]] = true;
  }
  std::size_t cursor = 0;
  for (std::size_t k = 0; k < m; ++k) {
    if (child[k] != m) continue;
    while (taken[b[cursor]]) ++cursor;
    child[k] = b[cursor];
    taken[b[cursor]] = true;
  }
  return child;
}

/// Segment reversal or the relocation of one cluster (erase + insert).
inline void mutate(std::vector<std::size_t>& order, Rng& rng) {
  const std::size_t m = order.size();
  if (m < 2) return;
  if (rng.bernoulli(0.5)) {
    // Segment reversal (2-opt style).
    std::size_t lo = rng.index(m), hi = rng.index(m);
    if (lo > hi) std::swap(lo, hi);
    std::reverse(order.begin() + static_cast<std::ptrdiff_t>(lo),
                 order.begin() + static_cast<std::ptrdiff_t>(hi) + 1);
  } else {
    // Random relocation of one cluster.
    const std::size_t from = rng.index(m);
    const std::size_t to = rng.index(m);
    const std::size_t v = order[from];
    order.erase(order.begin() + static_cast<std::ptrdiff_t>(from));
    order.insert(order.begin() + static_cast<std::ptrdiff_t>(to), v);
  }
}

/// Greedy nearest-neighbor seed: repeatedly appends the cluster whose best
/// vertex pairing with the current tail is maximal.
[[nodiscard]] inline std::vector<std::size_t> greedy_seed(
    const GtspInstance& inst, std::size_t start, Rng&) {
  const std::size_t m = inst.clusters.size();
  std::vector<bool> used(m, false);
  std::vector<std::size_t> order{start};
  used[start] = true;
  int tail = inst.clusters[start].front();
  for (std::size_t step = 1; step < m; ++step) {
    double best = -std::numeric_limits<double>::infinity();
    std::size_t best_cluster = m;
    int best_vertex = -1;
    for (std::size_t c = 0; c < m; ++c) {
      if (used[c]) continue;
      for (int v : inst.clusters[c]) {
        const double w = inst.weight(tail, v);
        if (w > best) {
          best = w;
          best_cluster = c;
          best_vertex = v;
        }
      }
    }
    order.push_back(best_cluster);
    used[best_cluster] = true;
    tail = best_vertex;
  }
  return order;
}

/// The historical lazy GA: the equivalence oracle for opt::solve_gtsp_ga.
[[nodiscard]] inline GtspSolution solve_gtsp_ga_reference(
    const GtspInstance& inst, Rng& rng, const GtspOptions& options = {}) {
  const std::size_t m = inst.clusters.size();
  GtspSolution best;
  if (m == 0) return best;
  for (const auto& c : inst.clusters) FEMTO_EXPECTS(!c.empty());
  if (m == 1) return cluster_dp(inst, {0});

  std::vector<std::vector<std::size_t>> pop;
  const int pop_size = std::max(4, options.population);
  for (std::size_t s = 0; s < std::min<std::size_t>(4, m); ++s)
    pop.push_back(greedy_seed(inst, s * (m / std::max<std::size_t>(1, 4)) % m,
                              rng));
  std::vector<std::size_t> base(m);
  for (std::size_t i = 0; i < m; ++i) base[i] = i;
  while (pop.size() < static_cast<std::size_t>(pop_size)) {
    rng.shuffle(base);
    pop.push_back(base);
  }

  std::vector<double> fitness(pop.size());
  const auto evaluate = [&](const std::vector<std::size_t>& order) {
    return cluster_dp(inst, order).value;
  };
  for (std::size_t i = 0; i < pop.size(); ++i) fitness[i] = evaluate(pop[i]);

  const auto tournament_pick = [&]() -> std::size_t {
    std::size_t winner = rng.index(pop.size());
    for (int t = 1; t < options.tournament; ++t) {
      const std::size_t rival = rng.index(pop.size());
      if (fitness[rival] > fitness[winner]) winner = rival;
    }
    return winner;
  };

  double best_fit = -std::numeric_limits<double>::infinity();
  std::vector<std::size_t> best_order;
  int stagnant = 0;
  for (int gen = 0;
       gen < options.generations && stagnant < options.stagnation_limit;
       ++gen) {
    for (std::size_t i = 0; i < pop.size(); ++i) {
      if (fitness[i] > best_fit) {
        best_fit = fitness[i];
        best_order = pop[i];
        stagnant = -1;
      }
    }
    ++stagnant;
    std::vector<std::vector<std::size_t>> next;
    std::vector<double> next_fit;
    next.push_back(best_order);
    next_fit.push_back(best_fit);
    while (next.size() < pop.size()) {
      const auto& pa = pop[tournament_pick()];
      const auto& pb = pop[tournament_pick()];
      auto child = order_crossover(pa, pb, rng);
      if (rng.uniform() < options.mutation_rate) mutate(child, rng);
      next_fit.push_back(evaluate(child));
      next.push_back(std::move(child));
    }
    pop = std::move(next);
    fitness = std::move(next_fit);
  }
  for (std::size_t i = 0; i < pop.size(); ++i)
    if (fitness[i] > best_fit) {
      best_fit = fitness[i];
      best_order = pop[i];
    }
  return cluster_dp(inst, best_order);
}

}  // namespace femto::oracle
