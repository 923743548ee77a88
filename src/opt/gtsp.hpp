// Generalized traveling salesman solver (paper Sec. III-B).
//
// Clusters partition the vertex set; a solution visits exactly one vertex
// per cluster. We *maximize* the summed weight of consecutive vertex pairs
// along a path (the CNOT savings), which matches the paper's construction
// after its weight * -1 trick.
//
// The solver is a genetic algorithm in the spirit of Silberholz & Bader
// (reference [21]): chromosomes are cluster orders bred with order crossover
// and segment-reversal mutation. For any fixed cluster order the optimal
// vertex choice per cluster is computed *exactly* by layered dynamic
// programming ("cluster optimization"), so the GA searches only the order
// space. A greedy nearest-neighbor seed accelerates convergence.
//
// Hot-path layout: the solver core runs on a GtspDense -- the pairwise
// weight materialized ONCE into a flat row-major matrix -- with every GA
// inner loop (cluster DP, order crossover, mutation, seeding) working over
// preallocated flat arrays in a reusable GtspWorkspace; after the first
// generation no inner iteration allocates or calls through a std::function.
// The GtspInstance (std::function weight) entry points are kept as
// compatibility adapters that materialize and delegate; they return
// bit-identical results (same RNG stream, same tie-breaks, same floating
// point sums) to the historical lazy solver, which survives as
// detail::solve_gtsp_ga_reference for the equivalence tests and the
// old-vs-new speedup bench.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace femto::opt {

struct GtspInstance {
  /// clusters[k] lists the global vertex ids of cluster k.
  std::vector<std::vector<int>> clusters;
  /// Pairwise weight (saving) between consecutive vertices; symmetric in our
  /// use but not required.
  std::function<double(int, int)> weight;
};

struct GtspSolution {
  std::vector<std::size_t> cluster_order;  // permutation of cluster indices
  std::vector<int> vertex_choice;          // chosen vertex per *ordered* slot
  double value = 0.0;                      // total path weight (maximized)
};

struct GtspOptions {
  int population = 32;
  int generations = 200;
  int tournament = 3;
  double mutation_rate = 0.35;
  int stagnation_limit = 60;  // stop early after this many flat generations
};

/// A GTSP instance with the pairwise weight materialized into a flat
/// row-major matrix. Build once (the only place the weight function -- or
/// any equivalent formula -- runs), then share READ-ONLY across solves and
/// threads: the solver core never writes it. Intra-cluster pairs are never
/// consulted by any solver path and stay 0.
struct GtspDense {
  std::vector<std::vector<int>> clusters;
  std::size_t num_vertices = 0;
  std::vector<double> weights;  // row-major num_vertices x num_vertices

  GtspDense() = default;

  /// Materializes `inst.weight` over every cross-cluster vertex pair.
  explicit GtspDense(const GtspInstance& inst) : clusters(inst.clusters) {
    allocate();
    for (std::size_t ci = 0; ci < clusters.size(); ++ci)
      for (std::size_t cj = 0; cj < clusters.size(); ++cj) {
        if (ci == cj) continue;
        for (int a : clusters[ci])
          for (int b : clusters[cj]) set_weight(a, b, inst.weight(a, b));
      }
  }

  /// Sizes `weights` from the cluster table (direct-build path: callers fill
  /// the cross-cluster entries themselves, e.g. core/sorting.hpp).
  void allocate() {
    num_vertices = 0;
    for (const auto& c : clusters)
      for (int v : c)
        num_vertices = std::max(num_vertices, static_cast<std::size_t>(v) + 1);
    weights.assign(num_vertices * num_vertices, 0.0);
  }

  void set_weight(int a, int b, double w) {
    weights[static_cast<std::size_t>(a) * num_vertices +
            static_cast<std::size_t>(b)] = w;
  }

  [[nodiscard]] double weight(int a, int b) const {
    return weights[static_cast<std::size_t>(a) * num_vertices +
                   static_cast<std::size_t>(b)];
  }
};

/// Reusable scratch for the dense GA. One workspace serves one solver call
/// chain at a time (NOT thread-safe); keep one per worker thread and every
/// solve after the first warms no allocator. A default-constructed
/// workspace is created on the stack when the caller passes none.
struct GtspWorkspace {
  std::vector<double> dp, dp_next;       // layered cluster DP values
  std::vector<int> back;                 // flat back-pointers, m x max cluster
  std::vector<std::size_t> pop, next_pop;  // flat populations, P x m
  std::vector<double> fitness, next_fitness;
  std::vector<std::size_t> base, best_order;
  std::vector<std::uint8_t> taken, used;
};

namespace detail {

/// Exact best vertex assignment for a fixed cluster order (layered DP).
/// Lazy std::function reference path; the dense overloads below are the hot
/// path.
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

/// Value of the exact cluster DP for a fixed order, without back-pointer
/// bookkeeping: what the GA evaluates every offspring with. Identical
/// floating-point sums and comparisons to the full DP, so the value is
/// bit-equal to cluster_dp(...).value.
[[nodiscard]] inline double cluster_dp_value(const GtspDense& inst,
                                             const std::size_t* order,
                                             std::size_t m,
                                             GtspWorkspace& ws) {
  if (m == 0) return 0.0;
  std::size_t cur_size = inst.clusters[order[0]].size();
  ws.dp.resize(std::max(ws.dp.size(), cur_size));
  std::fill(ws.dp.begin(), ws.dp.begin() + static_cast<std::ptrdiff_t>(cur_size),
            0.0);
  for (std::size_t k = 1; k < m; ++k) {
    const auto& prev = inst.clusters[order[k - 1]];
    const auto& cur = inst.clusters[order[k]];
    ws.dp_next.resize(std::max(ws.dp_next.size(), cur.size()));
    const double* row_base = inst.weights.data();
    for (std::size_t j = 0; j < cur.size(); ++j) {
      double best = -std::numeric_limits<double>::infinity();
      const std::size_t col = static_cast<std::size_t>(cur[j]);
      for (std::size_t i = 0; i < prev.size(); ++i) {
        const double v =
            ws.dp[i] +
            row_base[static_cast<std::size_t>(prev[i]) * inst.num_vertices +
                     col];
        if (v > best) best = v;
      }
      ws.dp_next[j] = best;
    }
    cur_size = cur.size();
    std::swap(ws.dp, ws.dp_next);
  }
  std::size_t best = 0;
  for (std::size_t j = 1; j < cur_size; ++j)
    if (ws.dp[j] > ws.dp[best]) best = j;
  return ws.dp[best];
}

/// Full dense cluster DP with backtracking (run once per returned solution).
[[nodiscard]] inline GtspSolution cluster_dp(const GtspDense& inst,
                                             const std::size_t* order,
                                             std::size_t m,
                                             GtspWorkspace& ws) {
  GtspSolution sol;
  sol.cluster_order.assign(order, order + m);
  if (m == 0) return sol;
  std::size_t max_cluster = 0;
  for (std::size_t k = 0; k < m; ++k)
    max_cluster = std::max(max_cluster, inst.clusters[order[k]].size());
  ws.dp.resize(std::max(ws.dp.size(), max_cluster));
  ws.dp_next.resize(std::max(ws.dp_next.size(), max_cluster));
  ws.back.assign(m * max_cluster, 0);
  std::size_t cur_size = inst.clusters[order[0]].size();
  std::fill(ws.dp.begin(), ws.dp.begin() + static_cast<std::ptrdiff_t>(cur_size),
            0.0);
  for (std::size_t k = 1; k < m; ++k) {
    const auto& prev = inst.clusters[order[k - 1]];
    const auto& cur = inst.clusters[order[k]];
    int* back_row = ws.back.data() + k * max_cluster;
    for (std::size_t j = 0; j < cur.size(); ++j) {
      double best = -std::numeric_limits<double>::infinity();
      int best_i = 0;
      const std::size_t col = static_cast<std::size_t>(cur[j]);
      for (std::size_t i = 0; i < prev.size(); ++i) {
        const double v =
            ws.dp[i] +
            inst.weights[static_cast<std::size_t>(prev[i]) *
                             inst.num_vertices +
                         col];
        if (v > best) {
          best = v;
          best_i = static_cast<int>(i);
        }
      }
      ws.dp_next[j] = best;
      back_row[j] = best_i;
    }
    cur_size = cur.size();
    std::swap(ws.dp, ws.dp_next);
  }
  std::size_t best = 0;
  for (std::size_t j = 1; j < cur_size; ++j)
    if (ws.dp[j] > ws.dp[best]) best = j;
  sol.value = ws.dp[best];
  sol.vertex_choice.assign(m, 0);
  std::size_t cursor = best;
  for (std::size_t k = m; k-- > 0;) {
    sol.vertex_choice[k] = inst.clusters[order[k]][cursor];
    if (k > 0) cursor = static_cast<std::size_t>(ws.back[k * max_cluster + cursor]);
  }
  return sol;
}

/// Order crossover (OX) for permutations (reference path).
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

/// Order crossover writing into a preallocated child row (same draws and
/// same result as the reference order_crossover).
inline void order_crossover_into(const std::size_t* a, const std::size_t* b,
                                 std::size_t m, std::size_t* child,
                                 std::uint8_t* taken, Rng& rng) {
  if (m < 2) {
    std::copy(a, a + m, child);
    return;
  }
  std::size_t lo = rng.index(m), hi = rng.index(m);
  if (lo > hi) std::swap(lo, hi);
  std::fill(child, child + m, m);
  std::fill(taken, taken + m, std::uint8_t{0});
  for (std::size_t k = lo; k <= hi; ++k) {
    child[k] = a[k];
    taken[a[k]] = 1;
  }
  std::size_t cursor = 0;
  for (std::size_t k = 0; k < m; ++k) {
    if (child[k] != m) continue;
    while (taken[b[cursor]]) ++cursor;
    child[k] = b[cursor];
    taken[b[cursor]] = 1;
  }
}

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

/// In-place mutation on a flat row; the relocation branch reproduces the
/// reference's erase + insert pair with two shifts.
inline void mutate_span(std::size_t* order, std::size_t m, Rng& rng) {
  if (m < 2) return;
  if (rng.bernoulli(0.5)) {
    std::size_t lo = rng.index(m), hi = rng.index(m);
    if (lo > hi) std::swap(lo, hi);
    std::reverse(order + lo, order + hi + 1);
  } else {
    const std::size_t from = rng.index(m);
    const std::size_t to = rng.index(m);
    const std::size_t v = order[from];
    if (from < to)
      std::move(order + from + 1, order + to + 1, order + from);
    else
      std::move_backward(order + to, order + from, order + from + 1);
    order[to] = v;
  }
}

/// Greedy nearest-neighbor seed: repeatedly appends the cluster whose best
/// vertex pairing with the current tail is maximal (reference path).
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

/// Dense greedy seed writing into a preallocated order row.
inline void greedy_seed_into(const GtspDense& inst, std::size_t start,
                             std::size_t* order, std::uint8_t* used) {
  const std::size_t m = inst.clusters.size();
  std::fill(used, used + m, std::uint8_t{0});
  order[0] = start;
  used[start] = 1;
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
    order[step] = best_cluster;
    used[best_cluster] = 1;
    tail = best_vertex;
  }
}

/// The historical lazy (std::function-per-edge) GA, preserved verbatim as
/// the equivalence oracle for the dense solver: tests assert bit-identical
/// GtspSolutions and bench_compile_hot reports the old-vs-new speedup.
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

}  // namespace detail

/// Maximizes total consecutive-pair weight over cluster orders and vertex
/// choices (path version of GTSP): the dense, allocation-free GA core.
/// Draws the exact RNG stream of the historical lazy solver and applies
/// identical tie-breaks, so results are bit-identical to
/// detail::solve_gtsp_ga_reference on the materialized instance.
[[nodiscard]] inline GtspSolution solve_gtsp_ga(
    const GtspDense& inst, Rng& rng, const GtspOptions& options = {},
    GtspWorkspace* workspace = nullptr) {
  const std::size_t m = inst.clusters.size();
  GtspSolution best;
  if (m == 0) return best;
  // Coarse solver observability: ONE span per GA solve (never per
  // generation), so tracing stays cheap even when sorting calls this per
  // segment.
  obs::Span span("gtsp_ga", "solver");
  span.arg("clusters", m);
  span.arg("generations", options.generations);
  span.arg("population", options.population);
  static obs::Counter& solves =
      obs::registry().counter("solver.gtsp_solves");
  static obs::Counter& generations =
      obs::registry().counter("solver.gtsp_generations");
  solves.inc();
  generations.inc(static_cast<std::uint64_t>(
      options.generations > 0 ? options.generations : 0));
  for (const auto& c : inst.clusters) FEMTO_EXPECTS(!c.empty());
  GtspWorkspace local;
  GtspWorkspace& ws = workspace != nullptr ? *workspace : local;
  if (m == 1) {
    const std::size_t order0 = 0;
    return detail::cluster_dp(inst, &order0, 1, ws);
  }

  const std::size_t pop_size =
      static_cast<std::size_t>(std::max(4, options.population));
  ws.pop.resize(pop_size * m);
  ws.next_pop.resize(pop_size * m);
  ws.fitness.resize(pop_size);
  ws.next_fitness.resize(pop_size);
  ws.used.resize(m);
  ws.taken.resize(m);
  ws.base.resize(m);
  ws.best_order.assign(m, 0);

  // Seed population: greedy tours from a few anchors + random permutations.
  std::size_t filled = 0;
  for (std::size_t s = 0; s < std::min<std::size_t>(4, m); ++s)
    detail::greedy_seed_into(inst,
                             s * (m / std::max<std::size_t>(1, 4)) % m,
                             ws.pop.data() + (filled++) * m, ws.used.data());
  std::iota(ws.base.begin(), ws.base.end(), std::size_t{0});
  while (filled < pop_size) {
    std::shuffle(ws.base.begin(), ws.base.end(), rng.engine());
    std::copy(ws.base.begin(), ws.base.end(), ws.pop.data() + (filled++) * m);
  }

  for (std::size_t i = 0; i < pop_size; ++i)
    ws.fitness[i] = detail::cluster_dp_value(inst, ws.pop.data() + i * m, m, ws);

  const auto tournament_pick = [&]() -> std::size_t {
    std::size_t winner = rng.index(pop_size);
    for (int t = 1; t < options.tournament; ++t) {
      const std::size_t rival = rng.index(pop_size);
      if (ws.fitness[rival] > ws.fitness[winner]) winner = rival;
    }
    return winner;
  };

  double best_fit = -std::numeric_limits<double>::infinity();
  int stagnant = 0;
  for (int gen = 0;
       gen < options.generations && stagnant < options.stagnation_limit;
       ++gen) {
    // Track the elite.
    for (std::size_t i = 0; i < pop_size; ++i) {
      if (ws.fitness[i] > best_fit) {
        best_fit = ws.fitness[i];
        std::copy(ws.pop.data() + i * m, ws.pop.data() + (i + 1) * m,
                  ws.best_order.begin());
        stagnant = -1;
      }
    }
    ++stagnant;
    // Next generation: elitism + offspring, written straight into the
    // ping-pong buffer (no per-generation allocation).
    std::copy(ws.best_order.begin(), ws.best_order.end(), ws.next_pop.data());
    ws.next_fitness[0] = best_fit;
    for (std::size_t slot = 1; slot < pop_size; ++slot) {
      const std::size_t* pa = ws.pop.data() + tournament_pick() * m;
      const std::size_t* pb = ws.pop.data() + tournament_pick() * m;
      std::size_t* child = ws.next_pop.data() + slot * m;
      detail::order_crossover_into(pa, pb, m, child, ws.taken.data(), rng);
      if (rng.uniform() < options.mutation_rate)
        detail::mutate_span(child, m, rng);
      ws.next_fitness[slot] = detail::cluster_dp_value(inst, child, m, ws);
    }
    std::swap(ws.pop, ws.next_pop);
    std::swap(ws.fitness, ws.next_fitness);
  }
  for (std::size_t i = 0; i < pop_size; ++i)
    if (ws.fitness[i] > best_fit) {
      best_fit = ws.fitness[i];
      std::copy(ws.pop.data() + i * m, ws.pop.data() + (i + 1) * m,
                ws.best_order.begin());
    }
  return detail::cluster_dp(inst, ws.best_order.data(), m, ws);
}

/// Compatibility adapter: materializes the weight function once, then runs
/// the dense core. Bit-identical to the historical lazy solver.
[[nodiscard]] inline GtspSolution solve_gtsp_ga(const GtspInstance& inst,
                                                Rng& rng,
                                                const GtspOptions& options = {}) {
  if (inst.clusters.empty()) return {};
  const GtspDense dense(inst);
  return solve_gtsp_ga(dense, rng, options);
}

/// Pure greedy baseline (used by ablation bench E3).
[[nodiscard]] inline GtspSolution solve_gtsp_greedy(const GtspInstance& inst,
                                                    Rng& rng) {
  if (inst.clusters.empty()) return {};
  return detail::cluster_dp(inst, detail::greedy_seed(inst, 0, rng));
}

/// Random-order baseline (ablation lower bar): dense evaluation, one matrix
/// build for all tries.
[[nodiscard]] inline GtspSolution solve_gtsp_random(const GtspInstance& inst,
                                                    Rng& rng, int tries = 50) {
  const std::size_t m = inst.clusters.size();
  GtspSolution best;
  best.value = -std::numeric_limits<double>::infinity();
  if (m == 0) {
    // Preserve the historical shape: tries shuffles of an empty order.
    for (int t = 0; t < tries; ++t) {
      GtspSolution sol;
      if (sol.value > best.value) best = std::move(sol);
    }
    return best;
  }
  const GtspDense dense(inst);
  GtspWorkspace ws;
  std::vector<std::size_t> order(m);
  for (std::size_t i = 0; i < m; ++i) order[i] = i;
  for (int t = 0; t < tries; ++t) {
    rng.shuffle(order);
    GtspSolution sol = detail::cluster_dp(dense, order.data(), m, ws);
    if (sol.value > best.value) best = std::move(sol);
  }
  return best;
}

}  // namespace femto::opt
