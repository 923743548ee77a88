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
// Hot-path layout: the solver runs on a GtspDense -- the pairwise weight
// materialized ONCE into a flat row-major matrix, each cluster's vertices
// numbered consecutively -- with every GA inner loop (cluster DP, order
// crossover, mutation, seeding) working over preallocated flat arrays in a
// reusable GtspWorkspace; after the first generation no inner iteration
// allocates. Evolution spends its time in the value-only cluster DP, so:
//
//  * a child that equals one of its parents element for element (about
//    half of all offspring) takes that parent's fitness instead of a DP;
//  * the DP relaxes one layer a contiguous weight row at a time: each
//    vertex of the previous cluster pushes its value across the slice of
//    its row that holds the next cluster, four lanes at once under AVX2
//    (common/simd.hpp; the portable loop is the reference).
//
// Its results (RNG stream, tie-breaks, floating-point sums) are
// bit-identical to the historical lazy solver, which
// tests/support/gtsp_oracle.hpp keeps as the test oracle, at every SIMD
// level.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#if FEMTO_SIMD_X86
#include <immintrin.h>
#endif

namespace femto::opt {

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

/// Lanes the cluster DP relaxes at once. A lane group may run up to
/// kGtspLanes - 1 vertices past the end of a cluster, so the weight matrix
/// and the DP rows carry that many doubles of slack.
inline constexpr std::size_t kGtspLanes = 4;

/// A GTSP instance with the pairwise weight materialized into a flat
/// row-major matrix. Build once, then share READ-ONLY across solves and
/// threads: the solver core never writes it. Intra-cluster pairs are never
/// consulted by any solver path and stay 0.
///
/// Each cluster's vertex ids must be consecutive (v, v + 1, ...), so that
/// the weights from one vertex to a whole cluster are one contiguous slice
/// of its row; allocate() refuses any other layout. sort_advanced numbers
/// its vertices that way.
struct GtspDense {
  /// clusters[k] lists the global vertex ids of cluster k.
  std::vector<std::vector<int>> clusters;
  std::size_t num_vertices = 0;
  /// Row-major num_vertices x num_vertices, then kGtspLanes - 1 zeros of
  /// slack for the last row's tail load.
  std::vector<double> weights;

  /// Checks the cluster layout and sizes `weights` from it; callers then
  /// fill the cross-cluster entries (e.g. core/sorting.hpp).
  void allocate() {
    num_vertices = 0;
    for (const auto& c : clusters) {
      for (std::size_t k = 1; k < c.size(); ++k)
        FEMTO_EXPECTS(c[k] == c[0] + static_cast<int>(k) &&
                      "GtspDense: each cluster's ids must be consecutive");
      for (int v : c)
        num_vertices = std::max(num_vertices, static_cast<std::size_t>(v) + 1);
    }
    weights.assign(num_vertices * num_vertices + kGtspLanes - 1, 0.0);
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
  std::vector<double> dp, dp_next;       // layered DP values + lane slack
  std::vector<int> back;                 // flat back-pointers, m x max cluster
  std::vector<std::size_t> pop, next_pop;  // flat populations, P x m
  std::vector<double> fitness, next_fitness;
  std::vector<std::size_t> base, best_order;
  std::vector<std::uint8_t> taken, used;
};

namespace detail {

// ---- value-only cluster DP ------------------------------------------------
//
// One layer of the DP, from cluster `prev` to cluster `cur` of the order,
// is out[j] = max_i dp[i] + w[prev[i]][cur[j]], with i ascending and a
// strict improvement from -inf, exactly as the lazy DP scans it. Both
// clusters are consecutive ids, so w[prev[i]][cur[0] + j] is row i of a
// `rows` x `width` block with stride num_vertices, and a layer relaxes it a
// contiguous row at a time. Every out[j] still sees its i in ascending
// order through the same single add, so every maximum is the same.

inline void relax_rows_portable(const double* dp, std::size_t rows,
                                const double* w, std::size_t stride,
                                std::size_t width, double* out) {
  std::fill(out, out + width, -std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < rows; ++i) {
    const double base = dp[i];
    const double* row = w + i * stride;
    for (std::size_t j = 0; j < width; ++j) {
      const double v = base + row[j];
      if (v > out[j]) out[j] = v;
    }
  }
}

#if FEMTO_SIMD_X86
// _mm256_max_pd(v, best) is v > best ? v : best lane by lane -- the scalar
// strict-improvement update, down to which operand a tie, a signed zero or a
// NaN returns. Lanes past `width` read the next entries of the row (or the
// matrix's slack) and land in out's slack; nothing reads them.
__attribute__((target("avx2"))) inline void relax_rows_avx2(
    const double* dp, std::size_t rows, const double* w, std::size_t stride,
    std::size_t width, double* out) {
  for (std::size_t j0 = 0; j0 < width; j0 += kGtspLanes) {
    __m256d best = _mm256_set1_pd(-std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < rows; ++i) {
      const __m256d v = _mm256_add_pd(_mm256_set1_pd(dp[i]),
                                      _mm256_loadu_pd(w + i * stride + j0));
      best = _mm256_max_pd(v, best);
    }
    _mm256_storeu_pd(out + j0, best);
  }
}
#endif  // FEMTO_SIMD_X86

/// One DP layer (common/simd.hpp dispatch). `out` has room for `width`
/// rounded up to kGtspLanes, and `w` for the last lane group's tail.
/// Bit-identical at every level.
inline void relax_rows(const double* dp, std::size_t rows, const double* w,
                       std::size_t stride, std::size_t width, double* out) {
#if FEMTO_SIMD_X86
  if (simd::level() == simd::Level::kAvx2) {
    relax_rows_avx2(dp, rows, w, stride, width, out);
    return;
  }
#endif
  relax_rows_portable(dp, rows, w, stride, width, out);
}

/// `size` rounded up to whole lane groups: the room a DP row needs.
[[nodiscard]] inline std::size_t lane_padded(std::size_t size) {
  return (size + kGtspLanes - 1) / kGtspLanes * kGtspLanes;
}

/// Value of the exact cluster DP for a fixed order, without back-pointer
/// bookkeeping: what the GA evaluates every new offspring with. The same
/// floating-point sums and comparisons as the full DP, so the value is
/// bit-equal to cluster_dp(...).value.
[[nodiscard]] inline double cluster_dp_value(const GtspDense& inst,
                                             const std::size_t* order,
                                             std::size_t m,
                                             GtspWorkspace& ws) {
  if (m == 0) return 0.0;
  std::size_t cur_size = inst.clusters[order[0]].size();
  ws.dp.resize(std::max(ws.dp.size(), lane_padded(cur_size)));
  std::fill(ws.dp.begin(), ws.dp.begin() + static_cast<std::ptrdiff_t>(cur_size),
            0.0);
  for (std::size_t k = 1; k < m; ++k) {
    const auto& prev = inst.clusters[order[k - 1]];
    const auto& cur = inst.clusters[order[k]];
    ws.dp_next.resize(std::max(ws.dp_next.size(), lane_padded(cur.size())));
    relax_rows(ws.dp.data(), prev.size(),
               inst.weights.data() +
                   static_cast<std::size_t>(prev.front()) * inst.num_vertices +
                   static_cast<std::size_t>(cur.front()),
               inst.num_vertices, cur.size(), ws.dp_next.data());
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

/// Order crossover (OX) for permutations, writing into a preallocated child
/// row.
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

/// In-place mutation on a flat row: segment reversal (2-opt style) or the
/// relocation of one cluster, done as two shifts.
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
/// vertex pairing with the current tail is maximal. Writes into a
/// preallocated order row.
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

}  // namespace detail

/// Maximizes total consecutive-pair weight over cluster orders and vertex
/// choices (path version of GTSP): the dense, allocation-free GA core.
/// Draws the exact RNG stream of the historical lazy solver and applies
/// identical tie-breaks, so results are bit-identical to the oracle in
/// tests/support/gtsp_oracle.hpp on the same weights.
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
  span.arg("population", options.population);
  static obs::Counter& solves =
      obs::registry().counter("solver.gtsp_solves");
  static obs::Counter& generations =
      obs::registry().counter("solver.gtsp_generations");
  solves.inc();
  for (const auto& c : inst.clusters) FEMTO_EXPECTS(!c.empty());
  GtspWorkspace local;
  GtspWorkspace& ws = workspace != nullptr ? *workspace : local;
  if (m == 1) {
    span.arg("generations", 0);
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
  int gen = 0;
  for (; gen < options.generations && stagnant < options.stagnation_limit;
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
      const std::size_t ia = tournament_pick();
      const std::size_t ib = tournament_pick();
      const std::size_t* pa = ws.pop.data() + ia * m;
      const std::size_t* pb = ws.pop.data() + ib * m;
      std::size_t* child = ws.next_pop.data() + slot * m;
      detail::order_crossover_into(pa, pb, m, child, ws.taken.data(), rng);
      if (rng.uniform() < options.mutation_rate)
        detail::mutate_span(child, m, rng);
      // The DP is a pure function of the order: a clone keeps its parent's
      // fitness, bit for bit.
      if (std::equal(child, child + m, pa))
        ws.next_fitness[slot] = ws.fitness[ia];
      else if (std::equal(child, child + m, pb))
        ws.next_fitness[slot] = ws.fitness[ib];
      else
        ws.next_fitness[slot] = detail::cluster_dp_value(inst, child, m, ws);
    }
    std::swap(ws.pop, ws.next_pop);
    std::swap(ws.fitness, ws.next_fitness);
  }
  generations.inc(static_cast<std::uint64_t>(gen));
  span.arg("generations", gen);
  for (std::size_t i = 0; i < pop_size; ++i)
    if (ws.fitness[i] > best_fit) {
      best_fit = ws.fitness[i];
      std::copy(ws.pop.data() + i * m, ws.pop.data() + (i + 1) * m,
                ws.best_order.begin());
    }
  return detail::cluster_dp(inst, ws.best_order.data(), m, ws);
}

/// Pure greedy baseline: the GA's first seed alone, with its exact vertex
/// choice (an ablation baseline of bench_solvers and test_opt).
[[nodiscard]] inline GtspSolution solve_gtsp_greedy(const GtspDense& inst) {
  const std::size_t m = inst.clusters.size();
  if (m == 0) return {};
  GtspWorkspace ws;
  ws.used.resize(m);
  std::vector<std::size_t> order(m);
  detail::greedy_seed_into(inst, 0, order.data(), ws.used.data());
  return detail::cluster_dp(inst, order.data(), m, ws);
}

/// Random-order baseline (ablation lower bar): the best of `tries` shuffled
/// cluster orders, each with its exact vertex choice.
[[nodiscard]] inline GtspSolution solve_gtsp_random(const GtspDense& inst,
                                                    Rng& rng, int tries = 50) {
  const std::size_t m = inst.clusters.size();
  if (m == 0) return {};
  GtspSolution best;
  best.value = -std::numeric_limits<double>::infinity();
  GtspWorkspace ws;
  std::vector<std::size_t> order(m);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (int t = 0; t < tries; ++t) {
    rng.shuffle(order);
    GtspSolution sol = detail::cluster_dp(inst, order.data(), m, ws);
    if (sol.value > best.value) best = std::move(sol);
  }
  return best;
}

}  // namespace femto::opt
