// Compile hot-path bench: production kernels timed forced-portable vs the
// best SIMD dispatch level in the same process, so each ratio is
// machine-independent and CI-gateable with an absolute floor
// (tools/check_bench.py):
//
//   simd_wordops_speedup    support_counts / and_popcount / and_parity over
//                           1024-bit vectors, portable vs best level.
//                           Gated >= 1.5x.
//   simd_gtsp_speedup       solve_gtsp_ga on seeded, production-shaped
//                           instances (48 clusters of 2-10 consecutive
//                           vertices, integer weights), portable vs best
//                           level: the cluster DP's lanes. Gated >= 1.5x.
//   simd_bit_identical      1 iff both levels produce the same integer
//                           sums and the same GTSP solutions (order,
//                           choice, value bits). Pinned exactly.
//
// The incremental Gamma objective is checked bit-identical to its test-only
// oracle by tests/test_compile_hot.cpp and timed end to end by perfbench.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_harness.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "gf2/wordops.hpp"
#include "opt/gtsp.hpp"

namespace {

using namespace femto;

/// Shaped like sort_advanced's largest solves: 48 clusters (strings) of 2-10
/// consecutive vertices (targets), integer weights (an interface saving
/// plus a routing bonus <= 0).
opt::GtspDense production_shaped_instance(Rng& rng) {
  opt::GtspDense inst;
  int next = 0;
  for (std::size_t c = 0; c < 48; ++c) {
    std::vector<int> cluster;
    const std::size_t size = 2 + rng.index(9);
    for (std::size_t v = 0; v < size; ++v) cluster.push_back(next++);
    inst.clusters.push_back(std::move(cluster));
  }
  inst.allocate();
  for (const auto& from : inst.clusters)
    for (const auto& to : inst.clusters)
      if (&from != &to)
        for (int a : from)
          for (int b : to)
            inst.set_weight(a, b, static_cast<double>(rng.range(-3, 6)));
  return inst;
}

}  // namespace

int main() {
  using namespace femto;
  bench::Harness h("compile_hot");

  // ---- gf2 word-op reductions: forced-portable vs best SIMD level --------
  // The popcount/parity reductions behind the cost model (support_counts is
  // THE inner loop of interface_saving). 1024-bit vectors (16 words) -- wide
  // enough that the word loop dominates, the shape large encodings actually
  // hit. Same kernels both times; only simd::set_level differs, so the
  // ratio is machine-portable.
  const simd::Level simd_best = simd::max_supported();
  // The word count is deliberately loaded through a volatile: as a
  // compile-time constant GCC fully peels the kernels' tail loops and trips
  // -Werror=aggressive-loop-optimizations.
  volatile std::size_t words_opaque = 16;
  const std::size_t kWords = words_opaque;
  constexpr std::size_t kVecs = 256;
  std::vector<std::uint64_t> pool(kWords * kVecs);
  {
    Rng wrng(97);
    for (auto& w : pool)
      w = (static_cast<std::uint64_t>(wrng.index(1u << 31)) << 33) ^
          (static_cast<std::uint64_t>(wrng.index(1u << 31)) << 2) ^
          wrng.index(4);
  }
  const auto vec = [&](std::size_t i) { return pool.data() + kWords * i; };
  std::uint64_t wordops_sum = 0;
  const auto wordops_workload = [&] {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kVecs; ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        const gf2::wordops::SupportCounts sc = gf2::wordops::support_counts(
            vec(i), vec(j), vec((i + 7) % kVecs), vec((j + 11) % kVecs),
            kWords);
        acc += static_cast<std::uint64_t>(sc.common) * 3 +
               static_cast<std::uint64_t>(sc.equal) + (sc.has_xy ? 1 : 0);
        acc += gf2::wordops::and_popcount(vec(i), vec(j), kWords);
        acc += gf2::wordops::and_parity(vec(j), vec((i + 7) % kVecs), kWords)
                   ? 2
                   : 0;
      }
    }
    wordops_sum = acc;
  };
  FEMTO_ASSERT(simd::set_level(simd::Level::kPortable) ==
               simd::Level::kPortable);
  const double t_words_portable =
      h.run("compile_hot/wordops_1024b_portable", 5, wordops_workload);
  const std::uint64_t sum_portable = wordops_sum;
  FEMTO_ASSERT(simd::set_level(simd_best) == simd_best);
  const double t_words_best =
      h.run("compile_hot/wordops_1024b_best", 5, wordops_workload);
  // Integer reductions: every level must agree EXACTLY, not just closely.
  const double wordops_identical = wordops_sum == sum_portable ? 1.0 : 0.0;

  // ---- GTSP GA: forced-portable vs best SIMD level ------------------------
  // Whole solves, so the ratio covers what the lanes buy a solve, not the
  // kernel alone. Every level must return the same solutions bit for bit.
  std::vector<opt::GtspDense> instances;
  {
    Rng grng(211);
    for (int k = 0; k < 4; ++k)
      instances.push_back(production_shaped_instance(grng));
  }
  opt::GtspWorkspace gtsp_ws;
  std::vector<opt::GtspSolution> solutions;
  const auto gtsp_workload = [&] {
    solutions.clear();
    for (std::size_t k = 0; k < instances.size(); ++k) {
      Rng rng(300 + k);
      solutions.push_back(
          opt::solve_gtsp_ga(instances[k], rng, {}, &gtsp_ws));
    }
  };
  FEMTO_ASSERT(simd::set_level(simd::Level::kPortable) ==
               simd::Level::kPortable);
  const double t_gtsp_portable =
      h.run("compile_hot/gtsp_portable", 7, gtsp_workload);
  const std::vector<opt::GtspSolution> solutions_portable = solutions;
  FEMTO_ASSERT(simd::set_level(simd_best) == simd_best);
  const double t_gtsp_best = h.run("compile_hot/gtsp_best", 7, gtsp_workload);
  bool gtsp_identical = solutions.size() == solutions_portable.size();
  for (std::size_t k = 0; gtsp_identical && k < solutions.size(); ++k)
    gtsp_identical =
        solutions[k].cluster_order == solutions_portable[k].cluster_order &&
        solutions[k].vertex_choice == solutions_portable[k].vertex_choice &&
        std::memcmp(&solutions[k].value, &solutions_portable[k].value,
                    sizeof(double)) == 0;

  const double identical = wordops_identical == 1.0 && gtsp_identical ? 1.0
                                                                       : 0.0;
  h.section("compile_hot/speedups");
  h.metric("simd_wordops_speedup", t_words_portable / t_words_best);
  h.metric("simd_gtsp_speedup", t_gtsp_portable / t_gtsp_best);
  h.metric("simd_bit_identical", identical);
  h.metric("info_simd_level", static_cast<double>(simd_best));
  std::printf("[bench] wordops simd %.1fx, gtsp simd %.1fx (identical: %.0f)\n",
              t_words_portable / t_words_best, t_gtsp_portable / t_gtsp_best,
              identical);
  return h.write_json() ? 0 : 1;
}
