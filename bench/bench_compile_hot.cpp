// Compile hot-path bench: production kernels timed forced-portable vs the
// best SIMD dispatch level in the same process, so the ratio is
// machine-independent and CI-gateable with an absolute floor
// (tools/check_bench.py):
//
//   simd_gtsp_speedup       solve_gtsp_ga on seeded, production-shaped
//                           instances (48 clusters of 2-10 consecutive
//                           vertices, integer weights), portable vs best
//                           level: the cluster DP's lanes. Gated >= 1.5x.
//   simd_bit_identical      1 iff both levels produce the same GTSP
//                           solutions (order, choice, value bits). Pinned
//                           exactly.
//
// The incremental Gamma objective is checked bit-identical to its test-only
// oracle by tests/test_compile_hot.cpp and timed end to end by perfbench.
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_harness.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
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

  // ---- GTSP GA: forced-portable vs best SIMD level ------------------------
  // Whole solves, so the ratio covers what the lanes buy a solve, not the
  // kernel alone. Every level must return the same solutions bit for bit.
  const simd::Level simd_best = simd::max_supported();
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

  const double identical = gtsp_identical ? 1.0 : 0.0;
  h.section("compile_hot/speedups");
  h.metric("simd_gtsp_speedup", t_gtsp_portable / t_gtsp_best);
  h.metric("simd_bit_identical", identical);
  h.metric("info_simd_level", static_cast<double>(simd_best));
  std::printf("[bench] gtsp simd %.1fx (identical: %.0f)\n",
              t_gtsp_portable / t_gtsp_best, identical);
  return h.write_json() ? 0 : 1;
}
