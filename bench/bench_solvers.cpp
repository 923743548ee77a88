// Experiment E6: solver micro-benchmarks.
//
//  - GTSP: GA vs the greedy and random-order ablation baselines of
//    opt/gtsp.hpp on synthetic clustered instances, built straight into the
//    dense weight matrix the solvers take (solution quality and wall time
//    of the solve alone). Restarts of whole compiles are core/pipeline.hpp's
//    job and are measured by bench_pipeline.
//  - Simulated annealing schedule sweep on a rugged test function.
//  - Linear-reversible synthesis: PMH vs plain Gaussian elimination CNOT
//    counts (the PMH dedup should win as n grows; paper reference [26]).
#include <cmath>
#include <cstdio>
#include <string>

#include "bench_harness.hpp"

#include "bench_fixtures.hpp"
#include "common/rng.hpp"
#include "core/rotation_blocks.hpp"
#include "core/sorting.hpp"
#include "gf2/linear_synthesis.hpp"
#include "opt/gtsp.hpp"
#include "opt/simulated_annealing.hpp"
#include "synth/target.hpp"
#include "transform/linear_encoding.hpp"

namespace {

using namespace femto;

/// `clusters` clusters of `k` consecutive vertices; every cross-cluster pair
/// is weighted by a fixed hash of its endpoints.
opt::GtspDense random_instance(std::size_t clusters, std::size_t k) {
  opt::GtspDense inst;
  int next = 0;
  for (std::size_t c = 0; c < clusters; ++c) {
    std::vector<int> cluster;
    for (std::size_t v = 0; v < k; ++v) cluster.push_back(next++);
    inst.clusters.push_back(cluster);
  }
  inst.allocate();
  const int kk = static_cast<int>(k);
  for (int a = 0; a < next; ++a)
    for (int b = 0; b < next; ++b) {
      if (a / kk == b / kk) continue;  // intra-cluster pairs stay 0
      const unsigned h = static_cast<unsigned>(a * 2654435761u) ^
                         static_cast<unsigned>(b * 40503u);
      inst.set_weight(a, b, static_cast<double>(h % 997) / 100.0);
    }
  return inst;
}

}  // namespace

int main() {
  bench::Harness h("solvers");
  for (std::size_t clusters : {16, 48}) {
    const auto inst = random_instance(clusters, 4);
    const auto bench_one = [&](const char* name, auto&& solve) {
      double value = 0;
      h.run(std::string("gtsp/") + name + "_" + std::to_string(clusters), 3,
            [&] {
              Rng rng(7);
              value = solve(rng);
            });
      h.metric("value", value);
    };
    bench_one("ga", [&](Rng& r) { return opt::solve_gtsp_ga(inst, r).value; });
    bench_one("greedy",
              [&](Rng&) { return opt::solve_gtsp_greedy(inst).value; });
    bench_one("random",
              [&](Rng& r) { return opt::solve_gtsp_random(inst, r, 50).value; });
  }
  for (std::size_t n : {8, 16, 32, 64}) {
    Rng rng(11);
    const auto m = gf2::Matrix::random_invertible(n, rng);
    std::size_t gates = 0;
    h.run("pmh_synthesis/n" + std::to_string(n), 5,
          [&] { gates = gf2::synthesize_pmh(m).size(); });
    h.metric("cnots", static_cast<double>(gates));
  }

  std::printf("\n# E6a GTSP solution quality (higher is better)\n");
  std::printf("%9s %8s %8s %8s\n", "clusters", "ga", "greedy", "random");
  for (std::size_t m : {12, 24, 48, 96}) {
    const auto inst = random_instance(m, 4);
    Rng r1(3), r3(3);
    std::printf("%9zu %8.1f %8.1f %8.1f\n", m,
                opt::solve_gtsp_ga(inst, r1).value,
                opt::solve_gtsp_greedy(inst).value,
                opt::solve_gtsp_random(inst, r3, 50).value);
  }

  std::printf("\n# E6b SA cooling-schedule sweep: f(x)=(x-17)^2/10+3 sin x\n");
  std::printf("%8s %8s %12s\n", "steps", "t0", "best-f");
  for (const auto& [steps, t0] : {std::pair{200, 1.0}, {200, 5.0},
                                 {2000, 1.0}, {2000, 5.0}, {8000, 5.0}}) {
    Rng rng(5);
    const auto energy = [](const int& x) {
      return (x - 17) * (x - 17) / 10.0 + 3.0 * std::sin(double(x));
    };
    const auto propose = [](const int& x, Rng& r) { return x + r.range(-3, 3); };
    opt::SaOptions sa;
    sa.steps = steps;
    sa.t_initial = t0;
    sa.t_final = 0.01;
    const auto res = opt::simulated_annealing<int>(100, energy, propose, rng, sa);
    std::printf("%8d %8.1f %12.4f\n", steps, t0, res.best_energy);
    h.section("sa/steps" + std::to_string(steps) + "_t" +
              std::to_string(static_cast<int>(t0)));
    h.metric("best_energy", res.best_energy);
  }

  // E6d: the GTSP sorter on a REAL instance -- the water(8) Jordan-Wigner
  // rotation blocks from the shared molecule fixture (bench_fixtures.hpp) --
  // under the all-to-all CNOT model and the trapped-ion XX device model
  // (target-parameterized edge weights, synth/target.hpp).
  {
    const auto& f = bench::water_terms(8);
    std::vector<synth::RotationBlock> blocks;
    int param = 0;
    for (const auto& term : f.terms) {
      const pauli::PauliSum g = transform::jw_map(f.n, term.generator());
      for (auto& b : core::blocks_from_generator(g, param))
        blocks.push_back(std::move(b));
      ++param;
    }
    const synth::HardwareTarget xx = synth::HardwareTarget::trapped_ion_xx();
    const synth::HardwareTarget nn = synth::HardwareTarget::linear_nn(f.n);
    std::vector<synth::RotationBlock> sorted, sorted_nn;
    h.run("gtsp/water8_jw", 3, [&] {
      Rng rng(17);
      sorted = core::sort_advanced(blocks, rng);
    });
    h.metric("unsorted_cnots", synth::sequence_model_cost(blocks));
    h.metric("sorted_saving", synth::sequence_model_cost(blocks) -
                                  synth::sequence_model_cost(sorted));
    // The same order re-costed in trapped-ion pulses (min of the two exact
    // lowering forms -- what the compiler emits for the XX target).
    h.metric("sorted_pulses_saving",
             synth::sequence_model_cost(blocks, xx) -
                 synth::sequence_model_cost(sorted, xx));
    // Connectivity-constrained sort: distance-aware device weights
    // (target-choice bonus + device savings) on the nearest-neighbor chain.
    h.run("gtsp/water8_jw_nn", 3, [&] {
      Rng rng(17);
      sorted_nn = core::sort_advanced(blocks, rng, {}, &nn);
    });
    h.metric("sorted_surrogate_saving",
             synth::sequence_model_cost(blocks, nn) -
                 synth::sequence_model_cost(sorted_nn, nn));
    std::printf(
        "\n# E6d GTSP on water(8) JW blocks: CNOT model %d -> %d "
        "(XX pulses %d -> %d); NN routing surrogate %d -> %d\n",
        synth::sequence_model_cost(blocks), synth::sequence_model_cost(sorted),
        synth::sequence_model_cost(blocks, xx),
        synth::sequence_model_cost(sorted, xx),
        synth::sequence_model_cost(blocks, nn),
        synth::sequence_model_cost(sorted_nn, nn));
  }

  std::printf("\n# E6c linear-reversible synthesis CNOT counts (PMH [26] vs Gauss)\n");
  std::printf("%4s %8s %8s\n", "n", "pmh", "gauss");
  for (std::size_t n : {8, 16, 32, 64, 128}) {
    Rng rng(13);
    const auto m = gf2::Matrix::random_invertible(n, rng);
    const std::size_t c_pmh = gf2::synthesize_pmh(m).size();
    const std::size_t c_gauss = gf2::synthesize_gauss(m).size();
    std::printf("%4zu %8zu %8zu\n", n, c_pmh, c_gauss);
    h.section("pmh_vs_gauss/n" + std::to_string(n));
    h.metric("pmh", static_cast<double>(c_pmh));
    h.metric("gauss", static_cast<double>(c_gauss));
  }
  return h.write_json() ? 0 : 1;
}
