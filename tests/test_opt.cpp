// Tests for the solver library: simulated annealing, GTSP GA, binary PSO.
// GTSP instances are written as weight lambdas and materialized into the
// dense form the solvers take (tests/support/gtsp_oracle.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opt/binary_pso.hpp"
#include "opt/gtsp.hpp"
#include "opt/simulated_annealing.hpp"
#include "service/json.hpp"
#include "support/gtsp_oracle.hpp"

namespace femto::opt {
namespace {

using oracle::GtspInstance;
using oracle::materialize;

TEST(SimulatedAnnealing, FindsMinimumOfRuggedFunction) {
  // Integer lattice with many local minima: f(x) = (x-17)^2/10 + 3 sin(x).
  Rng rng(1);
  const auto energy = [](const int& x) {
    return (x - 17) * (x - 17) / 10.0 + 3.0 * std::sin(static_cast<double>(x));
  };
  const auto propose = [](const int& x, Rng& r) {
    return x + r.range(-3, 3);
  };
  const auto res = simulated_annealing<int>(
      100, energy, propose, rng, {.t_initial = 5, .t_final = 0.01,
                                  .steps = 4000, .reheat_interval = 0});
  // Global minimum near x = 17 +- a few (the sine shifts it); brute force:
  double best = 1e18;
  int best_x = 0;
  for (int x = -50; x <= 80; ++x)
    if (energy(x) < best) {
      best = energy(x);
      best_x = x;
    }
  EXPECT_NEAR(res.best_energy, best, 1e-12);
  EXPECT_EQ(res.best, best_x);
}

TEST(SimulatedAnnealing, KeepsBestEverSeen) {
  Rng rng(2);
  const auto energy = [](const int& x) { return static_cast<double>(x * x); };
  const auto propose = [](const int& x, Rng& r) { return x + r.range(-5, 5); };
  const auto res = simulated_annealing<int>(40, energy, propose, rng,
                                            {.t_initial = 50,
                                             .t_final = 1.0,
                                             .steps = 500,
                                             .reheat_interval = 100});
  EXPECT_LE(res.best_energy, energy(40));
}

/// Builds a planted GTSP instance: clusters of `k` vertices each; the
/// planted tour (vertex 0 of each cluster, in cluster order) carries weight
/// 10 per edge, everything else a small deterministic background.
[[nodiscard]] GtspInstance planted_instance(std::size_t clusters,
                                            std::size_t k) {
  GtspInstance inst;
  int next = 0;
  for (std::size_t c = 0; c < clusters; ++c) {
    std::vector<int> cluster;
    for (std::size_t v = 0; v < k; ++v) cluster.push_back(next++);
    inst.clusters.push_back(cluster);
  }
  const int kk = static_cast<int>(k);
  inst.weight = [kk](int a, int b) {
    const int ca = a / kk, cb = b / kk;
    if (a % kk == 0 && b % kk == 0 && std::abs(ca - cb) == 1) return 10.0;
    return 0.1;
  };
  return inst;
}

TEST(Gtsp, DpIsExactForFixedOrder) {
  // Two clusters x two vertices with known weights: DP must pick the best
  // combination.
  GtspInstance inst;
  inst.clusters = {{0, 1}, {2, 3}};
  inst.weight = [](int a, int b) {
    if ((a == 1 && b == 2) || (a == 2 && b == 1)) return 7.0;
    return 1.0;
  };
  Rng rng(3);
  const GtspSolution sol = solve_gtsp_ga(materialize(inst), rng);
  EXPECT_NEAR(sol.value, 7.0, 1e-12);
  ASSERT_EQ(sol.vertex_choice.size(), 2u);
}

TEST(Gtsp, GaRecoversPlantedTour) {
  Rng rng(5);
  GtspInstance inst = planted_instance(8, 3);
  const GtspSolution sol =
      solve_gtsp_ga(materialize(inst), rng, {.population = 32,
                                             .generations = 300,
                                             .tournament = 3,
                                             .mutation_rate = 0.4,
                                             .stagnation_limit = 120});
  // Planted tour value: 7 consecutive edges x 10.
  EXPECT_NEAR(sol.value, 70.0, 1e-9);
}

/// Runs `solve` under a fresh tracer and returns the `generations` arg of
/// the one gtsp_ga span it records (-1 if the trace holds anything else).
template <class Fn>
[[nodiscard]] double traced_generations(Fn&& solve) {
  obs::Tracer tracer;
  obs::Tracer::set_active(&tracer);
  solve();
  obs::Tracer::set_active(nullptr);
  const auto trace = service::json::parse(tracer.to_json());
  const service::json::Value* events =
      trace.has_value() ? trace->find("traceEvents") : nullptr;
  if (events == nullptr || events->items().size() != 1) return -1;
  const service::json::Value& span = events->items()[0];
  const service::json::Value* args = span.find("args");
  const service::json::Value* gens =
      args != nullptr ? args->find("generations") : nullptr;
  if (span.find("name")->as_string() != "gtsp_ga" || gens == nullptr)
    return -1;
  return std::atof(gens->as_string().c_str());
}

TEST(Gtsp, GenerationsCounterCountsGenerationsRun) {
  obs::Counter& generations =
      obs::registry().counter("solver.gtsp_generations");
  // A single cluster never enters the generation loop.
  GtspInstance single;
  single.clusters = {{0, 1, 2}};
  single.weight = [](int, int) { return 1.0; };
  Rng rng(9);
  std::uint64_t before = generations.value();
  EXPECT_EQ(traced_generations(
                [&] { (void)solve_gtsp_ga(materialize(single), rng); }),
            0.0);
  EXPECT_EQ(generations.value() - before, 0u);
  // The first generation already holds the planted tour, so the solve stops
  // on stagnation after 1 + stagnation_limit generations, well inside its
  // budget of 300, and counts (and traces) only the generations that ran.
  Rng planted_rng(5);
  before = generations.value();
  GtspSolution sol;
  EXPECT_EQ(traced_generations([&] {
              sol = solve_gtsp_ga(materialize(planted_instance(8, 3)),
                                  planted_rng,
                                  {.population = 32,
                                   .generations = 300,
                                   .tournament = 3,
                                   .mutation_rate = 0.4,
                                   .stagnation_limit = 120});
            }),
            121.0);
  EXPECT_NEAR(sol.value, 70.0, 1e-9);
  EXPECT_EQ(generations.value() - before, 121u);
}

TEST(Gtsp, GaBeatsOrMatchesRandomAndGreedy) {
  Rng rng(7);
  GtspInstance inst;
  const std::size_t m = 10, k = 4;
  int next = 0;
  for (std::size_t c = 0; c < m; ++c) {
    std::vector<int> cluster;
    for (std::size_t v = 0; v < k; ++v) cluster.push_back(next++);
    inst.clusters.push_back(cluster);
  }
  // Random symmetric weights, fixed by a hash-like formula (deterministic;
  // unsigned arithmetic so the intended wrap-around is well defined).
  inst.weight = [](int a, int b) {
    const unsigned h = static_cast<unsigned>(a) * 73856093u ^
                       static_cast<unsigned>(b) * 19349663u ^
                       static_cast<unsigned>(a + b) * 83492791u;
    return static_cast<double>(h % 1000) / 100.0;
  };
  const GtspDense dense = materialize(inst);
  Rng r1(11), r3(11);
  const double ga = solve_gtsp_ga(dense, r1).value;
  const double greedy = solve_gtsp_greedy(dense).value;
  const double random = solve_gtsp_random(dense, r3, 30).value;
  EXPECT_GE(ga, greedy - 1e-9);
  EXPECT_GE(ga, random - 1e-9);
}

TEST(Gtsp, SingleClusterAndEmpty) {
  GtspInstance inst;
  Rng rng(9);
  EXPECT_EQ(solve_gtsp_ga(materialize(inst), rng).cluster_order.size(), 0u);
  inst.clusters = {{4, 5, 6}};
  inst.weight = [](int, int) { return 1.0; };
  const GtspSolution sol = solve_gtsp_ga(materialize(inst), rng);
  ASSERT_EQ(sol.vertex_choice.size(), 1u);
  EXPECT_NEAR(sol.value, 0.0, 1e-12);
}

TEST(BinaryPso, SolvesOneMaxStyleProblem) {
  // Energy = Hamming distance to a planted pattern.
  Rng rng(13);
  const std::size_t dim = 24;
  std::vector<bool> pattern(dim);
  for (std::size_t i = 0; i < dim; ++i) pattern[i] = rng.bernoulli(0.5);
  const auto energy = [&pattern](const std::vector<bool>& x) {
    double d = 0;
    for (std::size_t i = 0; i < x.size(); ++i)
      if (x[i] != pattern[i]) d += 1;
    return d;
  };
  const PsoResult res = binary_pso(dim, energy, rng,
                                   {.particles = 30,
                                    .iterations = 200,
                                    .inertia = 0.72,
                                    .cognitive = 1.5,
                                    .social = 1.5,
                                    .v_clamp = 4});
  EXPECT_LE(res.best_energy, 2.0);  // near-perfect recovery
}

TEST(BinaryPso, IdentitySeedMeansNeverWorseThanZeroVector) {
  // Particle 0 starts at the all-zero vector, so the result can never be
  // worse than f(0) (mirrors seeding the Gamma search with the identity).
  Rng rng(17);
  const auto energy = [](const std::vector<bool>& x) {
    double v = 5.0;
    for (std::size_t i = 0; i < x.size(); ++i) v += x[i] ? 1.0 : 0.0;
    return v;  // zero vector is optimal
  };
  const PsoResult res = binary_pso(16, energy, rng);
  EXPECT_NEAR(res.best_energy, 5.0, 1e-12);
}

}  // namespace
}  // namespace femto::opt
