// Tests for the parallel multi-restart compilation pipeline
// (core/pipeline.hpp) and its substrate: the thread pool, derived seed
// streams, and the common optimizer restart driver.
//
// The load-bearing property is determinism: one master seed must yield
// bit-identical best plans for ANY worker count, which is what makes the CI
// bench-regression gates trustworthy numbers rather than noise.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <vector>

#include "chem/integrals.hpp"
#include "chem/mo_integrals.hpp"
#include "chem/molecules.hpp"
#include "chem/scf.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "opt/restart.hpp"
#include "vqe/uccsd.hpp"

namespace femto {
namespace {

struct Fixture {
  std::size_t n = 0;
  std::vector<fermion::ExcitationTerm> terms;
};

/// HMP2-ranked UCCSD terms of a molecule, truncated to `keep`.
Fixture molecule_terms(const chem::Molecule& mol, std::size_t keep) {
  auto basis = chem::build_sto3g(mol);
  chem::normalize_basis(basis);
  const auto ints = chem::compute_integrals(mol, basis);
  const auto scf = chem::run_rhf(mol, ints);
  const auto mo = chem::transform_to_mo(mol, ints, scf);
  const auto so = chem::to_spin_orbitals(mo);
  Fixture f;
  f.n = so.n;
  f.terms = vqe::uccsd_hmp2_terms(so);
  if (f.terms.size() > keep) f.terms.resize(keep);
  return f;
}

const Fixture& lih() {
  static const Fixture f = molecule_terms(chem::make_lih(), 5);
  return f;
}

const Fixture& h2() {
  static const Fixture f = molecule_terms(chem::make_h2(), 3);
  return f;
}

/// Trimmed solver knobs: every stochastic stage still runs, just shorter.
core::CompileOptions fast_options() {
  core::CompileOptions o;
  o.coloring_orders = 8;
  o.sa_options = {2.0, 0.05, 150, 0};
  o.pso_options.particles = 8;
  o.pso_options.iterations = 15;
  o.gtsp_options.population = 12;
  o.gtsp_options.generations = 30;
  o.gtsp_options.stagnation_limit = 15;
  return o;
}

void expect_identical(const core::CompileResult& a,
                      const core::CompileResult& b) {
  EXPECT_EQ(a.num_qubits, b.num_qubits);
  EXPECT_EQ(a.model_cnots, b.model_cnots);
  EXPECT_EQ(a.emitted_cnots, b.emitted_cnots);
  EXPECT_EQ(a.decompression_cnots, b.decompression_cnots);
  EXPECT_TRUE(a.gamma == b.gamma);
  EXPECT_EQ(a.term_order, b.term_order);
  EXPECT_EQ(a.compressed_pair_lows, b.compressed_pair_lows);
  EXPECT_EQ(a.circuit.to_string(), b.circuit.to_string());
}

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> counts(kN);
  pool.parallel_for(kN, [&](std::size_t i) { counts[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(counts[i].load(), 1);
}

TEST(ThreadPool, CallerDrainsWhenPoolIsBusy) {
  // Even a 1-worker pool completes nested-free parallel_for promptly because
  // the calling thread participates in draining the index range.
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.parallel_for(100, [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(8,
                        [&](std::size_t i) {
                          if (i == 3) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(RngStreams, RestartZeroIsMasterAndStreamsAreDistinct) {
  const std::uint64_t master = 20230306;
  EXPECT_EQ(opt::restart_seed(master, 0), master);
  std::vector<std::uint64_t> seeds;
  for (std::size_t r = 0; r < 16; ++r) seeds.push_back(opt::restart_seed(master, r));
  for (std::size_t a = 0; a < seeds.size(); ++a)
    for (std::size_t b = a + 1; b < seeds.size(); ++b)
      EXPECT_NE(seeds[a], seeds[b]) << "streams " << a << " and " << b;
  // Pure function of (master, stream).
  EXPECT_EQ(derive_stream_seed(1, 2), derive_stream_seed(1, 2));
  EXPECT_NE(derive_stream_seed(1, 2), derive_stream_seed(2, 1));
}

TEST(RestartDriver, NeverWorseThanSingleShotAndPoolInvariant) {
  // Rugged integer lattice from test_opt, deliberately short chains so
  // single restarts frequently miss the global minimum.
  const auto energy = [](const int& x) {
    return (x - 17) * (x - 17) / 10.0 + 3.0 * std::sin(static_cast<double>(x));
  };
  const auto propose = [](const int& x, Rng& r) { return x + r.range(-3, 3); };
  const opt::SaOptions sa{5.0, 0.01, 60, 0};
  const std::uint64_t master = 99;

  Rng single_rng(master);
  const auto single =
      opt::simulated_annealing<int>(100, energy, propose, single_rng, sa);
  const auto serial = opt::simulated_annealing_restarts<int>(
      8, master, 100, energy, propose, sa, nullptr);
  EXPECT_LE(serial.best_energy, single.best_energy);

  ThreadPool pool(4);
  const auto parallel = opt::simulated_annealing_restarts<int>(
      8, master, 100, energy, propose, sa, &pool);
  EXPECT_EQ(parallel.best, serial.best);
  EXPECT_EQ(parallel.best_energy, serial.best_energy);
}

TEST(RestartDriver, GtspRestartsNeverWorse) {
  opt::GtspInstance inst;
  const std::size_t m = 10, k = 4;
  int next = 0;
  for (std::size_t c = 0; c < m; ++c) {
    std::vector<int> cluster;
    for (std::size_t v = 0; v < k; ++v) cluster.push_back(next++);
    inst.clusters.push_back(cluster);
  }
  inst.weight = [](int a, int b) {
    const unsigned h = static_cast<unsigned>(a) * 73856093u ^
                       static_cast<unsigned>(b) * 19349663u;
    return static_cast<double>(h % 1000) / 100.0;
  };
  opt::GtspOptions options;
  options.generations = 40;
  options.stagnation_limit = 20;
  Rng single_rng(7);
  const double single = opt::solve_gtsp_ga(inst, single_rng, options).value;
  ThreadPool pool(3);
  const double multi =
      opt::solve_gtsp_ga_restarts(6, 7, inst, options, &pool).value;
  EXPECT_GE(multi, single - 1e-12);
}

TEST(Pipeline, VerifyOnCertifiesEveryRestartAndScenario) {
  const Fixture& f = lih();
  core::PipelineOptions pipe_options;
  pipe_options.workers = 4;
  pipe_options.restarts = 3;
  pipe_options.verify = true;
  core::CompilePipeline pipeline(pipe_options);
  const core::MultiStartResult multi =
      pipeline.compile_best(f.n, f.terms, fast_options());
  ASSERT_EQ(multi.verification.size(), 3u);
  EXPECT_TRUE(multi.all_verified());
  for (const auto& report : multi.verification)
    EXPECT_TRUE(report.equivalent()) << report.to_string();

  // Batch-best: per-scenario verification slices, all certified.
  core::CompileScenario s;
  s.name = "lih";
  s.num_qubits = f.n;
  s.terms = f.terms;
  s.options = fast_options();
  const auto batch = pipeline.compile_batch_best({s, s});
  ASSERT_EQ(batch.size(), 2u);
  for (const auto& b : batch) {
    ASSERT_EQ(b.verification.size(), 3u);
    EXPECT_TRUE(b.all_verified());
  }
  EXPECT_EQ(pipeline.last_verification().size(), 6u);
}

TEST(Pipeline, VerifyOnDoesNotChangeResults) {
  const Fixture& f = h2();
  const core::CompileOptions options = fast_options();
  core::CompilePipeline plain({.workers = 2, .restarts = 2});
  core::PipelineOptions verified_options;
  verified_options.workers = 2;
  verified_options.restarts = 2;
  verified_options.verify = true;
  core::CompilePipeline verified(verified_options);
  const auto a = plain.compile_best(f.n, f.terms, options);
  const auto b = verified.compile_best(f.n, f.terms, options);
  EXPECT_EQ(a.best_restart, b.best_restart);
  expect_identical(a.best, b.best);
  EXPECT_TRUE(a.verification.empty());  // off by default
  EXPECT_TRUE(b.all_verified());
}

TEST(Pipeline, ThreadCountInvariance) {
  // 1, 2, and 8 workers must produce bit-identical best plans (gamma, term
  // order, CNOT counts, and the emitted gate stream) for one master seed.
  const Fixture& f = lih();
  const core::CompileOptions options = fast_options();
  std::vector<core::MultiStartResult> results;
  for (std::size_t workers : {1u, 2u, 8u}) {
    core::CompilePipeline pipeline({.workers = workers, .restarts = 4});
    results.push_back(pipeline.compile_best(f.n, f.terms, options));
  }
  for (std::size_t k = 1; k < results.size(); ++k) {
    EXPECT_EQ(results[k].best_restart, results[0].best_restart);
    ASSERT_EQ(results[k].restarts.size(), results[0].restarts.size());
    for (std::size_t r = 0; r < results[0].restarts.size(); ++r) {
      EXPECT_EQ(results[k].restarts[r].seed, results[0].restarts[r].seed);
      EXPECT_EQ(results[k].restarts[r].model_cnots,
                results[0].restarts[r].model_cnots);
    }
    expect_identical(results[k].best, results[0].best);
  }
}

TEST(Pipeline, MultiRestartNeverWorseThanSingleShot) {
  const Fixture& f = lih();
  const core::CompileOptions options = fast_options();
  const core::CompileResult single = core::compile_vqe(f.n, f.terms, options);
  core::CompilePipeline pipeline({.workers = 2, .restarts = 4});
  const core::MultiStartResult multi =
      pipeline.compile_best(f.n, f.terms, options);
  EXPECT_LE(multi.best.model_cnots, single.model_cnots);
  // Restart 0 runs the master seed itself, reproducing single-shot exactly.
  ASSERT_GE(multi.restarts.size(), 1u);
  EXPECT_EQ(multi.restarts[0].seed, options.seed);
  EXPECT_EQ(multi.restarts[0].model_cnots, single.model_cnots);
}

TEST(Pipeline, BatchOutputOrderMatchesInputScenarioOrder) {
  const Fixture& small = h2();
  const Fixture& big = lih();
  std::vector<core::CompileScenario> scenarios;
  {
    core::CompileScenario s;
    s.name = "lih-advanced";
    s.num_qubits = big.n;
    s.terms = big.terms;
    s.options = fast_options();
    scenarios.push_back(s);
  }
  {
    core::CompileScenario s;
    s.name = "h2-jw-baseline";
    s.num_qubits = small.n;
    s.terms = small.terms;
    s.options = fast_options();
    s.options.transform = core::TransformKind::kJordanWigner;
    s.options.sorting = core::SortingMode::kBaseline;
    s.options.compression = core::CompressionMode::kBosonicOnly;
    scenarios.push_back(s);
  }
  {
    core::CompileScenario s;
    s.name = "h2-advanced";
    s.num_qubits = small.n;
    s.terms = small.terms;
    s.options = fast_options();
    scenarios.push_back(s);
  }
  core::CompilePipeline pipeline({.workers = 4, .restarts = 1});
  const std::vector<core::CompileResult> results =
      pipeline.compile_batch(scenarios);
  ASSERT_EQ(results.size(), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const core::CompileResult direct = core::compile_vqe(
        scenarios[i].num_qubits, scenarios[i].terms, scenarios[i].options);
    expect_identical(results[i], direct);
  }
}

TEST(Pipeline, BatchBestAgreesWithCompileBest) {
  const Fixture& f = h2();
  core::CompileScenario s;
  s.name = "h2";
  s.num_qubits = f.n;
  s.terms = f.terms;
  s.options = fast_options();
  core::CompilePipeline pipeline({.workers = 2, .restarts = 3});
  const auto batch = pipeline.compile_batch_best({s, s});
  const auto single = pipeline.compile_best(f.n, f.terms, s.options);
  ASSERT_EQ(batch.size(), 2u);
  for (const auto& b : batch) {
    EXPECT_EQ(b.best_restart, single.best_restart);
    expect_identical(b.best, single.best);
  }
}

// --- the unified CompileRequest entry point ---------------------------------

TEST(Pipeline, AdaptersAreThinWrappersOverCompileRequest) {
  const Fixture& f = h2();
  core::CompileScenario s;
  s.name = "h2";
  s.num_qubits = f.n;
  s.terms = f.terms;
  s.options = fast_options();
  core::CompilePipeline pipeline({.workers = 2, .restarts = 3});

  // Every legacy adapter must produce the exact plans the request form
  // produces -- they are documentation-preserving shims, not code paths.
  const core::CompileResponse response =
      pipeline.compile({.scenarios = {s}, .restarts = 3});
  ASSERT_TRUE(response.done());
  ASSERT_EQ(response.outcomes.size(), 1u);
  EXPECT_EQ(response.outcomes[0].restarts_completed, 3u);

  const core::MultiStartResult via_best =
      pipeline.compile_best(f.n, f.terms, s.options);
  expect_identical(response.outcomes[0].result.best, via_best.best);
  EXPECT_EQ(response.outcomes[0].result.best_restart, via_best.best_restart);

  const core::CompileResponse one_restart =
      pipeline.compile({.scenarios = {s}, .restarts = 1});
  ASSERT_TRUE(one_restart.done());
  const std::vector<core::CompileResult> via_batch =
      pipeline.compile_batch({s});
  expect_identical(one_restart.outcomes[0].result.best, via_batch[0]);

  const core::CompileResponse targeted = pipeline.compile({
      .scenarios = {s},
      .targets = {synth::HardwareTarget::all_to_all_cnot(),
                  synth::HardwareTarget::trapped_ion_xx()},
      .restarts = 3,
  });
  ASSERT_TRUE(targeted.done());
  ASSERT_EQ(targeted.outcomes.size(), 2u);
  const auto via_targets = pipeline.compile_best_for_targets(
      f.n, f.terms, s.options,
      {synth::HardwareTarget::all_to_all_cnot(),
       synth::HardwareTarget::trapped_ion_xx()});
  for (std::size_t t = 0; t < 2; ++t) {
    EXPECT_EQ(targeted.outcomes[t].target.name, via_targets[t].target.name);
    expect_identical(targeted.outcomes[t].result.best,
                     via_targets[t].result.best);
  }
}

TEST(Pipeline, CompileRequestRejectsInvalidInputWithDiagnostic) {
  core::CompilePipeline pipeline({.workers = 2});
  const Fixture& f = h2();
  core::CompileScenario s;
  s.name = "h2";
  s.num_qubits = f.n;
  s.terms = f.terms;
  s.options = fast_options();

  const core::CompileResponse no_restarts =
      pipeline.compile({.scenarios = {s}, .restarts = 0});
  EXPECT_EQ(no_restarts.status, core::RequestStatus::kRejected);
  EXPECT_FALSE(no_restarts.detail.empty());

  const core::CompileResponse no_scenarios = pipeline.compile({});
  EXPECT_EQ(no_scenarios.status, core::RequestStatus::kRejected);

  core::CompileScenario bad = s;
  bad.options.target = synth::HardwareTarget::linear_nn(2);  // wrong size
  const core::CompileResponse bad_target =
      pipeline.compile({.scenarios = {bad}});
  EXPECT_EQ(bad_target.status, core::RequestStatus::kRejected);
  EXPECT_NE(bad_target.detail.find(bad.name), std::string::npos)
      << "diagnostic must name the offending scenario: " << bad_target.detail;
}

TEST(Pipeline, CompileRequestHonorsCancelAndDeadline) {
  const Fixture& f = lih();
  core::CompileScenario s;
  s.name = "lih";
  s.num_qubits = f.n;
  s.terms = f.terms;
  s.options = fast_options();
  core::CompilePipeline pipeline({.workers = 2});

  // Pre-set cancel flag: nothing may run.
  std::atomic<bool> cancel{true};
  const core::CompileResponse cancelled = pipeline.compile(
      {.scenarios = {s}, .restarts = 8, .cancel = &cancel});
  EXPECT_EQ(cancelled.status, core::RequestStatus::kCancelled);
  ASSERT_EQ(cancelled.outcomes.size(), 1u);
  EXPECT_EQ(cancelled.outcomes[0].restarts_completed, 0u);

  // Already-expired deadline: same, but reported as DEADLINE_EXCEEDED.
  const core::CompileResponse expired = pipeline.compile(
      {.scenarios = {s}, .restarts = 8, .deadline_s = 1e-9});
  EXPECT_EQ(expired.status, core::RequestStatus::kDeadlineExceeded);
  EXPECT_EQ(expired.outcomes[0].restarts_completed, 0u);

  // A generous deadline changes nothing about the result.
  const core::CompileResponse relaxed = pipeline.compile(
      {.scenarios = {s}, .restarts = 2, .deadline_s = 3600.0});
  const core::CompileResponse plain =
      pipeline.compile({.scenarios = {s}, .restarts = 2});
  ASSERT_TRUE(relaxed.done());
  ASSERT_TRUE(plain.done());
  expect_identical(relaxed.outcomes[0].result.best,
                   plain.outcomes[0].result.best);
}

}  // namespace
}  // namespace femto
