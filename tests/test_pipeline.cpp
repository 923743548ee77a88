// Tests for the parallel multi-restart compilation pipeline
// (core/pipeline.hpp) and its substrate: the thread pool and the derived
// restart seed streams.
//
// The load-bearing property is determinism: one master seed must yield
// bit-identical best plans for ANY worker count, which is what makes the CI
// bench-regression gates trustworthy numbers rather than noise.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "chem/integrals.hpp"
#include "chem/mo_integrals.hpp"
#include "chem/molecules.hpp"
#include "chem/scf.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
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

core::CompileScenario scenario(std::string name, const Fixture& f) {
  return {std::move(name), f.n, f.terms, fast_options()};
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
  EXPECT_EQ(core::restart_seed(master, 0), master);
  std::vector<std::uint64_t> seeds;
  for (std::size_t r = 0; r < 16; ++r)
    seeds.push_back(core::restart_seed(master, r));
  for (std::size_t a = 0; a < seeds.size(); ++a)
    for (std::size_t b = a + 1; b < seeds.size(); ++b)
      EXPECT_NE(seeds[a], seeds[b]) << "streams " << a << " and " << b;
  // Pure function of (master, stream).
  EXPECT_EQ(derive_stream_seed(1, 2), derive_stream_seed(1, 2));
  EXPECT_NE(derive_stream_seed(1, 2), derive_stream_seed(2, 1));
}

TEST(Pipeline, VerifyOnCertifiesEveryRestartAndScenario) {
  // 2 scenarios x 2 targets x 3 restarts: every cell carries its own 3
  // verdicts, all certified, and verdict r certifies restart r's circuit.
  core::CompilePipeline pipeline({.workers = 4});
  const std::vector<core::CompileScenario> scenarios = {
      scenario("lih", lih()), scenario("h2", h2())};
  const std::vector<synth::HardwareTarget> targets = {
      synth::HardwareTarget::all_to_all_cnot(),
      synth::HardwareTarget::trapped_ion_xx()};
  const core::CompileResponse grid = pipeline.compile({.scenarios = scenarios,
                                                       .targets = targets,
                                                       .restarts = 3,
                                                       .verify = true});
  ASSERT_TRUE(grid.done());
  ASSERT_EQ(grid.outcomes.size(), 4u);
  const verify::EquivalenceChecker checker;
  for (std::size_t cell = 0; cell < grid.outcomes.size(); ++cell) {
    const core::CompileScenario& s = scenarios[cell / 2];
    const core::ScenarioOutcome& oc = grid.outcomes[cell];
    EXPECT_EQ(oc.scenario, s.name);
    EXPECT_EQ(oc.target.name, targets[cell % 2].name);
    ASSERT_EQ(oc.result.verification.size(), 3u) << cell;
    EXPECT_TRUE(oc.result.all_verified()) << cell;
    for (const auto& report : oc.result.verification)
      EXPECT_TRUE(report.equivalent()) << report.to_string();
    for (std::size_t r = 0; r < 3; ++r) {
      core::CompileOptions o = s.options;
      o.target = targets[cell % 2];
      o.seed = core::restart_seed(o.seed, r);
      const core::CompileResult direct =
          core::compile_vqe(s.num_qubits, s.terms, o);
      EXPECT_EQ(oc.result.verification[r].to_string(),
                checker.check_spec(direct.final_circuit(), direct.spec)
                    .to_string())
          << "cell " << cell << " restart " << r;
    }
  }
}

TEST(Pipeline, VerifyOnDoesNotChangeResults) {
  const core::CompileScenario s = scenario("h2", h2());
  core::CompilePipeline pipeline({.workers = 2});
  const core::CompileResponse ra =
      pipeline.compile({.scenarios = {s}, .restarts = 2});
  const core::CompileResponse rb =
      pipeline.compile({.scenarios = {s}, .restarts = 2, .verify = true});
  ASSERT_TRUE(ra.done());
  ASSERT_TRUE(rb.done());
  const core::MultiStartResult& a = ra.outcomes.at(0).result;
  const core::MultiStartResult& b = rb.outcomes.at(0).result;
  EXPECT_EQ(a.best_restart, b.best_restart);
  expect_identical(a.best, b.best);
  EXPECT_TRUE(a.verification.empty());  // off by default
  EXPECT_TRUE(b.all_verified());
}

TEST(Pipeline, ThreadCountInvariance) {
  // 1, 2, and 8 workers must produce bit-identical best plans (gamma, term
  // order, CNOT counts, and the emitted gate stream) for one master seed.
  const core::CompileScenario s = scenario("lih", lih());
  std::vector<core::MultiStartResult> results;
  for (std::size_t workers : {1u, 2u, 8u}) {
    core::CompilePipeline pipeline({.workers = workers});
    core::CompileResponse resp =
        pipeline.compile({.scenarios = {s}, .restarts = 4});
    ASSERT_TRUE(resp.done());
    results.push_back(std::move(resp.outcomes.at(0).result));
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
  const core::CompileScenario s = scenario("lih", lih());
  const core::CompileResult single =
      core::compile_vqe(s.num_qubits, s.terms, s.options);
  core::CompilePipeline pipeline({.workers = 2});
  const core::CompileResponse resp =
      pipeline.compile({.scenarios = {s}, .restarts = 4});
  ASSERT_TRUE(resp.done());
  const core::MultiStartResult& multi = resp.outcomes.at(0).result;
  EXPECT_LE(multi.best.model_cnots, single.model_cnots);
  // Restart 0 runs the master seed itself, reproducing single-shot exactly.
  ASSERT_GE(multi.restarts.size(), 1u);
  EXPECT_EQ(multi.restarts[0].seed, s.options.seed);
  EXPECT_EQ(multi.restarts[0].model_cnots, single.model_cnots);
}

TEST(Pipeline, BatchOutputOrderMatchesInputScenarioOrder) {
  std::vector<core::CompileScenario> scenarios = {
      scenario("lih-advanced", lih()), scenario("h2-jw-baseline", h2()),
      scenario("h2-advanced", h2())};
  scenarios[1].options.transform = core::TransformKind::kJordanWigner;
  scenarios[1].options.sorting = core::SortingMode::kBaseline;
  scenarios[1].options.compression = core::CompressionMode::kBosonicOnly;
  core::CompilePipeline pipeline({.workers = 4});
  const core::CompileResponse resp = pipeline.compile({.scenarios = scenarios});
  ASSERT_TRUE(resp.done());
  ASSERT_EQ(resp.outcomes.size(), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_EQ(resp.outcomes[i].scenario, scenarios[i].name);
    const core::CompileResult direct = core::compile_vqe(
        scenarios[i].num_qubits, scenarios[i].terms, scenarios[i].options);
    expect_identical(resp.outcomes[i].result.best, direct);
  }
}

TEST(Pipeline, MultiScenarioCellEqualsScenarioCompiledAlone) {
  const core::CompileScenario s = scenario("h2", h2());
  core::CompilePipeline pipeline({.workers = 2});
  const core::CompileResponse batch =
      pipeline.compile({.scenarios = {s, s}, .restarts = 3});
  const core::CompileResponse single =
      pipeline.compile({.scenarios = {s}, .restarts = 3});
  ASSERT_TRUE(batch.done());
  ASSERT_TRUE(single.done());
  ASSERT_EQ(batch.outcomes.size(), 2u);
  EXPECT_EQ(single.outcomes.at(0).restarts_completed, 3u);
  for (const core::ScenarioOutcome& b : batch.outcomes) {
    EXPECT_EQ(b.restarts_completed, 3u);
    EXPECT_EQ(b.result.best_restart, single.outcomes[0].result.best_restart);
    expect_identical(b.result.best, single.outcomes[0].result.best);
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

  // Terms outside make_double's canonical form (a double needs p < q and
  // r < s) and terms with a zero generator, as a wire decoder hands them
  // over: ["d",3,2,0,1], ["d",2,2,0,1], ["s",1,1], ["d",2,3,1,0],
  // ["d",0,1,0,1] on 4 qubits.
  using Kind = fermion::ExcitationTerm::Kind;
  const auto term = [](Kind kind, std::size_t p, std::size_t q, std::size_t r,
                       std::size_t s_) {
    fermion::ExcitationTerm t;
    t.kind = kind;
    t.p = p;
    t.q = q;
    t.r = r;
    t.s = s_;
    return t;
  };
  for (const fermion::ExcitationTerm& t :
       {term(Kind::kDouble, 3, 2, 0, 1), term(Kind::kDouble, 2, 2, 0, 1),
        term(Kind::kSingle, 1, 0, 1, 0), term(Kind::kDouble, 2, 3, 1, 0),
        term(Kind::kDouble, 0, 1, 0, 1)}) {
    const core::CompileScenario odd{"odd-term", 4, {t}, fast_options()};
    const core::CompileResponse resp = pipeline.compile({.scenarios = {odd}});
    EXPECT_EQ(resp.status, core::RequestStatus::kRejected) << t.to_string();
    EXPECT_NE(resp.detail.find(odd.name), std::string::npos) << resp.detail;
  }
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
