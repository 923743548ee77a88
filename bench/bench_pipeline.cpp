// Experiment E7: the parallel multi-restart compilation pipeline.
//
//  - Worker scaling: one 8-restart simulated-annealing sorting sweep (water
//    fermionic segment, advanced transform + GTSP sorting) timed at 1, 2, 4,
//    and 8 workers. scaling_Nw_vs_1w = t(1 worker) / t(N workers); on a
//    multi-core host the 8-worker figure is the pipeline's headline
//    throughput gain (the restarts are embarrassingly parallel), on a
//    single-core host it honestly records ~1.0.
//  - Restart scaling: best model-CNOT count vs restart count at a fixed
//    worker count -- multi-restart can only improve the plan (restart 0 IS
//    the single-shot compile).
//  - Batch throughput: a transform x sorting scenario sweep batch-compiled
//    in one request vs sequential single compiles.
//  - Tracing overhead: the same seeded request untraced vs traced, in
//    process CPU time.
//
// Every quality metric (best_cnots) is deterministic for the committed
// master seed and thread-count invariant, which is what the CI bench gate
// (tools/check_bench.py) relies on.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <time.h>

#include "bench_fixtures.hpp"
#include "bench_harness.hpp"

#include "core/pipeline.hpp"
#include "obs/trace.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"

namespace {

using namespace femto;

/// The SA sorting sweep workload: advanced transform (SA Gamma) + GTSP
/// sorting, trimmed to bench scale.
core::CompileOptions sweep_options() {
  core::CompileOptions o;
  o.sa_options = {2.0, 0.05, 400, 0};
  o.gtsp_options.population = 16;
  o.gtsp_options.generations = 60;
  o.gtsp_options.stagnation_limit = 25;
  o.coloring_orders = 16;
  return o;
}

/// CPU seconds this process (every thread) spends in fn.
template <typename Fn>
double cpu_time_once(Fn&& fn) {
  const auto now = [] {
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
  };
  const double start = now();
  fn();
  return now() - start;
}

/// The best plan of `restarts` restarts of one scenario.
core::MultiStartResult best_plan(core::CompilePipeline& pipeline,
                                    const core::CompileScenario& scenario,
                                    std::size_t restarts) {
  return std::move(
      pipeline.compile({.scenarios = {scenario}, .restarts = restarts})
          .outcomes.at(0)
          .result);
}

}  // namespace

int main() {
  bench::Harness h("pipeline");
  const bench::TermFixture& f = bench::water_terms(8);
  const core::CompileScenario sweep{"water8", f.n, f.terms, sweep_options()};
  constexpr std::size_t kRestarts = 8;

  // E7a: worker scaling of one 8-restart SA sorting sweep.
  double t_1w = 0;
  int best_cnots_1w = 0;
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    core::MultiStartResult result;
    const double t = h.run(
        "pipeline/sa_sweep_r8_w" + std::to_string(workers), 3, [&] {
          core::CompilePipeline pipeline({.workers = workers});
          result = best_plan(pipeline, sweep, kRestarts);
        });
    h.metric("best_cnots", result.best.model_cnots);
    h.metric("best_restart", static_cast<double>(result.best_restart));
    if (workers == 1) {
      t_1w = t;
      best_cnots_1w = result.best.model_cnots;
    } else {
      // Determinism across worker counts is a hard pipeline guarantee.
      if (result.best.model_cnots != best_cnots_1w) {
        std::fprintf(stderr, "FATAL: thread-count dependent result\n");
        return 1;
      }
      h.metric("scaling_vs_1w", t_1w / t);
    }
  }

  // E7b: restart-count scaling (fixed workers): quality vs restarts.
  std::printf("\n# E7b restart scaling (water Ne=8, advanced pipeline)\n");
  std::printf("%9s %10s %12s\n", "restarts", "cnots", "best-idx");
  for (std::size_t restarts : {1u, 2u, 4u, 8u}) {
    core::MultiStartResult result;
    h.run("pipeline/restarts" + std::to_string(restarts), 3, [&] {
      core::CompilePipeline pipeline({.workers = 0});
      result = best_plan(pipeline, sweep, restarts);
    });
    h.metric("best_cnots", result.best.model_cnots);
    std::printf("%9zu %10d %12zu\n", restarts, result.best.model_cnots,
                result.best_restart);
  }

  // E7c: batch throughput over a transform x sorting sweep.
  std::vector<core::CompileScenario> scenarios;
  for (const auto& [tname, transform] :
       {std::pair{"jw", core::TransformKind::kJordanWigner},
        {"bk", core::TransformKind::kBravyiKitaev},
        {"adv", core::TransformKind::kAdvanced}}) {
    for (const auto& [sname, sorting] :
         {std::pair{"base", core::SortingMode::kBaseline},
          {"gtsp", core::SortingMode::kAdvanced}}) {
      core::CompileScenario s;
      s.name = std::string(tname) + "-" + sname;
      s.num_qubits = f.n;
      s.terms = f.terms;
      s.options = sweep_options();
      s.options.transform = transform;
      s.options.sorting = sorting;
      scenarios.push_back(std::move(s));
    }
  }
  std::vector<int> batch_cnots;
  const double t_seq = h.run("pipeline/batch6_seq", 3, [&] {
    batch_cnots.clear();
    for (const auto& s : scenarios)
      batch_cnots.push_back(
          core::compile_vqe(s.num_qubits, s.terms, s.options).model_cnots);
  });
  const double t_pool = h.run("pipeline/batch6_pool", 3, [&] {
    core::CompilePipeline pipeline({.workers = 0});
    const core::CompileResponse resp =
        pipeline.compile({.scenarios = scenarios});
    batch_cnots.clear();
    for (const core::ScenarioOutcome& oc : resp.outcomes)
      batch_cnots.push_back(oc.result.best.model_cnots);
  });
  h.metric("scaling_vs_seq", t_seq / t_pool);
  std::printf("\n# E7c batch sweep (water Ne=8): transform x sorting cnots\n");
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    std::printf("  %-10s %6d\n", scenarios[i].name.c_str(), batch_cnots[i]);
    h.section("batch/" + scenarios[i].name);
    h.metric("cnots", batch_cnots[i]);
  }

  // E7e: tracing overhead + contracts (the obs/ subsystem's CI gate).
  // The same seeded 2-restart compile runs untraced and traced; tracing
  // must (a) cost <= ~10% (trace_overhead_ratio floor 0.9), (b) export
  // parseable Chrome trace-event JSON with events in it (trace_valid_json),
  // and (c) leave the canonical compile response byte-identical
  // (trace_bit_identical) -- tracing observes, never steers.
  // The ratio is the median over 11 pairs of cpu(untraced) / cpu(traced),
  // where cpu is this process's CPU time around one compile. CPU time
  // leaves out the time other processes hold the cores, and a one-worker
  // pipeline (the caller and one worker share the two restarts) starts
  // fewer threads and contends less for the cores, so host load does not
  // read as tracing cost. Successive pairs swap which side goes first, so
  // an order effect favors neither side.
  {
    core::CompileRequest request;
    core::CompileScenario s;
    s.name = "trace-bench";
    s.num_qubits = f.n;
    s.terms = f.terms;
    s.options = sweep_options();
    s.options.emit_circuit = true;
    request.scenarios = {std::move(s)};
    request.restarts = 2;
    request.seed = 20230306;
    const auto canonical_compile = [&] {
      core::CompilePipeline pipeline({.workers = 1});
      const core::CompileResponse resp = pipeline.compile(request);
      return service::protocol::encode_response(
                 service::protocol::summarize(resp, /*include_circuits=*/true))
          .encode();
    };

    obs::Tracer tracer;
    std::string off_canonical, on_canonical;
    std::vector<double> t_off, t_on;
    const auto untraced = [&] {
      t_off.push_back(
          cpu_time_once([&] { off_canonical = canonical_compile(); }));
    };
    const auto traced = [&] {
      obs::Tracer::set_active(&tracer);
      t_on.push_back(
          cpu_time_once([&] { on_canonical = canonical_compile(); }));
      obs::Tracer::set_active(nullptr);
    };
    constexpr int kPairs = 11;
    std::vector<double> ratios;
    for (int pair = 0; pair < kPairs; ++pair) {
      if (pair % 2 == 0) {
        untraced();
        traced();
      } else {
        traced();
        untraced();
      }
      ratios.push_back(t_off.back() / t_on.back());
    }
    std::nth_element(ratios.begin(), ratios.begin() + kPairs / 2,
                     ratios.end());
    const double overhead_ratio = ratios[kPairs / 2];
    h.record("pipeline/trace_off", std::move(t_off));
    const double t_off_median = h.sections().back().median_s;
    h.record("pipeline/trace_on", std::move(t_on));
    const double t_on_median = h.sections().back().median_s;

    const std::string trace_json = tracer.to_json();
    std::string parse_err;
    const auto parsed = service::json::parse(trace_json, &parse_err);
    const service::json::Value* events =
        parsed.has_value() ? parsed->find("traceEvents") : nullptr;
    const bool valid_json = events != nullptr && events->is_array() &&
                            !events->items().empty();
    if (!valid_json)
      std::fprintf(stderr, "trace JSON invalid: %s\n", parse_err.c_str());

    h.section("pipeline/trace_overhead");
    h.metric("trace_overhead_ratio", overhead_ratio);
    h.metric("trace_valid_json", valid_json ? 1.0 : 0.0);
    h.metric("trace_bit_identical",
             off_canonical == on_canonical && !off_canonical.empty() ? 1.0
                                                                     : 0.0);
    h.metric("info_trace_events", static_cast<double>(tracer.event_count()));
    std::printf("\n# E7e tracing: overhead ratio %.3f (median CPU untraced "
                "%.3f ms, traced %.3f ms), %zu events, json %s, "
                "bit-identical %s\n",
                overhead_ratio, t_off_median * 1e3, t_on_median * 1e3,
                tracer.event_count(), valid_json ? "valid" : "INVALID",
                off_canonical == on_canonical ? "yes" : "NO");
  }

  return h.write_json() ? 0 : 1;
}
