// Experiment E3: ablation of the advanced sorting (paper Sec. III-B).
//
// For the water fermionic segments, compares the CNOT model count under:
//   none      : natural string order, first-support targets
//   baseline  : per-term shared target + exact intra order + doubly greedy
//   gtsp-ga   : the paper's joint GTSP (order + per-string targets)
// The three modes of each ansatz size are batch-compiled in one
// CompilePipeline::compile() request (core/pipeline.hpp), so the sweep
// saturates every available worker; the per-size timed section measures the
// whole batch.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_fixtures.hpp"
#include "bench_harness.hpp"

#include "core/pipeline.hpp"

namespace {

using namespace femto;

constexpr const char* kModeNames[] = {"none", "baseline", "gtsp_ga"};
constexpr core::SortingMode kModes[] = {core::SortingMode::kNone,
                                        core::SortingMode::kBaseline,
                                        core::SortingMode::kAdvanced};

/// The three sorting-mode scenarios of one ansatz size (JW, no compression:
/// isolates sorting).
std::vector<core::CompileScenario> mode_scenarios(std::size_t ne) {
  const bench::TermFixture& f = bench::water_terms(ne);
  std::vector<core::CompileScenario> scenarios;
  for (std::size_t m = 0; m < 3; ++m) {
    core::CompileScenario s;
    s.name = std::string(kModeNames[m]) + "_water" + std::to_string(ne);
    s.num_qubits = f.n;
    s.terms = f.terms;
    s.options.emit_circuit = false;
    s.options.transform = core::TransformKind::kJordanWigner;
    s.options.compression = core::CompressionMode::kNone;
    s.options.sorting = kModes[m];
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

}  // namespace

int main() {
  bench::Harness h("ablation_sorting");
  core::CompilePipeline pipeline;
  for (std::size_t ne : {4, 8, 12}) {
    const core::CompileRequest request{.scenarios = mode_scenarios(ne)};
    core::CompileResponse resp;
    h.run("sort/batch_water" + std::to_string(ne), 3,
          [&] { resp = pipeline.compile(request); });
    for (std::size_t m = 0; m < resp.outcomes.size(); ++m)
      h.metric(kModeNames[m], resp.outcomes[m].result.best.model_cnots);
  }
  // Summary table (the ablation result itself), one batch per size.
  std::printf("\n# E3 sorting ablation (water, JW, no compression)\n");
  std::printf("%4s %8s %10s %9s\n", "Ne", "none", "baseline", "gtsp-ga");
  for (std::size_t ne : {4, 8, 12, 17}) {
    const core::CompileResponse resp =
        pipeline.compile({.scenarios = mode_scenarios(ne)});
    int cnots[3] = {};
    for (std::size_t m = 0; m < 3; ++m)
      cnots[m] = resp.outcomes.at(m).result.best.model_cnots;
    std::printf("%4zu %8d %10d %9d\n", ne, cnots[0], cnots[1], cnots[2]);
    h.section("summary/water" + std::to_string(ne));
    for (std::size_t m = 0; m < 3; ++m) h.metric(kModeNames[m], cnots[m]);
  }
  return h.write_json() ? 0 : 1;
}
