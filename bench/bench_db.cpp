// Compilation database: cold compile vs warm serve (db/database.hpp behind
// the service plan store, service/server.hpp).
//
// Workflow under test (the production cold/warm cycle):
//   1. cold   compile a small Table-1 slice, one verified request per
//             scenario, and store each (request -> canonical response)
//             entry in femto_bench.fdb
//   2. warm   serve the identical requests from a fresh service::Service
//             whose plan store is backed by that file (mmap, read-only)
//   3. lookup micro-benchmark of raw Database::lookup over every stored key
//
// Gated metrics (tools/check_bench.py):
//   warm_equals_cold    1.0 exact pin -- every warm response is the cold
//                       response byte for byte: the file hit's decode and
//                       re-encode reproduce the stored bytes (a file from
//                       another build is refused by db::kCompileContract,
//                       which test_db ties to the served bytes)
//   warm_verified       1.0 exact pin -- every warm response carries a
//                       passed verification certificate, i.e. the file
//                       serves certified plans only
//   warm_lookups_per_s  absolute floor -- serving from the mmap'd index must
//                       stay at memory speed on any machine
// info_* metrics (hit counters, sizes, speedups) are informational.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_fixtures.hpp"
#include "bench_harness.hpp"
#include "core/pipeline.hpp"
#include "db/database.hpp"
#include "obs/metrics.hpp"
#include "service/server.hpp"

namespace {

using namespace femto;

std::vector<core::CompileScenario> make_scenarios() {
  struct Entry {
    std::string label;
    chem::Molecule mol;
    std::size_t ne;
  };
  const std::vector<Entry> entries = {
      {"HF", chem::make_hf(), 3},
      {"LiH", chem::make_lih(), 3},
      {"H2O(4)", chem::make_h2o(), 4},
      {"H2O(5)", chem::make_h2o(), 5},
  };
  std::vector<core::CompileScenario> scenarios;
  for (const Entry& e : entries) {
    const bench::TermFixture f = bench::molecule_fixture(e.mol, e.ne);
    core::CompileScenario s;
    s.name = e.label;
    s.num_qubits = f.n;
    s.terms = f.terms;
    s.options = bench::table1_column_options("Adv", f.terms.size());
    s.options.emit_circuit = true;  // the database stores real artifacts
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

}  // namespace

int main() {
  bench::Harness h("db");
  const std::string db_path = "femto_bench.fdb";
  const std::vector<core::CompileScenario> scenarios = make_scenarios();

  std::vector<core::CompileRequest> requests;
  for (const core::CompileScenario& s : scenarios)
    requests.push_back({.scenarios = {s}, .verify = true});

  // ---- 1. cold: compile and write ----------------------------------------
  db::DatabaseBuilder builder;
  std::vector<std::string> cold_responses;
  h.run("db/cold_build", 1, [&] {
    core::CompilePipeline pipeline(core::PipelineOptions{});
    cold_responses.clear();
    for (const core::CompileRequest& r : requests) {
      cold_responses.push_back(
          service::protocol::canonical_response(pipeline.compile(r)));
      builder.insert(service::protocol::coalesce_key(r),
                     cold_responses.back());
    }
  });
  if (const std::string err = builder.write(db_path); !err.empty()) {
    std::fprintf(stderr, "bench_db: %s\n", err.c_str());
    return 1;
  }
  h.metric("info_db_entries", static_cast<double>(builder.size()));

  std::string err;
  const auto database = db::Database::open(db_path, &err);
  if (!database.has_value()) {
    std::fprintf(stderr, "bench_db: %s\n", err.c_str());
    return 1;
  }
  h.metric("info_db_bytes", static_cast<double>(database->file_bytes()));

  // ---- 2. warm: a fresh service serves every request from the file ------
  std::vector<std::string> warm_responses;
  bool warm_verified = false;
  obs::Counter& file_hits = obs::registry().counter("cache.l2_hits");
  obs::Counter& executions = obs::registry().counter("cache.misses");
  const std::uint64_t file_hits_before = file_hits.value();
  const std::uint64_t executions_before = executions.value();
  const double warm_s = h.run("db/warm_compile", 3, [&] {
    service::ServiceOptions options;
    options.pipeline.workers = 1;  // every request is a file hit
    options.database_path = db_path;
    service::Service svc(options);
    warm_responses.clear();
    warm_verified = true;
    for (const core::CompileRequest& r : requests) {
      const service::protocol::WireResponse& served = svc.submit(r)->wait();
      warm_responses.push_back(
          service::protocol::encode_response(served).encode());
      for (const service::protocol::WireOutcome& oc : served.outcomes)
        warm_verified = warm_verified && oc.verified.value_or(false);
    }
  });
  h.metric("info_l2_hits",
           static_cast<double>(file_hits.value() - file_hits_before));
  h.metric("info_executions",
           static_cast<double>(executions.value() - executions_before));
  h.metric("warm_equals_cold", warm_responses == cold_responses ? 1.0 : 0.0);
  h.metric("warm_verified", warm_verified ? 1.0 : 0.0);

  // ---- 3. raw lookup throughput over every stored key --------------------
  std::vector<std::string> keys;
  keys.reserve(database->entry_count());
  for (std::size_t i = 0; i < database->entry_count(); ++i)
    keys.emplace_back(database->key(i));
  constexpr int kRounds = 200;
  std::size_t served = 0;
  const double lookup_s = h.run("db/warm_lookup", 3, [&] {
    served = 0;
    for (int round = 0; round < kRounds; ++round)
      for (const std::string& key : keys)
        if (database->lookup(key).has_value()) ++served;
  });
  if (served != keys.size() * kRounds) {
    std::fprintf(stderr, "bench_db: lookup served %zu of %zu keys\n", served,
                 keys.size() * kRounds);
    return 1;
  }
  h.metric("warm_lookups_per_s",
           lookup_s > 0.0 ? static_cast<double>(served) / lookup_s : 0.0);
  h.metric("info_warm_compile_speedup",
           warm_s > 0.0 ? h.sections()[0].median_s / warm_s : 0.0);

  std::printf("# cold build -> %s (%zu entries, %zu bytes); warm serve "
              "identical: %s, verified: %s\n",
              db_path.c_str(), database->entry_count(),
              database->file_bytes(),
              warm_responses == cold_responses ? "yes" : "NO",
              warm_verified ? "yes" : "NO");
  return h.write_json() ? 0 : 1;
}
