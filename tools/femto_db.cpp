// femto-db: build, append, inspect, and verify compilation databases
// (src/db/database.hpp): canonical request bytes -> the canonical response
// a DONE compile of that request serves. `femtod --db` answers any
// byte-identical request from the file instead of compiling it.
//
//   femto-db build <out.fdb> [--suite small|table1] [--append <old.fdb>]
//                  [--scenarios <file.jsonl>] [--workers N] [--restarts N]
//       Compiles every suite (or --scenarios) entry as a one-scenario
//       request with --restarts restarts and verify: true, and stores
//       (request -> response) for each. `femto-client compile <file>` sends
//       each line of a scenario file as that same request (one restart),
//       so with the default --restarts, build --scenarios <file> answers
//       every request of that client run from the file. --append first
//       merges an existing database, so the rebuild workflow is: build
//       --append old.fdb new.fdb && mv.
//
//   femto-db info <db.fdb>
//       Header fields, entry count, and byte sizes.
//
//   femto-db verify <db.fdb>
//       Decodes EVERY key as a protocol request, recompiles it, and
//       byte-compares the fresh canonical response with the stored one --
//       the database's byte-identity contract, checked exhaustively. Exit 1
//       on any mismatch.
//
//   femto-db export-scenarios <suite> <out.jsonl>
//       Writes a suite as canonical protocol scenario JSON, one per line --
//       the SAME encoding femtod speaks on the wire (service/protocol.hpp),
//       so exported files are build inputs here and compile requests there.
//
// Exit codes: 0 ok, 1 verification failure, 2 usage / IO / format error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_fixtures.hpp"
#include "core/pipeline.hpp"
#include "db/database.hpp"
#include "service/protocol.hpp"

namespace {

using namespace femto;

int usage() {
  std::fprintf(stderr,
               "usage: femto-db build <out.fdb> [--suite small|table1] "
               "[--scenarios <file.jsonl>] "
               "[--append <old.fdb>] [--workers N] [--restarts N]\n"
               "       femto-db info <db.fdb>\n"
               "       femto-db verify <db.fdb>\n"
               "       femto-db export-scenarios <suite> <out.jsonl>\n");
  return 2;
}

int cmd_build(int argc, char** argv) {
  std::string out_path, suite = "small", append_path, scenario_path;
  std::size_t workers = 0, restarts = 1;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--suite") {
      const char* v = value();
      if (v == nullptr) return usage();
      suite = v;
    } else if (arg == "--scenarios") {
      const char* v = value();
      if (v == nullptr) return usage();
      scenario_path = v;
    } else if (arg == "--append") {
      const char* v = value();
      if (v == nullptr) return usage();
      append_path = v;
    } else if (arg == "--workers") {
      const char* v = value();
      if (v == nullptr) return usage();
      workers = static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--restarts") {
      const char* v = value();
      if (v == nullptr) return usage();
      restarts = static_cast<std::size_t>(std::atol(v));
    } else if (out_path.empty() && arg[0] != '-') {
      out_path = arg;
    } else {
      return usage();
    }
  }
  if (out_path.empty() || restarts < 1) return usage();

  db::DatabaseBuilder builder;
  if (!append_path.empty()) {
    std::string err;
    const auto old = db::Database::open(append_path, &err);
    if (!old.has_value()) {
      std::fprintf(stderr, "femto-db: %s\n", err.c_str());
      return 2;
    }
    builder.merge_from(*old);
    std::printf("merged %zu entries from %s\n", old->entry_count(),
                append_path.c_str());
  }

  std::vector<core::CompileScenario> scenarios;
  if (!scenario_path.empty()) {
    std::string err;
    scenarios = service::protocol::read_scenario_file(scenario_path, err);
    if (scenarios.empty()) {
      std::fprintf(stderr, "femto-db: %s\n", err.c_str());
      return 2;
    }
  } else {
    scenarios = bench::suite_scenarios(suite);
    if (scenarios.empty()) {
      std::fprintf(stderr, "femto-db: unknown suite '%s'\n", suite.c_str());
      return usage();
    }
  }
  core::CompilePipeline pipeline({.workers = workers});
  for (const core::CompileScenario& s : scenarios) {
    const core::CompileRequest request{
        .scenarios = {s}, .restarts = restarts, .verify = true};
    const core::CompileResponse response = pipeline.compile(request);
    if (!response.done()) {
      std::fprintf(stderr, "femto-db: %s: %s: %s\n", s.name.c_str(),
                   core::to_string(response.status), response.detail.c_str());
      return 2;
    }
    std::printf("  %-12s model CNOTs %d\n", s.name.c_str(),
                response.outcomes.front().result.best.model_cnots);
    builder.insert(service::protocol::coalesce_key(request),
                   service::protocol::canonical_response(response));
  }

  if (const std::string err = builder.write(out_path); !err.empty()) {
    std::fprintf(stderr, "femto-db: %s\n", err.c_str());
    return 2;
  }
  std::printf("wrote %zu entries to %s\n", builder.size(), out_path.c_str());
  return 0;
}

int cmd_info(const char* path) {
  std::string err;
  const auto database = db::Database::open(path, &err);
  if (!database.has_value()) {
    std::fprintf(stderr, "femto-db: %s\n", err.c_str());
    return 2;
  }
  std::size_t key_bytes = 0, value_bytes = 0;
  for (std::size_t i = 0; i < database->entry_count(); ++i) {
    key_bytes += database->key(i).size();
    value_bytes += database->value(i).size();
  }
  std::printf("%s\n", path);
  std::printf("  format version      %u\n", database->format_version());
  std::printf("  compile contract    %u\n", database->compile_contract());
  std::printf("  file bytes          %zu\n", database->file_bytes());
  std::printf("  entries             %zu\n", database->entry_count());
  std::printf("  request bytes       %zu\n", key_bytes);
  std::printf("  response bytes      %zu\n", value_bytes);
  return 0;
}

int cmd_verify(const char* path) {
  std::string err;
  const auto database = db::Database::open(path, &err);
  if (!database.has_value()) {
    std::fprintf(stderr, "femto-db: %s\n", err.c_str());
    return 2;
  }
  core::CompilePipeline pipeline;
  std::size_t failures = 0;
  for (std::size_t i = 0; i < database->entry_count(); ++i) {
    std::string parse_err;
    const auto key = service::json::parse(database->key(i), &parse_err);
    core::CompileRequest request;
    if (!key.has_value() ||
        !service::protocol::decode_request(*key, request, parse_err)) {
      std::fprintf(stderr, "entry %zu: key is not a protocol request: %s\n",
                   i, parse_err.c_str());
      ++failures;
      continue;
    }
    const std::string fresh =
        service::protocol::canonical_response(pipeline.compile(request));
    if (fresh != database->value(i)) {
      std::fprintf(stderr,
                   "entry %zu: stored response differs from a fresh compile "
                   "(%zu vs %zu bytes)\n",
                   i, database->value(i).size(), fresh.size());
      ++failures;
    }
  }
  if (failures != 0) {
    std::fprintf(stderr, "femto-db: %zu of %zu entries FAILED verification\n",
                 failures, database->entry_count());
    return 1;
  }
  std::printf("all %zu entries verified byte-identical to a fresh compile\n",
              database->entry_count());
  return 0;
}

int cmd_export_scenarios(const char* suite, const char* out_path) {
  const std::vector<core::CompileScenario> scenarios =
      bench::suite_scenarios(suite);
  if (scenarios.empty()) {
    std::fprintf(stderr, "femto-db: unknown suite '%s'\n", suite);
    return usage();
  }
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "femto-db: cannot write %s\n", out_path);
    return 2;
  }
  for (const core::CompileScenario& s : scenarios)
    out << service::protocol::encode_scenario(s).encode() << '\n';
  out.close();
  std::printf("wrote %zu canonical scenarios to %s\n", scenarios.size(),
              out_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  if (cmd == "build") return cmd_build(argc - 2, argv + 2);
  if (cmd == "info") return cmd_info(argv[2]);
  if (cmd == "verify") return cmd_verify(argv[2]);
  if (cmd == "export-scenarios" && argc >= 4)
    return cmd_export_scenarios(argv[2], argv[3]);
  return usage();
}
