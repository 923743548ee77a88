// femto_db_cli: drives the femto-db binary end to end, failure paths
// included, then the documented serving workflow, as the `femto_db_cli`
// ctest.
//
//   femto_db_cli <path-to-femto-db> <path-to-femtod> <path-to-femto-client>
//
//   1. `build --suite small`, `info` and `verify` each exit 0.
//   2. One stored response is rewritten (a reported CNOT count bumped; the
//      file stays well-formed and checksummed): `verify` exits 1.
//   3. The file stamped with another compile contract (header checksum
//      fixed up, so only the contract differs): `info` and `verify` exit 2.
//   4. `export-scenarios small`, `build --scenarios` of that file, a femtod
//      on it with --db, and `femto-client compile` of the same file: every
//      request is answered from the file (one cache.l2_hits each, no
//      execution), and femtod exits 0 after a graceful shutdown.
//
// Exit codes: 0 ok, 1 contract failure, 2 usage/setup error.
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <signal.h>
#include <unistd.h>

#include "db/database.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"

namespace {

using namespace femto;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("femto_db_cli: %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  std::fflush(stdout);
  if (!ok) ++g_failures;
}

int run(const std::vector<std::string>& argv) {
  const pid_t pid = service::spawn_process(argv);
  return pid < 0 ? -1 : service::wait_process(pid);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Copies the database at `from` to `to` with entry 0's response claiming
/// one more model CNOT than the compile produces.
bool write_tampered(const std::string& from, const std::string& to) {
  std::string err;
  const auto database = db::Database::open(from, &err);
  if (!database.has_value() || database->entry_count() == 0) return false;
  db::DatabaseBuilder builder;
  for (std::size_t i = 0; i < database->entry_count(); ++i) {
    std::string value(database->value(i));
    if (i == 0) {
      const auto parsed = service::json::parse(value, &err);
      service::protocol::WireResponse response;
      if (!parsed.has_value() ||
          !service::protocol::decode_response(*parsed, response, err) ||
          response.outcomes.empty())
        return false;
      ++response.outcomes[0].model_cnots;
      value = service::protocol::encode_response(response).encode();
    }
    builder.insert(std::string(database->key(i)), std::move(value));
  }
  return builder.write(to).empty();
}

/// Copies the file at `from` to `to` with another compile contract in the
/// header and the header checksum recomputed over it.
bool write_other_contract(const std::string& from, const std::string& to) {
  std::string bytes = read_file(from);
  if (bytes.size() < 48) return false;
  const std::uint32_t contract = db::kCompileContract + 1;
  for (int byte = 0; byte < 4; ++byte)
    bytes[12 + byte] = static_cast<char>((contract >> (8 * byte)) & 0xff);
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  const std::size_t header_end = 48 + 24 * read_le(p + 20, 4);
  if (bytes.size() < header_end) return false;
  std::string header = bytes.substr(0, header_end);
  header[40] = header[41] = header[42] = header[43] = 0;
  const std::uint32_t crc = db::detail::crc32(
      reinterpret_cast<const unsigned char*>(header.data()), header.size());
  for (int byte = 0; byte < 4; ++byte)
    bytes[40 + byte] = static_cast<char>((crc >> (8 * byte)) & 0xff);
  write_file(to, bytes);
  return true;
}

/// Boots femtod on `database`, runs `femto-client compile` of `scenarios`,
/// and reads the daemon's counters from its `metrics` op: true iff the
/// client exited 0, every scenario line was one file hit, nothing
/// executed, and femtod drained and exited 0.
bool serves_every_request_from_the_file(const std::string& femtod,
                                        const std::string& femto_client,
                                        const std::string& database,
                                        const std::string& scenarios,
                                        const std::string& socket) {
  std::ifstream in(scenarios);
  double lines = 0;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) ++lines;
  const pid_t daemon = service::spawn_process(
      {femtod, "--socket", socket, "--workers", "2", "--db", database});
  auto conn = service::wait_for_server(socket);
  if (daemon < 0 || !conn.has_value()) {
    if (daemon > 0) ::kill(daemon, SIGKILL);
    if (daemon > 0) (void)service::wait_process(daemon);
    return false;
  }
  service::CompileClient admin(std::move(*conn));
  const bool client_ok =
      run({femto_client, "--socket", socket, "compile", scenarios}) == 0;
  const auto metrics = admin.metrics();
  const service::json::Value* counters =
      metrics.has_value() ? metrics->find("counters") : nullptr;
  const auto count = [&](const char* name) {
    const service::json::Value* v =
        counters != nullptr ? counters->find(name) : nullptr;
    return v != nullptr && v->is_number() ? v->as_double() : -1.0;
  };
  const double done = count("service.done");
  const double hits = count("cache.l2_hits");
  const double executions = count("service.works_run");
  std::printf("femto_db_cli: %g scenario lines, %g done, %g file hits, %g "
              "executions\n",
              lines, done, hits, executions);
  const bool drained = admin.shutdown();
  const bool exited = service::wait_process(daemon) == 0;
  return client_ok && lines > 0 && done == lines && hits == lines &&
         executions == 0 && drained && exited;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr,
                 "usage: %s <path-to-femto-db> <path-to-femtod> "
                 "<path-to-femto-client>\n",
                 argv[0]);
    return 2;
  }
  const std::string femto_db = argv[1];
  const std::string femtod = argv[2];
  const std::string femto_client = argv[3];
  const std::string base = "/tmp/femto-db-cli-" + std::to_string(::getpid());
  const std::string good = base + ".fdb";
  const std::string tampered = base + "-tampered.fdb";
  const std::string other = base + "-contract.fdb";
  const std::string scenarios = base + ".jsonl";
  const std::string served = base + "-served.fdb";
  const std::string socket = base + ".sock";

  check(run({femto_db, "build", good, "--suite", "small"}) == 0,
        "build --suite small exits 0");
  check(run({femto_db, "info", good}) == 0, "info exits 0");
  check(run({femto_db, "verify", good}) == 0, "verify exits 0");

  if (!write_tampered(good, tampered)) {
    std::fprintf(stderr, "femto_db_cli: cannot rewrite %s\n", good.c_str());
    return 2;
  }
  check(run({femto_db, "verify", tampered}) == 1,
        "verify of a rewritten stored response exits 1");

  if (!write_other_contract(good, other)) {
    std::fprintf(stderr, "femto_db_cli: cannot restamp %s\n", good.c_str());
    return 2;
  }
  check(run({femto_db, "info", other}) == 2,
        "info of another compile contract exits 2");
  check(run({femto_db, "verify", other}) == 2,
        "verify of another compile contract exits 2");

  check(run({femto_db, "export-scenarios", "small", scenarios}) == 0,
        "export-scenarios small exits 0");
  check(run({femto_db, "build", served, "--scenarios", scenarios}) == 0,
        "build --scenarios exits 0");
  check(serves_every_request_from_the_file(femtod, femto_client, served,
                                           scenarios, socket),
        "femto-client compile against femtod --db: every request a file hit");

  for (const std::string& path : {good, tampered, other, scenarios, served})
    std::remove(path.c_str());
  if (g_failures == 0) {
    std::printf("femto_db_cli: ok (all checks)\n");
    return 0;
  }
  std::printf("femto_db_cli: %d failure(s)\n", g_failures);
  return 1;
}
