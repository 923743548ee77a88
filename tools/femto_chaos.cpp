// femto_chaos: the end-to-end chaos drill for the femtod serving stack,
// run as the `femtod_chaos` ctest.
//
//   femto_chaos <path-to-femtod>
//
// One run walks the whole resilience story of README "Resilience":
//
//   1. Compiles the seeded requests in-process for the byte-identity
//      reference and stores them as a small compilation database (.fdb).
//   2. Torn write: a forked child arms db.write.kill and dies (exit 137)
//      mid-rewrite of that database; the parent requires the on-disk bytes
//      unchanged and the database still loadable (crash-safe persistence).
//   3. Boots a real femtod on the database, arms service.recv /
//      service.accept over the wire (`failpoints` op), and drives a fleet
//      of retrying clients (CompileClient::compile_retry) through the
//      injected connection drops.
//   4. SIGKILLs the daemon mid-serve, requires the .fdb bytes survived,
//      respawns on the same socket path, and requires the still-retrying
//      fleet to finish with every response byte-identical to the
//      in-process reference.
//   5. Degradation: a corrupt database must fail boot (exit 2) without
//      --degrade-on-db-error, and with the flag must compile byte-identical
//      to the in-process reference while the `metrics` op reports the
//      service.degraded gauge at 1.
//
// The ctest runs with no environment; CI's chaos leg additionally exports
// FEMTO_FAILPOINTS so the daemon boots with faults already armed (the
// tool's own in-process failpoints are client-side only and harmless).
//
// Exit codes: 0 ok, 1 contract failure, 2 usage/setup error.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/failpoint.hpp"
#include "core/pipeline.hpp"
#include "db/database.hpp"
#include "obs/metrics.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"

namespace {

using namespace femto;

constexpr std::uint64_t kSeed = 20230306;

int g_failures = 0;

void check(bool ok, const char* what) {
  if (ok) {
    std::printf("chaos: ok   %s\n", what);
  } else {
    std::printf("chaos: FAIL %s\n", what);
    ++g_failures;
  }
  std::fflush(stdout);
}

/// Two small deterministic UCCSD-shaped scenarios (same shape as the smoke
/// test): rich enough to exercise synthesis + verification, fast enough to
/// run a fleet of them many times.
std::vector<core::CompileScenario> chaos_scenarios() {
  std::vector<core::CompileScenario> out;
  for (int variant = 0; variant < 2; ++variant) {
    core::CompileScenario s;
    s.name = "chaos/uccsd4-" + std::to_string(variant);
    s.num_qubits = 4;
    s.terms = {fermion::ExcitationTerm::make_double(2, 3, 0, 1),
               fermion::ExcitationTerm::single(2, 0)};
    if (variant == 1) s.terms.push_back(fermion::ExcitationTerm::single(3, 1));
    s.options.transform = core::TransformKind::kAdvanced;
    s.options.sorting = core::SortingMode::kAdvanced;
    s.options.compression = core::CompressionMode::kHybrid;
    s.options.coloring_orders = 8;
    s.options.sa_options.steps = 200;
    s.options.pso_options.particles = 6;
    s.options.pso_options.iterations = 8;
    s.options.gtsp_options.population = 8;
    s.options.gtsp_options.generations = 20;
    s.options.emit_circuit = true;
    out.push_back(std::move(s));
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return in ? out.str() : "";
}

pid_t spawn_femtod(const std::string& femtod, const std::string& socket_path,
                   const std::string& db_path, bool degrade) {
  std::vector<std::string> argv = {femtod, "--socket", socket_path,
                                   "--workers", "2"};
  if (!db_path.empty()) {
    argv.push_back("--db");
    argv.push_back(db_path);
  }
  if (degrade) argv.push_back("--degrade-on-db-error");
  return service::spawn_process(argv);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <path-to-femtod>\n", argv[0]);
    return 2;
  }
  const std::string femtod = argv[1];
  const std::string base = "/tmp/femto-chaos-" + std::to_string(::getpid());
  const std::string db_path = base + ".fdb";

  // FEMTO_FAILPOINTS in the environment is for the daemons this tool
  // spawns (they inherit and re-parse it); the harness itself must build
  // its database and reference responses fault-free, so its own in-process
  // registry is cleared up front. CI's chaos leg arms bit-identity-
  // preserving faults (cache.insert, pipeline.restart) in the env; the
  // connection-tearing faults are armed over the wire below, where the
  // fleet is built to retry through them.
  fail::registry().disarm_all();

  // ---- phase 1: database + in-process reference ---------------------------
  const std::vector<core::CompileScenario> scenarios = chaos_scenarios();
  std::vector<core::CompileRequest> requests;
  for (const core::CompileScenario& s : scenarios)
    requests.push_back(
        {.scenarios = {s}, .restarts = 2, .seed = kSeed, .verify = true});

  std::vector<std::string> reference;
  {
    db::DatabaseBuilder builder;
    // Scoped so the worker threads are joined before the fork below.
    core::CompilePipeline pipeline({.workers = 2});
    for (const core::CompileRequest& r : requests) {
      const core::CompileResponse response = pipeline.compile(r);
      if (!response.done()) {
        std::fprintf(stderr, "chaos: reference compile failed: %s\n",
                     response.detail.c_str());
        return 2;
      }
      reference.push_back(service::protocol::canonical_response(response));
      builder.insert(service::protocol::coalesce_key(r), reference.back());
    }
    if (const std::string err = builder.write(db_path); !err.empty()) {
      std::fprintf(stderr, "chaos: db build failed: %s\n", err.c_str());
      return 2;
    }
  }
  const std::string db_bytes = read_file(db_path);
  check(!db_bytes.empty(), "database built");

  // ---- phase 2: torn write (kill mid-rewrite) -----------------------------
  {
    const pid_t child = ::fork();
    if (child == 0) {
      // Rewrite the database with db.write.kill armed: the first chunk
      // write _Exit(137)s, leaving a torn tmp file but never touching the
      // published path.
      fail::registry().arm_one({"db.write.kill", 1.0, 1});
      std::string err;
      const auto db = db::Database::open(db_path, &err);
      if (db.has_value()) {
        db::DatabaseBuilder again;
        again.merge_from(*db);
        (void)again.write(db_path);
      }
      ::_exit(0);  // only reached if the failpoint never fired
    }
    int status = 0;
    ::waitpid(child, &status, 0);
    check(WIFEXITED(status) && WEXITSTATUS(status) == 137,
          "torn-write child died mid-write (exit 137)");
    check(read_file(db_path) == db_bytes,
          "database bytes untouched by the torn write");
    std::string err;
    const auto reopened = db::Database::open(db_path, &err);
    check(reopened.has_value() &&
              reopened->entry_count() == requests.size(),
          "database still loadable after the torn write");
    ::unlink((db_path + ".tmp." + std::to_string(child)).c_str());
  }

  // ---- phase 3+4: daemon under chaos, SIGKILL, restart, fleet -------------
  const std::string socket_path = base + "-serve.sock";
  pid_t daemon = spawn_femtod(femtod, socket_path, db_path, false);
  if (daemon < 0) {
    std::fprintf(stderr, "chaos: cannot spawn %s\n", femtod.c_str());
    return 2;
  }
  {
    auto admin_conn = service::wait_for_server(socket_path);
    if (!admin_conn.has_value()) {
      std::fprintf(stderr, "chaos: daemon socket never came up\n");
      ::kill(daemon, SIGKILL);
      return 2;
    }
    service::CompileClient admin(std::move(*admin_conn));
    std::string err;
    const auto armed = admin.failpoints(
        "service.recv:0.25:11,service.accept:0.15:13", "", err);
    check(armed.has_value(), "service.recv/service.accept armed over the wire");
  }

  const double retries_before =
      obs::registry().counter("service.retries").value();
  const std::size_t kClients = 3;
  const std::size_t kRoundsPerClient = 2;
  std::atomic<std::size_t> completed{0};
  std::atomic<int> fleet_failures{0};
  std::atomic<int> fleet_mismatches{0};
  std::vector<std::thread> fleet;
  for (std::size_t c = 0; c < kClients; ++c) {
    fleet.emplace_back([&, c] {
      service::RetryPolicy policy;
      policy.max_attempts = 60;
      policy.base_delay_s = 0.02;
      policy.max_delay_s = 0.25;
      policy.seed = 100 + c;  // decorrelate the fleet's back-off
      service::CompileClient client(socket_path, policy);
      for (std::size_t r = 0; r < kRoundsPerClient; ++r) {
        const std::size_t idx = (c + r) % requests.size();
        std::string err;
        const auto served = client.compile_retry(
            requests[idx],
            "fleet-" + std::to_string(c) + "-" + std::to_string(r), err,
            /*include_circuit=*/true);
        if (!served.has_value() ||
            served->state != service::RequestState::kDone) {
          std::fprintf(stderr, "chaos: fleet compile failed: %s\n",
                       err.c_str());
          fleet_failures.fetch_add(1);
        } else if (served->canonical_response != reference[idx]) {
          fleet_mismatches.fetch_add(1);
        }
        completed.fetch_add(1);
      }
    });
  }

  // SIGKILL the daemon once the fleet is mid-serve (at least one response
  // landed, more in flight), then verify the database and respawn on the
  // same socket path. The fleet's retry policies ride out the gap.
  const auto kill_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (completed.load() < 1 &&
         std::chrono::steady_clock::now() < kill_deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ::kill(daemon, SIGKILL);
  {
    int status = 0;
    ::waitpid(daemon, &status, 0);
    check(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL,
          "daemon SIGKILLed mid-serve");
  }
  check(read_file(db_path) == db_bytes, "database bytes survived the SIGKILL");

  daemon = spawn_femtod(femtod, socket_path, db_path, false);
  check(daemon > 0, "daemon respawned on the same socket path");
  for (std::thread& t : fleet) t.join();
  check(fleet_failures.load() == 0,
        "every fleet request completed (through drops, kill, and restart)");
  check(fleet_mismatches.load() == 0,
        "every fleet response byte-identical to the in-process reference");
  const double retries_after =
      obs::registry().counter("service.retries").value();
  check(retries_after > retries_before,
        "the fleet actually retried (service.retries grew)");
  {
    auto conn = service::wait_for_server(socket_path, 2000);
    bool clean = false;
    if (conn.has_value()) {
      service::CompileClient client(std::move(*conn));
      clean = client.shutdown();
    }
    clean = service::wait_process(daemon) == 0 && clean;
    check(clean, "respawned daemon drained cleanly");
  }

  // ---- phase 5: corrupt database -> loud failure or loud degradation ------
  const std::string corrupt_path = base + "-corrupt.fdb";
  {
    std::ofstream out(corrupt_path, std::ios::binary);
    out << "this is not a compilation database\n";
  }
  {
    // Without the flag a corrupt --db must be a boot failure, exit 2.
    const pid_t strict =
        spawn_femtod(femtod, base + "-strict.sock", corrupt_path, false);
    check(strict > 0 && service::wait_process(strict) == 2,
          "corrupt database without --degrade-on-db-error exits 2");
  }
  {
    const std::string degraded_socket = base + "-degraded.sock";
    const pid_t degraded =
        spawn_femtod(femtod, degraded_socket, corrupt_path, true);
    bool served_identical = false;
    bool gauge_degraded = false;
    bool clean = false;
    if (degraded > 0) {
      if (auto conn = service::wait_for_server(degraded_socket)) {
        service::CompileClient client(std::move(*conn));
        std::string err;
        const auto served = client.compile(requests[0], "degraded-1", err,
                                           /*include_circuit=*/true);
        served_identical = served.has_value() &&
                           served->state == service::RequestState::kDone &&
                           served->canonical_response == reference[0];
        const auto metrics = client.metrics();
        const service::json::Value* gauges =
            metrics.has_value() ? metrics->find("gauges") : nullptr;
        const service::json::Value* flag =
            gauges != nullptr ? gauges->find("service.degraded") : nullptr;
        gauge_degraded = flag != nullptr && flag->as_double() == 1.0;
        clean = client.shutdown();
      }
      clean = service::wait_process(degraded) == 0 && clean;
    }
    check(served_identical,
          "degraded daemon compiles byte-identical to the in-process "
          "reference");
    check(gauge_degraded,
          "degraded daemon reports service.degraded = 1 in metrics");
    check(clean, "degraded daemon drained cleanly");
  }

  ::unlink(db_path.c_str());
  ::unlink(corrupt_path.c_str());
  if (g_failures == 0) {
    std::printf("chaos: ok (all phases)\n");
    return 0;
  }
  std::printf("chaos: %d failure(s)\n", g_failures);
  return 1;
}
