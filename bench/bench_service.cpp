// Service bench: boots a femtod daemon and drives concurrent compile load
// through the wire protocol, measuring end-to-end serving throughput and
// pinning the daemon determinism contract.
//
// By default the daemon is an in-process service::SocketServer (same code
// femtod runs); `--daemon <path-to-femtod>` forks/execs the real binary
// instead, which is what CI does so the shipped daemon is what gets gated.
//
// Gated metrics (tools/check_bench.py):
//   serve_cold/plans_per_s              ABS_FLOOR -- scenario plans served
//       per wall-clock second across 4 concurrent client connections
//       against a cold daemon pipeline (protocol + scheduling overhead
//       included). Each client sends the suite under its own seed, so no
//       request is a plan-store hit; a second pass of the same requests
//       (all store hits) is reported as info_warm_plans_per_s.
//   serve_cold/served_equals_inprocess  ABS_EXACT 1.0 -- every served
//       response of both passes (circuits included) is byte-identical to
//       the canonical encoding of the same seeded request compiled
//       in-process.
//   coalesce/coalesced_identical        ABS_EXACT 1.0 -- identical seeded
//       requests the daemon has not served before, submitted while the
//       scheduler is busy, collapse onto one execution and every waiter
//       gets the same bytes as in-process.
//   db_warm/db_warm_equals_inprocess    ABS_EXACT 1.0 -- a daemon serving
//       from a prebuilt compilation database (.fdb) of the in-process
//       responses answers every request byte-identically.
//   deadline/deadline_enforced          ABS_EXACT 1.0 -- an impossible
//       deadline terminates DEADLINE_EXCEEDED at a restart boundary
//       instead of running to completion.
//   shutdown/clean_shutdown             ABS_EXACT 1.0 -- the graceful
//       shutdown handshake drains both daemons; an external femtod must
//       exit 0.
//   chaos/failpoint_disabled_zero_alloc ABS_EXACT 1.0 -- with no failpoint
//       armed, a million FEMTO_FAILPOINT evaluations perform zero heap
//       allocations (the disabled path is one relaxed atomic load).
//   chaos/chaos_db_survived             ABS_EXACT 1.0 -- short-write and
//       fsync faults injected into a database rewrite leave the previous
//       .fdb byte-identical and loadable (crash-safe persistence).
//   chaos/chaos_responses_identical     ABS_EXACT 1.0 -- a retrying client
//       fleet driven through wire-armed service.recv connection drops
//       completes every request byte-identical to in-process.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <optional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_fixtures.hpp"
#include "bench_harness.hpp"
#include "common/failpoint.hpp"
#include "core/pipeline.hpp"
#include "db/database.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

// The chaos section's failpoint_disabled_zero_alloc metric pins the
// fault-injection framework's disabled-path cost contract (one relaxed
// atomic load, no allocation) in a Release binary: every allocation in the
// process bumps a counter, and a million disabled evaluations must not
// move it. Same replacement-allocator pattern as test_obs / test_failpoint.
//
// GCC's -Wmismatched-new-delete pairs our malloc-backed replacement
// operator new with the free() inside our replacement operator delete at
// inlined STL call sites and mis-reports a mismatch; the replacement pair
// is consistent (new -> malloc, delete -> free) by construction.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace femto;

constexpr std::uint64_t kSeed = 20230306;

/// One daemon under test: either an external femtod child process or an
/// in-process SocketServer running the identical serving stack.
struct Daemon {
  std::string socket_path;
  pid_t pid = -1;
  std::unique_ptr<service::SocketServer> server;
  std::thread runner;
};

Daemon boot_daemon(const std::string& femtod, const std::string& socket_path,
                   const std::string& db_path) {
  Daemon d;
  d.socket_path = socket_path;
  if (!femtod.empty()) {
    std::vector<std::string> argv = {femtod, "--socket", socket_path,
                                     "--workers", "2"};
    if (!db_path.empty()) {
      argv.push_back("--db");
      argv.push_back(db_path);
    }
    d.pid = service::spawn_process(argv);
    if (d.pid < 0) {
      std::fprintf(stderr, "bench_service: failed to spawn %s\n",
                   femtod.c_str());
      std::exit(1);
    }
  } else {
    service::SocketServerOptions options;
    options.socket_path = socket_path;
    options.service.pipeline.workers = 2;
    if (!db_path.empty()) options.service.database_path = db_path;
    d.server = std::make_unique<service::SocketServer>(std::move(options));
    if (const std::string err = d.server->start(); !err.empty()) {
      std::fprintf(stderr, "bench_service: %s\n", err.c_str());
      std::exit(1);
    }
    d.runner = std::thread([srv = d.server.get()] { srv->run(); });
  }
  return d;
}

/// Graceful shutdown handshake + reap. True iff the drain acked and (for an
/// external daemon) the process exited 0.
bool shutdown_daemon(Daemon& d) {
  bool clean = false;
  if (auto conn = service::wait_for_server(d.socket_path, 2000)) {
    service::CompileClient client(std::move(*conn));
    clean = client.shutdown(/*cancel_queued=*/false);
  }
  if (d.pid > 0) {
    clean = service::wait_process(d.pid) == 0 && clean;
    d.pid = -1;
  } else if (d.runner.joinable()) {
    d.runner.join();
    d.server.reset();
  }
  ::unlink(d.socket_path.c_str());
  return clean;
}

std::optional<service::CompileClient> make_client(
    const std::string& socket_path) {
  auto conn = service::wait_for_server(socket_path, 10000);
  if (!conn.has_value()) return std::nullopt;
  return service::CompileClient(std::move(*conn));
}

/// A counter of the daemon's metrics registry; -1 when the op fails or the
/// counter is missing.
double metrics_counter(service::CompileClient& client, const char* name) {
  const auto metrics = client.metrics();
  const service::json::Value* counters =
      metrics.has_value() ? metrics->find("counters") : nullptr;
  const service::json::Value* v =
      counters != nullptr ? counters->find(name) : nullptr;
  return v != nullptr && v->is_number() ? v->as_double() : -1.0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return in ? out.str() : "";
}

/// The `failpoints` op on a fresh connection, retried: while service.recv
/// is armed the daemon may tear the admin connection down before reading
/// the line, so the op itself must be driven with retries. Arming and
/// disarming are idempotent, so a dropped reply is safe to re-send.
bool failpoints_op_retry(const std::string& socket_path,
                         const std::string& arm, const std::string& disarm) {
  for (int attempt = 0; attempt < 20; ++attempt) {
    auto client = make_client(socket_path);
    if (!client.has_value()) continue;
    std::string err;
    if (client->failpoints(arm, disarm, err).has_value()) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string femtod;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--daemon" && i + 1 < argc) {
      femtod = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--daemon <path-to-femtod>]\n", argv[0]);
      return 2;
    }
  }

  bench::Harness h("service");

  // ---- reference: the same seeded requests compiled in-process ----------
  h.section("reference");
  const std::vector<core::CompileScenario> scenarios =
      bench::suite_scenarios("small");
  std::vector<core::CompileRequest> requests;
  for (const core::CompileScenario& s : scenarios)
    requests.push_back({.scenarios = {s},
                        .restarts = 2,
                        .seed = kSeed,
                        .verify = true});
  core::CompilePipeline reference_pipeline({.workers = 2});
  std::vector<std::string> reference;
  for (const core::CompileRequest& r : requests) {
    const core::CompileResponse response = reference_pipeline.compile(r);
    if (!response.done()) {
      std::fprintf(stderr, "bench_service: reference compile failed: %s\n",
                   response.detail.c_str());
      return 1;
    }
    reference.push_back(service::protocol::canonical_response(response));
  }
  h.metric("info_requests", static_cast<double>(requests.size()));

  // The serve_cold clients send the suite under a seed of their own, so
  // every request they send is one the daemon has not served.
  const std::size_t kClients = 4;
  std::vector<std::vector<core::CompileRequest>> client_requests(kClients);
  std::vector<std::vector<std::string>> client_reference(kClients);
  for (std::size_t c = 0; c < kClients; ++c)
    for (core::CompileRequest r : requests) {
      r.seed = kSeed + 100 + c;
      client_reference[c].push_back(service::protocol::canonical_response(
          reference_pipeline.compile(r)));
      client_requests[c].push_back(std::move(r));
    }

  const std::string socket_base =
      "/tmp/femtod-bench-" + std::to_string(::getpid());
  Daemon daemon = boot_daemon(femtod, socket_base + "-1.sock", "");

  // ---- cold concurrent serving ------------------------------------------
  // One pass: every client sends its requests over its own connection and
  // byte-compares each answer with the in-process reference.
  std::atomic<int> mismatches{0};
  std::atomic<int> transport_errors{0};
  auto serve_pass = [&](const std::string& tag,
                        std::vector<double>& latencies_ms) {
    latencies_ms.assign(kClients * requests.size(), 0.0);
    return bench::time_once([&] {
      std::vector<std::thread> clients;
      for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          auto client = make_client(daemon.socket_path);
          if (!client.has_value()) {
            transport_errors.fetch_add(1);
            return;
          }
          for (std::size_t i = 0; i < requests.size(); ++i) {
            std::string err;
            const auto started = std::chrono::steady_clock::now();
            const auto served = client->compile(
                client_requests[c][i],
                tag + std::to_string(c) + "-" + std::to_string(i), err,
                /*include_circuit=*/true);
            latencies_ms[c * requests.size() + i] =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - started)
                    .count();
            if (!served.has_value()) {
              std::fprintf(stderr, "bench_service: compile failed: %s\n",
                           err.c_str());
              transport_errors.fetch_add(1);
            } else if (served->state != service::RequestState::kDone ||
                       served->canonical_response != client_reference[c][i]) {
              mismatches.fetch_add(1);
            }
          }
        });
      }
      for (std::thread& t : clients) t.join();
    });
  };
  const double plans = static_cast<double>(kClients * requests.size());

  h.section("serve_cold");
  std::vector<double> latencies_ms;
  const double cold_s = serve_pass("c", latencies_ms);
  h.metric("plans_per_s", cold_s > 0.0 ? plans / cold_s : 0.0);
  std::sort(latencies_ms.begin(), latencies_ms.end());
  h.metric("info_p50_ms", latencies_ms[latencies_ms.size() / 2]);
  h.metric("info_p99_ms", latencies_ms[latencies_ms.size() * 99 / 100]);
  h.metric("info_clients", static_cast<double>(kClients));

  // The same requests again: every one is a plan-store hit (info only).
  const double warm_s = serve_pass("w", latencies_ms);
  h.metric("info_warm_plans_per_s", warm_s > 0.0 ? plans / warm_s : 0.0);
  std::sort(latencies_ms.begin(), latencies_ms.end());
  h.metric("info_warm_p50_ms", latencies_ms[latencies_ms.size() / 2]);
  h.metric("served_equals_inprocess",
           mismatches.load() == 0 && transport_errors.load() == 0 ? 1.0 : 0.0);

  // ---- coalescing under a busy scheduler --------------------------------
  // The hammered request is one the daemon has not served yet (a fresh
  // seed): a served one would be answered from the plan store at submit
  // and never reach coalescing.
  h.section("coalesce");
  bool coalesce_ok = false;
  double coalesced_delta = -1.0;
  core::CompileRequest hammer_request = requests[0];
  hammer_request.seed = kSeed + 1;
  const std::string hammer_reference =
      service::protocol::canonical_response(
          reference_pipeline.compile(hammer_request));
  {
    auto metrics_client = make_client(daemon.socket_path);
    auto blocker_conn = service::wait_for_server(daemon.socket_path, 10000);
    if (metrics_client.has_value() && blocker_conn.has_value()) {
      const double submitted_before =
          metrics_counter(*metrics_client, "service.submitted");
      const double coalesced_before =
          metrics_counter(*metrics_client, "service.coalesced");
      // Occupy the scheduler with a long, differently-seeded request...
      core::CompileRequest blocker_request = requests[0];
      blocker_request.restarts = 100000;
      blocker_request.seed = 777;
      blocker_request.verify = false;
      service::json::Value msg = service::json::Value::object();
      msg.set("op", service::json::Value::string("compile"));
      msg.set("id", service::json::Value::string("blocker"));
      msg.set("include_circuit", service::json::Value::boolean(false));
      msg.set("request", service::protocol::encode_request(blocker_request));
      bool ok = blocker_conn->send_line(msg.encode());
      // ...then hammer it with identical seeded requests from 4 clients.
      const std::size_t kHammers = 4;
      std::vector<std::string> hammered(kHammers);
      std::atomic<int> hammer_errors{0};
      std::vector<std::thread> hammers;
      for (std::size_t t = 0; t < kHammers; ++t) {
        hammers.emplace_back([&, t] {
          auto client = make_client(daemon.socket_path);
          std::string err;
          const auto served =
              client.has_value()
                  ? client->compile(hammer_request, "h" + std::to_string(t),
                                    err, /*include_circuit=*/true)
                  : std::nullopt;
          if (served.has_value())
            hammered[t] = served->canonical_response;
          else
            hammer_errors.fetch_add(1);
        });
      }
      // Release the blocker only once every hammer is in flight (they all
      // sit behind it in the queue, so they must have coalesced by then).
      const auto poll_deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (metrics_counter(*metrics_client, "service.submitted") <
                 submitted_before + 1.0 + static_cast<double>(kHammers) &&
             std::chrono::steady_clock::now() < poll_deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      ok = blocker_conn->send_line(R"({"op":"cancel","id":"blocker"})") && ok;
      const auto blocker_deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(60);
      bool blocker_done = false;
      while (!blocker_done &&
             std::chrono::steady_clock::now() < blocker_deadline) {
        const auto line = blocker_conn->recv_line(1000);
        if (!line.has_value()) continue;
        const auto reply = service::json::parse(*line);
        if (!reply.has_value() || !reply->is_object()) break;
        const service::json::Value* op = reply->find("op");
        blocker_done = op != nullptr && op->is_string() &&
                       op->as_string() == "result";
      }
      for (std::thread& t : hammers) t.join();
      coalesced_delta =
          metrics_counter(*metrics_client, "service.coalesced") -
          coalesced_before;
      bool all_equal = hammer_errors.load() == 0;
      for (const std::string& c : hammered)
        all_equal = all_equal && c == hammer_reference;
      coalesce_ok = ok && blocker_done && all_equal &&
                    coalesced_delta == static_cast<double>(kHammers - 1);
    }
  }
  h.metric("coalesced_identical", coalesce_ok ? 1.0 : 0.0);
  h.metric("info_coalesced_delta", coalesced_delta);

  bool clean = shutdown_daemon(daemon);

  // ---- serving from a prebuilt compilation database ---------------------
  h.section("db_warm");
  const std::string db_path = socket_base + ".fdb";
  bool db_ok = false;
  {
    db::DatabaseBuilder builder;
    for (std::size_t i = 0; i < requests.size(); ++i)
      builder.insert(service::protocol::coalesce_key(requests[i]),
                     reference[i]);
    const std::string err = builder.write(db_path);
    if (!err.empty()) {
      std::fprintf(stderr, "bench_service: db build failed: %s\n",
                   err.c_str());
    } else {
      Daemon warm = boot_daemon(femtod, socket_base + "-2.sock", db_path);
      if (auto client = make_client(warm.socket_path)) {
        db_ok = true;
        for (std::size_t i = 0; i < requests.size(); ++i) {
          std::string cerr;
          const auto served =
              client->compile(requests[i], "w" + std::to_string(i), cerr,
                              /*include_circuit=*/true);
          db_ok = db_ok && served.has_value() &&
                  served->canonical_response == reference[i];
        }
      }

      // ---- deadline enforcement (same warm daemon) ----------------------
      core::CompileRequest doomed = requests[0];
      doomed.restarts = 100000;
      doomed.seed = 5;
      doomed.verify = false;
      doomed.deadline_s = 0.2;
      bool deadline_ok = false;
      double restarts_completed = -1.0;
      if (auto client = make_client(warm.socket_path)) {
        std::string derr;
        const auto served = client->compile(doomed, "doomed", derr,
                                            /*include_circuit=*/false);
        if (served.has_value()) {
          deadline_ok =
              served->state == service::RequestState::kDeadlineExceeded;
          if (!served->response.outcomes.empty())
            restarts_completed = static_cast<double>(
                served->response.outcomes[0].restarts_completed);
        }
      }
      clean = shutdown_daemon(warm) && clean;
      h.metric("db_warm_equals_inprocess", db_ok ? 1.0 : 0.0);
      h.section("deadline");
      h.metric("deadline_enforced", deadline_ok ? 1.0 : 0.0);
      h.metric("info_restarts_completed", restarts_completed);
    }
    ::unlink(db_path.c_str());
  }

  // ---- graceful shutdown ------------------------------------------------
  h.section("shutdown");
  h.metric("clean_shutdown", clean ? 1.0 : 0.0);

  // ---- chaos: failpoint cost, crash-safe rewrites, fleet under drops ----
  h.section("chaos");
  {
    // Disabled-cost contract: with nothing armed anywhere in the process,
    // FEMTO_FAILPOINT is one relaxed atomic load -- zero heap allocations
    // over a million evaluations. Must run before anything below arms.
    fail::registry().disarm_all();
    std::uint64_t fired = 0;
    const std::uint64_t before = g_allocations.load();
    for (int i = 0; i < 1000000; ++i)
      if (FEMTO_FAILPOINT("bench.disabled.probe")) ++fired;
    const std::uint64_t delta = g_allocations.load() - before;
    h.metric("failpoint_disabled_zero_alloc",
             delta == 0 && fired == 0 ? 1.0 : 0.0);
    h.metric("info_disabled_evaluations", 1e6);
  }
  {
    // Crash-safe persistence: a rewrite that fails short or cannot fsync
    // must leave the previously published .fdb byte-identical and
    // loadable (the torn-write *kill* variant runs in test_db and
    // femtod_chaos, where a forked child can die safely).
    const std::string chaos_db_path = socket_base + "-chaos.fdb";
    bool chaos_db_ok = false;
    db::DatabaseBuilder builder;
    for (std::size_t i = 0; i < requests.size(); ++i)
      builder.insert(service::protocol::coalesce_key(requests[i]),
                     reference[i]);
    if (builder.write(chaos_db_path).empty()) {
      const std::string bytes = read_file(chaos_db_path);
      fail::registry().arm_one({"db.write.short", 1.0, 1});
      const std::string short_err = builder.write(chaos_db_path);
      fail::registry().disarm_all();
      fail::registry().arm_one({"db.fsync", 1.0, 1});
      const std::string fsync_err = builder.write(chaos_db_path);
      fail::registry().disarm_all();
      std::string open_err;
      chaos_db_ok = !bytes.empty() && !short_err.empty() &&
                    !fsync_err.empty() &&
                    read_file(chaos_db_path) == bytes &&
                    db::Database::open(chaos_db_path, &open_err).has_value();
    }
    ::unlink(chaos_db_path.c_str());
    h.metric("chaos_db_survived", chaos_db_ok ? 1.0 : 0.0);
  }
  {
    // Fleet resilience: arm service.recv over the wire (works against the
    // in-process server and a forked femtod alike) and require a retrying
    // client fleet to land every response byte-identical to in-process.
    Daemon chaos_daemon = boot_daemon(femtod, socket_base + "-3.sock", "");
    const bool armed =
        failpoints_op_retry(chaos_daemon.socket_path, "service.recv:0.25:11",
                            "");
    std::atomic<int> fleet_failures{0};
    std::atomic<int> fleet_mismatches{0};
    const std::size_t kFleet = 2;
    std::vector<std::thread> fleet;
    for (std::size_t c = 0; c < kFleet; ++c) {
      fleet.emplace_back([&, c] {
        service::RetryPolicy policy;
        policy.max_attempts = 60;
        policy.base_delay_s = 0.005;
        policy.max_delay_s = 0.1;
        policy.seed = 40 + c;  // decorrelate the fleet's back-off
        service::CompileClient client(chaos_daemon.socket_path, policy);
        for (std::size_t i = 0; i < requests.size(); ++i) {
          std::string cerr;
          const auto served = client.compile_retry(
              requests[i], "x" + std::to_string(c) + "-" + std::to_string(i),
              cerr, /*include_circuit=*/true);
          if (!served.has_value() ||
              served->state != service::RequestState::kDone) {
            std::fprintf(stderr, "bench_service: chaos compile failed: %s\n",
                         cerr.c_str());
            fleet_failures.fetch_add(1);
          } else if (served->canonical_response != reference[i]) {
            fleet_mismatches.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : fleet) t.join();
    const bool disarmed =
        failpoints_op_retry(chaos_daemon.socket_path, "", "all");
    const bool chaos_clean = shutdown_daemon(chaos_daemon);
    h.metric("chaos_responses_identical",
             armed && disarmed && chaos_clean && fleet_failures.load() == 0 &&
                     fleet_mismatches.load() == 0
                 ? 1.0
                 : 0.0);
    h.metric("info_fleet_clients", static_cast<double>(kFleet));
  }

  return h.write_json() ? 0 : 1;
}
