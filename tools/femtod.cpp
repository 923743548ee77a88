// femtod: the long-running compilation service daemon.
//
// Boots one service::Service (a CompilePipeline behind a bounded queue and
// a plan store of completed responses), binds an AF_UNIX socket, and
// serves the JSON-line protocol of src/service/server.hpp: compile
// requests stream in, lifecycle-tracked tickets stream results back,
// identical in-flight requests coalesce onto one execution, and a repeat
// of a completed request is answered from the plan store without running.
//
//   femtod --socket <path> [--workers N] [--max-queue N] [--db <path.fdb>]
//          [--default-deadline S] [--trace-dir <dir>] [--log]
//          [--degrade-on-db-error]
//
// --db backs the plan store with a prebuilt `femto-db build` file: a
// request whose canonical bytes match an entry is served its stored
// response. The file is opened once; a missing or corrupt one is a boot
// failure (exit 2). --degrade-on-db-error turns that into DEGRADED
// serving: a loud stderr line, the service.degraded gauge raised, and
// every request compiled -- byte-identical to a daemon that never had a
// database (it only holds responses the compile produces anyway). The
// `metrics` op reports the gauge, so fleets can alert on it.
//
// --trace-dir enables per-request tracing: every completed work writes a
// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing) to
// <dir>/request-<id>.json, and the `trace` wire op serves the most recent
// one. The `metrics` op (always available) exports the unified metrics
// registry: the service.* request counters, plan-store hit/miss counters,
// request-latency percentiles, live queue gauges.
//
// Prints "femtod: serving on <path>" once the socket accepts connections
// (drivers wait for the line OR poll-connect the socket). Shuts down on
// the protocol's shutdown op or on SIGTERM/SIGINT, draining gracefully:
// in-flight and queued work finishes, then the socket is torn down and a
// final line of the registry's service.* counters is printed. Exit 0 on a clean drain, 2 on usage/setup
// errors.
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <sys/stat.h>

#include "common/failpoint.hpp"
#include "obs/metrics.hpp"
#include "service/server.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

int usage() {
  std::fprintf(stderr,
               "usage: femtod --socket <path> [--workers N] [--max-queue N] "
               "[--db <path.fdb>] [--default-deadline S] "
               "[--trace-dir <dir>] [--log] [--degrade-on-db-error]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace femto;

  std::string socket_path;
  service::ServiceOptions service_options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--socket") {
      const char* v = value();
      if (v == nullptr) return usage();
      socket_path = v;
    } else if (arg == "--workers") {
      const char* v = value();
      if (v == nullptr) return usage();
      service_options.pipeline.workers =
          static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--max-queue") {
      const char* v = value();
      if (v == nullptr) return usage();
      service_options.max_queue = static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--db") {
      const char* v = value();
      if (v == nullptr) return usage();
      service_options.database_path = v;
    } else if (arg == "--default-deadline") {
      const char* v = value();
      if (v == nullptr) return usage();
      service_options.default_deadline_s = std::atof(v);
    } else if (arg == "--trace-dir") {
      const char* v = value();
      if (v == nullptr) return usage();
      service_options.trace_dir = v;
    } else if (arg == "--log") {
      service_options.log = true;
    } else if (arg == "--degrade-on-db-error") {
      service_options.degrade_on_db_error = true;
    } else {
      return usage();
    }
  }
  if (socket_path.empty() || service_options.max_queue == 0) return usage();

  if (!service_options.trace_dir.empty()) {
    // Create the directory up front so the first trace write cannot fail
    // silently mid-serve; an existing directory is fine.
    if (::mkdir(service_options.trace_dir.c_str(), 0755) != 0 &&
        errno != EEXIST) {
      std::fprintf(stderr, "femtod: cannot create trace dir %s: %s\n",
                   service_options.trace_dir.c_str(), std::strerror(errno));
      return 2;
    }
  }

  // Force FEMTO_FAILPOINTS parsing now: a malformed spec must kill the
  // boot, not the first armed evaluation mid-serve.
  static_cast<void>(fail::registry());

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  service::SocketServer server(
      {.socket_path = socket_path, .service = service_options});
  if (const std::string err = server.start(); !err.empty()) {
    std::fprintf(stderr, "femtod: %s\n", err.c_str());
    return 2;
  }
  std::printf("femtod: serving on %s (workers %zu, queue %zu%s)\n",
              socket_path.c_str(),
              server.service().worker_count(),
              service_options.max_queue,
              service_options.database_path.empty() ? ""
              : server.service().degraded()          ? ", db DEGRADED"
                                                     : ", db attached");
  std::fflush(stdout);

  server.run([] { return g_stop != 0; });

  // One Service per process, so the registry's counts are this daemon's.
  const auto count = [](const char* name) {
    return static_cast<unsigned long long>(
        obs::registry().counter(name).value());
  };
  std::printf(
      "femtod: drained; submitted %llu (coalesced %llu) -> done %llu, "
      "cancelled %llu, deadline %llu, rejected %llu; %llu works run, "
      "%llu plans served\n",
      count("service.submitted"), count("service.coalesced"),
      count("service.done"), count("service.cancelled"),
      count("service.deadline_exceeded"), count("service.rejected"),
      count("service.works_run"), count("service.plans_served"));
  return 0;
}
