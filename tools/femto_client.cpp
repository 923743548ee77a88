// femto-client: command-line client for a running femtod, plus the
// self-contained daemon smoke test CI runs as a ctest.
//
//   femto-client --socket <path> ping
//   femto-client --socket <path> metrics
//       Fetches the daemon's unified metrics registry (obs/metrics.hpp) --
//       the service.* request counters and live queue gauges included --
//       and pretty-prints counters, gauges, and latency-histogram
//       percentiles.
//   femto-client --socket <path> trace
//       Fetches the most recent completed request's Chrome trace-event
//       JSON (daemon must run with --trace-dir) and prints it to stdout --
//       pipe to a file and load in Perfetto / chrome://tracing.
//   femto-client --socket <path> shutdown [--cancel]
//   femto-client --socket <path> compile <scenarios.jsonl>
//       Submits every canonical protocol scenario in the file (one per
//       line, as written by `femto-db export-scenarios`) as its own
//       one-scenario request -- one restart, verify on: the request
//       `femto-db build --scenarios` stores, so a femtod whose --db was
//       built from the same file answers every one from the file -- and
//       prints each plan summary. Exit 1 unless every request is DONE.
//
//   femto-client --smoke <path-to-femtod>
//       Boots a fresh femtod (with tracing on) on a private socket, pings
//       it, compiles a small seeded UCCSD scenario through the daemon AND
//       in-process on an identical pipeline, and FAILS unless the two
//       canonical response encodings are byte-identical (the serving
//       determinism contract). Then round-trips the `metrics` op (the
//       registry must report the work and a request-latency histogram) and
//       the `trace` op (the served request's span tree must contain the
//       queue-wait, run, restart, and per-stage spans). Finishes with a
//       graceful shutdown handshake and checks the daemon exits 0. This is
//       the `femtod_smoke` ctest.
//
// Exit codes: 0 ok, 1 contract/request failure, 2 usage/transport error.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <signal.h>
#include <unistd.h>

#include "service/client.hpp"
#include "service/server.hpp"

namespace {

using namespace femto;

int usage() {
  std::fprintf(
      stderr,
      "usage: femto-client --socket <path> "
      "ping|metrics|trace|shutdown [--cancel]\n"
      "       femto-client --socket <path> compile <scenarios.jsonl>\n"
      "       femto-client --smoke <path-to-femtod>\n");
  return 2;
}

/// A small deterministic UCCSD-shaped scenario (no chemistry stack): 4
/// spin-orbitals, one double + two singles, advanced pipeline, tiny solver
/// budgets. Fast enough for a smoke test, rich enough to exercise
/// synthesis, compression, and verification.
core::CompileScenario smoke_scenario() {
  core::CompileScenario s;
  s.name = "smoke/uccsd4";
  s.num_qubits = 4;
  s.terms = {fermion::ExcitationTerm::make_double(2, 3, 0, 1),
             fermion::ExcitationTerm::single(2, 0),
             fermion::ExcitationTerm::single(3, 1)};
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
  return s;
}

int cmd_smoke(const std::string& femtod_path) {
  const std::string socket_path =
      "/tmp/femtod-smoke-" + std::to_string(::getpid()) + ".sock";
  const std::string trace_dir =
      "/tmp/femtod-smoke-" + std::to_string(::getpid()) + "-traces";
  const pid_t pid = service::spawn_process({femtod_path, "--socket",
                                            socket_path, "--workers", "2",
                                            "--trace-dir", trace_dir});
  if (pid < 0) {
    std::fprintf(stderr, "smoke: cannot spawn %s\n", femtod_path.c_str());
    return 2;
  }

  auto conn = service::wait_for_server(socket_path);
  if (!conn.has_value()) {
    std::fprintf(stderr, "smoke: daemon socket never came up\n");
    ::kill(pid, SIGKILL);
    (void)service::wait_process(pid);
    return 1;
  }
  service::CompileClient client(std::move(*conn));
  if (!client.ping()) {
    std::fprintf(stderr, "smoke: ping failed\n");
    ::kill(pid, SIGKILL);
    (void)service::wait_process(pid);
    return 1;
  }

  core::CompileRequest request;
  request.scenarios = {smoke_scenario()};
  request.restarts = 2;
  request.seed = 20230306;
  request.verify = true;

  std::string err;
  const auto served = client.compile(request, "smoke-1", err,
                                     /*include_circuit=*/true);
  if (!served.has_value()) {
    std::fprintf(stderr, "smoke: compile failed: %s\n", err.c_str());
    ::kill(pid, SIGKILL);
    (void)service::wait_process(pid);
    return 1;
  }

  // The same request, in-process, on an identically configured pipeline.
  core::CompilePipeline pipeline({.workers = 2});
  const core::CompileResponse local = pipeline.compile(request);
  const std::string local_canonical =
      service::protocol::canonical_response(local);

  int rc = 0;
  if (served->state != service::RequestState::kDone) {
    std::fprintf(stderr, "smoke: daemon state %s, want DONE\n",
                 to_string(served->state));
    rc = 1;
  } else if (served->canonical_response != local_canonical) {
    std::fprintf(stderr,
                 "smoke: daemon response differs from in-process compile\n"
                 "  daemon: %s\n  local:  %s\n",
                 served->canonical_response.c_str(), local_canonical.c_str());
    rc = 1;
  } else if (served->response.outcomes.size() != 1 ||
             !served->response.outcomes[0].verified.value_or(false)) {
    std::fprintf(stderr, "smoke: served plan did not verify\n");
    rc = 1;
  }

  // Metrics round-trip: after one served compile the registry must report
  // the work and at least one request-latency sample.
  const auto metrics = client.metrics();
  if (!metrics.has_value()) {
    std::fprintf(stderr, "smoke: metrics op failed\n");
    rc = 1;
  } else {
    const auto counter_at_least_one = [&](const char* name) {
      const service::json::Value* counters = metrics->find("counters");
      const service::json::Value* v =
          counters != nullptr ? counters->find(name) : nullptr;
      if (v == nullptr || std::atof(v->as_string().c_str()) < 1.0) {
        std::fprintf(stderr, "smoke: metrics counter %s missing or zero\n",
                     name);
        rc = 1;
      }
    };
    counter_at_least_one("service.works_run");
    counter_at_least_one("pipeline.compiles");
    const service::json::Value* hists = metrics->find("histograms");
    const service::json::Value* latency =
        hists != nullptr ? hists->find("service.request_latency_s") : nullptr;
    const service::json::Value* count =
        latency != nullptr ? latency->find("count") : nullptr;
    if (count == nullptr || std::atof(count->as_string().c_str()) < 1.0) {
      std::fprintf(stderr,
                   "smoke: request-latency histogram missing or empty\n");
      rc = 1;
    }
  }

  // Trace fetch: the served request's span tree must contain the
  // queue-wait, run, per-restart, and per-stage spans (the ISSUE's
  // acceptance shape for a single compile request).
  const auto trace = client.trace(err);
  if (!trace.has_value()) {
    std::fprintf(stderr, "smoke: trace op failed: %s\n", err.c_str());
    rc = 1;
  } else {
    const service::json::Value* events = trace->find("traceEvents");
    const auto has_span = [&](const char* name) {
      if (events == nullptr || !events->is_array()) return false;
      for (const auto& e : events->items()) {
        const service::json::Value* n = e.find("name");
        if (n != nullptr && n->is_string() && n->as_string() == name)
          return true;
      }
      return false;
    };
    for (const char* span : {"queue_wait", "run", "restart", "stage_plan",
                             "stage_transform", "stage_emit"}) {
      if (!has_span(span)) {
        std::fprintf(stderr, "smoke: trace missing span \"%s\"\n", span);
        rc = 1;
      }
    }
  }

  if (!client.shutdown()) {
    std::fprintf(stderr, "smoke: shutdown handshake failed\n");
    rc = rc == 0 ? 1 : rc;
  }
  const int exit_code = service::wait_process(pid);
  if (exit_code != 0) {
    std::fprintf(stderr, "smoke: daemon exited %d, want 0\n", exit_code);
    rc = rc == 0 ? 1 : rc;
  }
  if (rc == 0)
    std::printf(
        "smoke: ok (served == in-process, %d model CNOTs, verified, "
        "metrics+trace round-trip, clean shutdown)\n",
        served->response.outcomes[0].model_cnots);
  return rc;
}

int cmd_metrics(service::CompileClient& client) {
  const auto msg = client.metrics();
  if (!msg.has_value()) {
    std::fprintf(stderr, "femto-client: metrics failed\n");
    return 1;
  }
  const auto print_scalars = [](const char* title,
                                const service::json::Value* section) {
    if (section == nullptr || !section->is_object() ||
        section->members().empty())
      return;
    std::printf("# %s\n", title);
    for (const auto& [name, value] : section->members())
      std::printf("  %-32s %s\n", name.c_str(),
                  value.as_string().c_str());
  };
  print_scalars("counters", msg->find("counters"));
  print_scalars("gauges", msg->find("gauges"));
  const service::json::Value* hists = msg->find("histograms");
  if (hists != nullptr && hists->is_object() && !hists->members().empty()) {
    std::printf("# histograms\n");
    std::printf("  %-32s %10s %12s %10s %10s %10s\n", "name", "count",
                "sum_s", "p50_s", "p95_s", "p99_s");
    for (const auto& [name, h] : hists->members()) {
      const auto field = [&](const char* key) -> std::string {
        const service::json::Value* v = h.find(key);
        return v != nullptr ? v->as_string() : "?";
      };
      std::printf("  %-32s %10s %12s %10s %10s %10s\n", name.c_str(),
                  field("count").c_str(), field("sum_s").c_str(),
                  field("p50_s").c_str(), field("p95_s").c_str(),
                  field("p99_s").c_str());
    }
  }
  return 0;
}

int cmd_trace(service::CompileClient& client) {
  std::string err;
  const auto trace = client.trace(err);
  if (!trace.has_value()) {
    std::fprintf(stderr, "femto-client: trace failed: %s\n", err.c_str());
    return 1;
  }
  std::printf("%s\n", trace->encode().c_str());
  return 0;
}

int cmd_compile(service::CompileClient& client, const std::string& path) {
  std::string err;
  std::vector<core::CompileScenario> scenarios =
      service::protocol::read_scenario_file(path, err);
  if (scenarios.empty()) {
    std::fprintf(stderr, "femto-client: %s\n", err.c_str());
    return 2;
  }
  int rc = 0;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const std::string name = scenarios[i].name;
    const core::CompileRequest request{
        .scenarios = {std::move(scenarios[i])}, .restarts = 1, .verify = true};
    const auto served =
        client.compile(request, "cli-" + std::to_string(i + 1), err);
    if (!served.has_value()) {
      std::fprintf(stderr, "femto-client: %s: %s\n", name.c_str(),
                   err.c_str());
      return 1;
    }
    if (served->state != service::RequestState::kDone) rc = 1;
    std::printf("%-16s %s%s\n", name.c_str(), to_string(served->state),
                served->coalesced ? " (coalesced)" : "");
    for (const auto& o : served->response.outcomes)
      std::printf("  model CNOTs %-5d device cost %-5d verified %s\n",
                  o.model_cnots, o.device_cost,
                  o.verified.value_or(false) ? "yes" : "no");
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path, smoke_path, command, operand;
  bool cancel = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--socket") {
      const char* v = value();
      if (v == nullptr) return usage();
      socket_path = v;
    } else if (arg == "--smoke") {
      const char* v = value();
      if (v == nullptr) return usage();
      smoke_path = v;
    } else if (arg == "--cancel") {
      cancel = true;
    } else if (command.empty()) {
      command = arg;
    } else if (operand.empty()) {
      operand = arg;
    } else {
      return usage();
    }
  }
  if (!smoke_path.empty()) return cmd_smoke(smoke_path);
  if (socket_path.empty() || command.empty()) return usage();

  auto conn = service::wait_for_server(socket_path, /*timeout_ms=*/2000);
  if (!conn.has_value()) {
    std::fprintf(stderr, "femto-client: cannot connect to %s\n",
                 socket_path.c_str());
    return 2;
  }
  service::CompileClient client(std::move(*conn));
  if (command == "ping") {
    if (!client.ping()) {
      std::fprintf(stderr, "femto-client: ping failed\n");
      return 1;
    }
    std::printf("pong\n");
    return 0;
  }
  if (command == "metrics") return cmd_metrics(client);
  if (command == "trace") return cmd_trace(client);
  if (command == "shutdown") {
    if (!client.shutdown(cancel)) {
      std::fprintf(stderr, "femto-client: shutdown failed\n");
      return 1;
    }
    std::printf("shutting down (%s)\n", cancel ? "cancel" : "graceful");
    return 0;
  }
  if (command == "compile" && !operand.empty())
    return cmd_compile(client, operand);
  return usage();
}
