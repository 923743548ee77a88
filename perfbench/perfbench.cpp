// perfbench: the measuring half of the repository benchmark; run.py in this
// directory builds it, drives it and turns its raw numbers into metrics.
//
//   perfbench table1-baseline|table1-adv --out FILE [--seconds S]
//             [--trace-out FILE]
//   perfbench serve --femtod BIN --socket PATH --seed N --out FILE
//             [--seconds S] [--trace-out FILE --trace-dir DIR]
//   perfbench stream --seed N      print the serve request stream
//
// One invocation runs one workload. It builds the chemistry fixtures, then
// replays the workload's whole input as timed passes until --seconds have
// elapsed (at least one pass), rebuilding the fixtures between rows and
// passes and booting one femtod per serve pass, so that at least kSetupReps
// set-up samples spread over the run. A fixed pointer chase follows as a
// host indicator. With --trace-out it then runs one more pass under
// obs::Tracer, wrapping every benchmark call in its own span, and writes the
// Chrome trace there. Raw measurements go to --out as JSON. Why each
// workload exists and what each metric should move: README.md.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <csignal>
#include <sys/types.h>
#include <unistd.h>

#include "chem/integrals.hpp"
#include "chem/mo_integrals.hpp"
#include "chem/molecules.hpp"
#include "chem/scf.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "vqe/uccsd.hpp"

namespace {

using namespace femto;
using Clock = std::chrono::steady_clock;
using json = service::json::Value;

constexpr std::size_t kSetupReps = 5;  // at least this many set-up samples
constexpr double kSetupSpacingS = 1.5;
constexpr std::size_t kClients = 2;
constexpr std::size_t kColdPerScenario = 12;  // per client: 60 cold, 60 warm
constexpr std::size_t kServeRestarts = 2;
constexpr std::size_t kServeWorkers = 2;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

// ---- workload inputs --------------------------------------------------------

struct Fixture {
  std::size_t n = 0;
  std::vector<fermion::ExcitationTerm> terms;  // HMP2-ranked, all of them
};

/// Molecule -> STO-3G -> RHF -> MO -> spin orbitals -> HMP2-ranked UCCSD
/// terms: the chain bench/bench_fixtures.hpp caches per process, rebuilt
/// here uncached so set-up can be timed several times in one run.
Fixture build_fixture(const chem::Molecule& mol) {
  auto basis = chem::build_sto3g(mol);
  chem::normalize_basis(basis);
  const auto ints = chem::compute_integrals(mol, basis);
  const auto scf = chem::run_rhf(mol, ints);
  if (!scf.converged) die("RHF did not converge for " + mol.name);
  const auto mo = chem::transform_to_mo(mol, ints, scf);
  const auto so = chem::to_spin_orbitals(mo);
  return {so.n, vqe::uccsd_hmp2_terms(so)};
}

struct Row {
  std::string label;
  chem::Molecule mol;
  std::size_t ne;  // leading HMP2 terms kept
};

/// The 14 Table-1 rows, or the `small` suite femtod serves.
std::vector<Row> rows_for(const std::string& workload) {
  std::vector<Row> rows = {{"HF", chem::make_hf(), 3},
                           {"LiH", chem::make_lih(), 3}};
  if (workload == "serve") {
    for (std::size_t ne : {4, 5, 6})
      rows.push_back({"H2O(" + std::to_string(ne) + ")", chem::make_h2o(), ne});
    return rows;
  }
  rows.push_back({"BeH2", chem::make_beh2(), 9});
  rows.push_back({"NH3", chem::make_nh3(), 52});
  for (std::size_t ne : {4, 5, 6, 8, 9, 11, 12, 14, 16, 17})
    rows.push_back({"H2O(" + std::to_string(ne) + ")", chem::make_h2o(), ne});
  return rows;
}

/// Fixtures of every distinct molecule of `rows`, by molecule name.
std::map<std::string, Fixture> build_fixtures(const std::vector<Row>& rows) {
  std::map<std::string, Fixture> out;
  for (const Row& r : rows)
    if (out.find(r.mol.name) == out.end())
      out.emplace(r.mol.name, build_fixture(r.mol));
  return out;
}

/// Compile options of one Table-1 column with the Table-1 solver budgets
/// (the values of bench_fixtures.hpp's table1_column_options, fixed here so
/// the workload does not move when the repository's benches do), circuits
/// emitted so every counted plan can be certified.
core::CompileOptions column_options(const std::string& column,
                                    std::size_t num_terms) {
  core::CompileOptions opt;
  const bool large = num_terms > 20;
  opt.sa_options.steps = large ? 500 : 1500;
  opt.pso_options.iterations = large ? 12 : 60;
  opt.pso_options.particles = large ? 10 : 20;
  opt.gtsp_options.generations = large ? 80 : 250;
  opt.gtsp_options.population = large ? 24 : 32;
  opt.coloring_orders = 64;
  opt.sorting = core::SortingMode::kBaseline;
  opt.compression = core::CompressionMode::kBosonicOnly;
  if (column == "JW") {
    opt.transform = core::TransformKind::kJordanWigner;
  } else if (column == "BK") {
    opt.transform = core::TransformKind::kBravyiKitaev;
  } else if (column == "GT") {
    opt.transform = core::TransformKind::kBaselineGT;
  } else {  // Adv
    opt.transform = core::TransformKind::kAdvanced;
    opt.sorting = core::SortingMode::kAdvanced;
    opt.compression = core::CompressionMode::kHybrid;
  }
  opt.emit_circuit = true;
  return opt;
}

core::CompileScenario scenario_for(const Row& row, const Fixture& f,
                                   const std::string& column) {
  core::CompileScenario s;
  s.name = row.label + "/" + column;
  s.num_qubits = f.n;
  const std::size_t ne = std::min(row.ne, f.terms.size());
  s.terms.assign(f.terms.begin(),
                 f.terms.begin() + static_cast<std::ptrdiff_t>(ne));
  s.options = column_options(column, s.terms.size());
  return s;
}

// ---- host and registry probes ----------------------------------------------

/// Fixed pointer chase over 64 MiB, one cache line per node in a single
/// random cycle: every step misses the caches, so its time follows memory
/// contention on the host (an indicator beside the timings, never gated).
double mem_probe_s() {
  constexpr std::size_t kNodes = std::size_t{1} << 20;  // x 64 B = 64 MiB
  struct alignas(64) Node {
    std::uint32_t next;
  };
  std::vector<Node> nodes(kNodes);
  std::vector<std::uint32_t> order(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i)
    order[i] = static_cast<std::uint32_t>(i);
  std::uint64_t state = 0x6d656d70726f6265ULL;
  for (std::size_t i = kNodes - 1; i > 0; --i) {  // Sattolo: one cycle
    state = splitmix64(state);
    std::swap(order[i], order[state % i]);
  }
  for (std::size_t i = 0; i < kNodes; ++i)
    nodes[order[i]].next = order[(i + 1) % kNodes];
  const auto t0 = Clock::now();
  std::uint32_t p = 0;
  for (std::size_t step = 0; step < 2 * kNodes; ++step) p = nodes[p].next;
  const double dt = since(t0);
  if (p == kNodes) die("unreachable");  // keeps the chase live
  return dt;
}

/// Peak resident set (VmHWM) of a process, in kB; 0 when unreadable.
long peak_rss_kb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  return 0;
}

/// Registry counters and histogram sums whose deltas over a pass run.py
/// reads.
const char* const kRegistryNames[] = {
    "solver.sa_steps",   "solver.gtsp_generations",
    "solver.gtsp_solves", "pipeline.restarts_completed",
    "cache.l1_hits",     "cache.misses",
    "cache.l2_hits",     "service.works_run",
    "service.coalesced", "service.rejected",
    "service.request_latency_s", "service.queue_wait_s"};

std::map<std::string, double> counters_of(const obs::MetricsSnapshot& s) {
  std::map<std::string, double> out;
  for (const auto& [name, value] : s.counters)
    out[name] = static_cast<double>(value);
  for (const obs::HistogramView& h : s.histograms) out[h.name] = h.sum_s;
  return out;
}

/// Same view as counters_of, from a femtod `metrics` op reply.
std::map<std::string, double> counters_of(const json& reply) {
  std::map<std::string, double> out;
  if (const json* c = reply.find("counters"); c != nullptr && c->is_object())
    for (const auto& [name, v] : c->members()) out[name] = v.as_double();
  if (const json* h = reply.find("histograms"); h != nullptr && h->is_object())
    for (const auto& [name, v] : h->members())
      if (const json* sum = v.find("sum_s"); sum != nullptr)
        out[name] = sum->as_double();
  return out;
}

json deltas(const std::map<std::string, double>& before,
            const std::map<std::string, double>& after) {
  json out = json::object();
  for (const std::string name : kRegistryNames) {
    const auto a = after.find(name);
    const auto b = before.find(name);
    out.set(name, json::number((a == after.end() ? 0.0 : a->second) -
                               (b == before.end() ? 0.0 : b->second)));
  }
  return out;
}

json numbers(const std::vector<double>& xs) {
  json out = json::array();
  for (double x : xs) out.push(json::number(x));
  return out;
}

/// Tally of the plans of one pass, filled from results after its timer
/// stopped.
struct Tally {
  int attempted = 0;
  int done = 0;
  int certified = 0;
  int cnot_total = 0;            // emitted CNOTs, all_to_all_cnot plans
  int device_cost_total = 0;     // native entanglers, other targets
  int model_mismatch_cells = 0;  // all_to_all_cnot: model != emitted
  int gates_total = 0;           // gates of the synthesized circuits
  int routed_swaps = 0;
  int dense_fallbacks = 0;  // certified by the dense tier
  int inconsistent = 0;     // a reported count != the circuit's count

  void write_to(json& out) const {
    out.set("attempted", json::number(attempted));
    out.set("done", json::number(done));
    out.set("certified", json::number(certified));
    out.set("cnot_total", json::number(cnot_total));
    out.set("device_cost_total", json::number(device_cost_total));
    out.set("model_mismatch_cells", json::number(model_mismatch_cells));
    out.set("gates_total", json::number(gates_total));
    out.set("routed_swaps", json::number(routed_swaps));
    out.set("dense_fallbacks", json::number(dense_fallbacks));
    out.set("inconsistent", json::number(inconsistent));
  }
};

// ---- table1-baseline / table1-adv: one compile() per cell -------------------

struct Cell {
  core::CompileRequest request;
  std::string timer;  // per-layer timer the cell's compile() time adds to
  bool row_start = false;
};

std::vector<Cell> table_cells(const std::string& workload,
                              const std::vector<Row>& rows,
                              const std::map<std::string, Fixture>& fx) {
  std::vector<Cell> cells;
  for (const Row& row : rows) {
    const Fixture& f = fx.at(row.mol.name);
    const std::size_t first = cells.size();
    if (workload == "table1-baseline") {
      for (const auto& [column, timer] :
           {std::pair{"JW", "core.column_jw_s"},
            std::pair{"BK", "core.column_bk_s"},
            std::pair{"GT", "core.column_gt_s"}}) {
        Cell c;
        c.request.scenarios.push_back(scenario_for(row, f, column));
        c.request.verify = true;
        c.timer = timer;
        cells.push_back(std::move(c));
      }
    } else {
      for (const synth::HardwareTarget& t :
           {synth::HardwareTarget::all_to_all_cnot(),
            synth::HardwareTarget::trapped_ion_xx(),
            synth::HardwareTarget::linear_nn(f.n)}) {
        Cell c;
        c.request.scenarios.push_back(scenario_for(row, f, "Adv"));
        c.request.targets = {t};
        c.request.verify = true;
        c.timer = "core.target_" + t.name + "_s";
        cells.push_back(std::move(c));
      }
    }
    cells[first].row_start = true;
  }
  return cells;
}

void tally_outcome(const core::CompileResponse& resp, Tally& t) {
  ++t.attempted;
  if (!resp.done() || resp.outcomes.size() != 1) return;
  ++t.done;
  const core::ScenarioOutcome& oc = resp.outcomes.front();
  const core::CompileResult& best = oc.result.best;
  if (!oc.result.all_verified()) return;
  ++t.certified;
  for (const verify::EquivalenceReport& r : oc.result.verification)
    if (r.method == verify::EquivalenceMethod::kDenseSpotCheck)
      ++t.dense_fallbacks;
  t.gates_total += static_cast<int>(best.circuit.size());
  t.routed_swaps += best.routed_swaps;
  if (oc.target.is_all_to_all_cnot()) {
    t.cnot_total += best.emitted_cnots;
    if (best.model_cnots != best.emitted_cnots) ++t.model_mismatch_cells;
    if (best.circuit.cnot_count() != best.emitted_cnots ||
        best.device_cost != best.emitted_cnots)
      ++t.inconsistent;
  } else {
    t.device_cost_total += best.device_cost;
    if (oc.target.circuit_cost(best.final_circuit()) != best.device_cost)
      ++t.inconsistent;
  }
}

/// One pass over the cells. `between_rows` runs before each row (set-up
/// samples are taken there) and returns the seconds it spent, which the
/// pass's wall time leaves out.
json table_pass(const std::vector<Cell>& cells,
                const std::function<double()>& between_rows) {
  std::map<std::string, double> timers;
  for (const Cell& c : cells) timers[c.timer] += 0.0;
  std::vector<core::CompileResponse> responses;
  responses.reserve(cells.size());
  const auto before = counters_of(obs::registry().snapshot());
  double outside = 0.0;
  const auto t0 = Clock::now();
  {
    // A fresh pipeline per pass: every pass starts from the same empty
    // synthesis cache, as a new process would.
    core::CompilePipeline pipeline({.workers = 1});
    for (const Cell& c : cells) {
      if (c.row_start) outside += between_rows();
      obs::Span span("bench.cell", "bench");
      span.arg("cell", c.request.scenarios.front().name);
      const auto tc = Clock::now();
      responses.push_back(pipeline.compile(c.request));
      timers[c.timer] += since(tc);
    }
  }
  const double wall = since(t0) - outside;
  const auto after = counters_of(obs::registry().snapshot());
  Tally tally;
  for (const core::CompileResponse& r : responses) tally_outcome(r, tally);
  json pass = json::object();
  pass.set("wall_s", json::number(wall));
  json t = json::object();
  for (const auto& [name, s] : timers) t.set(name, json::number(s));
  pass.set("timers", std::move(t));
  pass.set("counters", deltas(before, after));
  tally.write_to(pass);
  return pass;
}

// ---- serve: femtod driven by a closed loop of two clients ------------------

struct StreamRequest {
  bool warm = false;
  std::size_t scenario = 0;
  std::uint64_t seed = 0;
};

/// Seeded draws: splitmix64 chained from the workload seed, so the stream
/// is the same on every platform and standard library.
class Draw {
 public:
  explicit Draw(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return state_ = splitmix64(state_); }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

/// Each client's request stream, a pure function of the workload seed:
/// kColdPerScenario cold requests per scenario, each with a fresh request
/// seed, in seeded order; every cold request is repeated byte for byte once,
/// later, as a warm request. The class and scenario counts are fixed; only
/// the order and the request seeds vary with the seed.
std::vector<std::vector<StreamRequest>> make_stream(std::uint64_t seed,
                                                    std::size_t scenarios) {
  std::vector<std::vector<StreamRequest>> out(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    Draw draw(derive_stream_seed(seed, c));
    std::vector<StreamRequest> cold;
    for (std::size_t s = 0; s < scenarios; ++s)
      for (std::size_t k = 0; k < kColdPerScenario; ++k)
        cold.push_back({false, s, 0});
    for (std::size_t i = cold.size() - 1; i > 0; --i)
      std::swap(cold[i], cold[draw.below(i + 1)]);
    for (StreamRequest& r : cold) r.seed = draw.next();
    std::vector<StreamRequest> pending;  // sent cold, not yet repeated
    std::size_t next_cold = 0;
    while (next_cold < cold.size() || !pending.empty()) {
      const std::size_t left = cold.size() - next_cold;
      if (left > 0 && draw.below(left + pending.size()) < left) {
        out[c].push_back(cold[next_cold]);
        pending.push_back(cold[next_cold++]);
      } else {
        const std::size_t k = draw.below(pending.size());
        StreamRequest warm = pending[k];
        warm.warm = true;
        out[c].push_back(warm);
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(k));
      }
    }
  }
  return out;
}

core::CompileRequest serve_request(const core::CompileScenario& s,
                                   std::uint64_t seed) {
  core::CompileRequest r;
  r.scenarios = {s};
  r.restarts = kServeRestarts;
  r.seed = seed;
  r.verify = true;
  return r;
}

struct Daemon {
  pid_t pid = -1;
  double boot_s = 0.0;
};

/// Spawns femtod and polls its socket every millisecond until a connection
/// is accepted; boot_s is spawn -> first accepted connection.
Daemon boot(const std::string& femtod, const std::string& socket,
            const std::string& trace_dir) {
  ::unlink(socket.c_str());
  std::vector<std::string> argv = {femtod, "--socket", socket, "--workers",
                                   std::to_string(kServeWorkers)};
  if (!trace_dir.empty()) {
    argv.push_back("--trace-dir");
    argv.push_back(trace_dir);
  }
  Daemon d;
  const auto t0 = Clock::now();
  d.pid = service::spawn_process(argv);
  if (d.pid < 0) die("cannot spawn " + femtod);
  for (;;) {
    service::ClientConnection probe;
    if (probe.connect(socket).empty()) break;
    if (since(t0) > 30.0) {
      ::kill(d.pid, SIGKILL);
      (void)service::wait_process(d.pid);
      die("femtod did not accept connections on " + socket);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  d.boot_s = since(t0);
  return d;
}

/// Graceful shutdown op, then reap; true iff acked and exit code 0.
bool shutdown(Daemon& d, const std::string& socket) {
  bool acked = false;
  service::ClientConnection conn;
  if (conn.connect(socket).empty()) {
    service::CompileClient admin(std::move(conn));
    acked = admin.shutdown(false, 60000);
  }
  if (!acked) ::kill(d.pid, SIGTERM);
  const bool clean = service::wait_process(d.pid) == 0 && acked;
  d.pid = -1;
  ::unlink(socket.c_str());
  return clean;
}

json metrics_op(const std::string& socket) {
  service::ClientConnection conn;
  if (!conn.connect(socket).empty()) die("metrics op: cannot connect");
  service::CompileClient admin(std::move(conn));
  std::optional<json> reply = admin.metrics(10000);
  if (!reply.has_value()) die("metrics op failed");
  return *reply;
}

/// One request of the closed loop, as its client saw it.
struct Answer {
  double latency_s = 0.0;
  bool warm = false;
  bool ok = false;         // DONE with one outcome
  bool certified = false;  // verified, and a warm answer is byte-identical
  bool repeat_differs = false;
  int cnots = 0;
  int model_cnots = 0;
  int gates = 0;
  bool inconsistent = false;
};

void run_client(const std::string& socket,
                const std::vector<StreamRequest>& stream,
                const std::vector<core::CompileScenario>& scenarios,
                std::size_t client, std::vector<Answer>& out) {
  service::ClientConnection conn;
  if (const std::string err = conn.connect(socket); !err.empty())
    std::fprintf(stderr, "perfbench: client %zu: %s\n", client, err.c_str());
  service::CompileClient cl(std::move(conn));
  std::map<std::pair<std::size_t, std::uint64_t>, std::string> first_answer;
  out.clear();
  out.reserve(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const StreamRequest& sr = stream[i];
    const core::CompileRequest req =
        serve_request(scenarios[sr.scenario], sr.seed);
    const std::string id =
        "c" + std::to_string(client) + "-" + std::to_string(i);
    std::string err;
    Answer s;
    s.warm = sr.warm;
    std::optional<service::Served> reply;
    {
      obs::Span span("bench.request", "bench");
      span.arg("id", id);
      const auto t0 = Clock::now();
      reply = cl.compile(req, id, err, /*include_circuit=*/true);
      s.latency_s = since(t0);
    }
    if (!reply.has_value())
      std::fprintf(stderr, "perfbench: request %s failed: %s\n", id.c_str(),
                   err.c_str());
    if (reply.has_value() && reply->state == service::RequestState::kDone &&
        reply->response.outcomes.size() == 1) {
      s.ok = true;
      const service::protocol::WireOutcome& oc = reply->response.outcomes[0];
      s.cnots = oc.emitted_cnots;
      s.model_cnots = oc.model_cnots;
      const auto circuit =
          service::protocol::decode_wire_circuit(oc.circuit_hex);
      s.inconsistent = !circuit.has_value() ||
                       circuit->cnot_count() != oc.emitted_cnots;
      if (circuit.has_value()) s.gates = static_cast<int>(circuit->size());
      s.certified = oc.verified.value_or(false);
      const auto key = std::make_pair(sr.scenario, sr.seed);
      if (!sr.warm) {
        first_answer[key] = reply->canonical_response;
      } else if (first_answer[key] != reply->canonical_response) {
        s.repeat_differs = true;
        s.certified = false;
      }
    }
    out.push_back(s);
  }
}

json serve_pass(const std::string& femtod, const std::string& socket,
                const std::string& trace_dir,
                const std::vector<std::vector<StreamRequest>>& stream,
                const std::vector<core::CompileScenario>& scenarios,
                std::vector<double>& boot_samples) {
  Daemon d = boot(femtod, socket, trace_dir);
  boot_samples.push_back(d.boot_s);
  const auto before = counters_of(metrics_op(socket));
  std::vector<std::vector<Answer>> served(kClients);
  const auto t0 = Clock::now();
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c)
      clients.emplace_back(run_client, std::cref(socket), std::cref(stream[c]),
                           std::cref(scenarios), c, std::ref(served[c]));
    for (std::thread& t : clients) t.join();
  }
  const double wall = since(t0);
  const auto after = counters_of(metrics_op(socket));
  const long rss_kb = peak_rss_kb(std::to_string(d.pid));
  const bool clean = shutdown(d, socket);

  Tally tally;
  std::vector<double> cold, warm;
  double round_trips = 0.0;
  int repeat_mismatches = 0;
  for (const std::vector<Answer>& client : served) {
    for (const Answer& s : client) {
      ++tally.attempted;
      (s.warm ? warm : cold).push_back(s.latency_s);
      round_trips += s.latency_s;
      if (s.repeat_differs) ++repeat_mismatches;
      if (!s.ok) continue;
      ++tally.done;
      if (s.inconsistent) ++tally.inconsistent;
      if (!s.certified) continue;
      ++tally.certified;
      tally.cnot_total += s.cnots;
      tally.gates_total += s.gates;
      if (s.model_cnots != s.cnots) ++tally.model_mismatch_cells;
    }
  }
  json pass = json::object();
  pass.set("wall_s", json::number(wall));
  pass.set("counters", deltas(before, after));
  tally.write_to(pass);
  pass.set("cold_s", numbers(cold));
  pass.set("warm_s", numbers(warm));
  pass.set("round_trip_total_s", json::number(round_trips));
  pass.set("repeat_mismatches", json::number(repeat_mismatches));
  pass.set("peak_rss_kb", json::number(static_cast<double>(rss_kb)));
  pass.set("clean_shutdown", json::boolean(clean));
  return pass;
}

// ---- command line -----------------------------------------------------------

struct Args {
  std::string workload, out, trace_out, trace_dir, femtod, socket;
  double seconds = 0.0;
  std::uint64_t seed = 0;
};

Args parse(int argc, char** argv) {
  if (argc < 2) die("usage: perfbench <workload> [options]; see perfbench.cpp");
  Args a;
  a.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) die("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--out") a.out = v;
    else if (flag == "--trace-out") a.trace_out = v;
    else if (flag == "--trace-dir") a.trace_dir = v;
    else if (flag == "--femtod") a.femtod = v;
    else if (flag == "--socket") a.socket = v;
    else if (flag == "--seconds") a.seconds = std::atof(v.c_str());
    else if (flag == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else die("unknown flag " + flag);
  }
  return a;
}

std::vector<core::CompileScenario> serve_scenarios(
    const std::vector<Row>& rows, const std::map<std::string, Fixture>& fx) {
  std::vector<core::CompileScenario> out;
  for (const Row& r : rows)
    out.push_back(scenario_for(r, fx.at(r.mol.name), "Adv"));
  return out;
}

int print_stream(const Args& a) {
  const std::vector<Row> rows = rows_for("serve");
  const auto scenarios = serve_scenarios(rows, build_fixtures(rows));
  const auto stream = make_stream(a.seed, scenarios.size());
  for (std::size_t c = 0; c < stream.size(); ++c)
    for (const StreamRequest& r : stream[c])
      std::printf("%zu %s %s\n", c, r.warm ? "warm" : "cold",
                  service::protocol::encode_request(
                      serve_request(scenarios[r.scenario], r.seed))
                      .encode()
                      .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (a.workload == "stream") return print_stream(a);
  const bool serve = a.workload == "serve";
  if (!serve && a.workload != "table1-baseline" && a.workload != "table1-adv")
    die("unknown workload " + a.workload);
  if (a.out.empty()) die("--out is required");
  if (serve && (a.femtod.empty() || a.socket.empty()))
    die("serve needs --femtod and --socket");
  std::signal(SIGPIPE, SIG_IGN);

  const std::vector<Row> rows = rows_for(a.workload);
  std::vector<double> fixture_s, boot_s;
  std::map<std::string, Fixture> fixtures;
  auto last_setup = Clock::now();
  auto setup = [&] {
    const auto t0 = Clock::now();
    fixtures = build_fixtures(rows);
    fixture_s.push_back(since(t0));
    last_setup = Clock::now();
    return since(t0);
  };
  // The host's speed drifts on sub-second scales, so set-up samples taken
  // back to back would share one drift epoch: spread them over the run,
  // one every kSetupSpacingS at the next row or pass boundary.
  auto setup_if_due = [&] {
    return since(last_setup) >= kSetupSpacingS ? setup() : 0.0;
  };
  setup();

  std::vector<Cell> cells;
  std::vector<core::CompileScenario> scenarios;
  std::vector<std::vector<StreamRequest>> stream;
  if (serve) {
    scenarios = serve_scenarios(rows, fixtures);
    stream = make_stream(a.seed, scenarios.size());
  } else {
    cells = table_cells(a.workload, rows, fixtures);
  }
  auto pass = [&](const std::string& trace_dir,
                  const std::function<double()>& between_rows) {
    return serve ? serve_pass(a.femtod, a.socket, trace_dir, stream, scenarios,
                              boot_s)
                 : table_pass(cells, between_rows);
  };

  json passes = json::array();
  const auto t0 = Clock::now();
  std::vector<double> walls;
  for (;;) {
    json p = pass("", setup_if_due);
    walls.push_back(p.find("wall_s")->as_double());
    passes.push(std::move(p));
    std::vector<double> sorted = walls;
    std::sort(sorted.begin(), sorted.end());
    if (since(t0) + sorted[sorted.size() / 2] > a.seconds) break;
    setup_if_due();
  }
  while (fixture_s.size() < kSetupReps) setup();
  // Serve boots one daemon per pass; top the boot samples up likewise.
  while (serve && boot_s.size() < kSetupReps) {
    Daemon d = boot(a.femtod, a.socket, "");
    boot_s.push_back(d.boot_s);
    if (!shutdown(d, a.socket)) die("femtod did not shut down cleanly");
  }
  // Read before the probe's 64 MiB would dominate the peak.
  const long own_rss_kb = peak_rss_kb("self");
  const double probe_s = mem_probe_s();

  json result = json::object();
  result.set("workload", json::string(a.workload));
  result.set("fixture_s", numbers(fixture_s));
  result.set("boot_s", numbers(boot_s));
  result.set("mem_probe_s", json::number(probe_s));
  result.set("peak_rss_kb", json::number(static_cast<double>(own_rss_kb)));
  result.set("passes", std::move(passes));

  if (!a.trace_out.empty()) {
    obs::Tracer tracer;
    obs::Tracer::set_active(&tracer);
    {
      obs::Span span("bench.fixture", "bench");
      fixtures = build_fixtures(rows);
    }
    json traced = pass(a.trace_dir, [] { return 0.0; });
    obs::Tracer::set_active(nullptr);
    std::ofstream(a.trace_out) << tracer.to_json();
    result.set("traced_pass", std::move(traced));
  }
  std::ofstream out(a.out);
  out << result.encode() << "\n";
  return out ? 0 : 2;
}
