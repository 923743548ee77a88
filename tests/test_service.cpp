// Tests for the compilation service stack (src/service/): the canonical
// JSON layer, the wire protocol round trip, the request lifecycle state
// machine (exhaustively, every one of the 7x7 edges), and the Service
// scheduler's admission / coalescing / cancellation / deadline / drain
// behavior, ending with a full socket loopback.
//
// The load-bearing property mirrors the pipeline's: a seeded request must
// produce a BYTE-IDENTICAL canonical response whether compiled in-process,
// through a cold service, coalesced with concurrent identical submissions,
// or answered from the plan store or a database file -- that is what makes
// femtod a cache you can trust rather than a nondeterministic middleman.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.hpp"
#include "db/database.hpp"
#include "obs/metrics.hpp"
#include "service/client.hpp"
#include "service/server.hpp"

namespace femto {
namespace {

using service::RequestState;

/// A small deterministic UCCSD-shaped scenario (no chemistry stack) that
/// still exercises transform, sorting, compression, synthesis, and
/// verification. Well under a millisecond per restart, so a blocker that
/// must stay running while later requests are submitted takes thousands of
/// restarts (it is cancelled at a restart boundary, or runs to completion
/// only where the test needs that).
core::CompileScenario tiny_scenario(const std::string& name) {
  core::CompileScenario s;
  s.name = name;
  s.num_qubits = 4;
  s.terms = {fermion::ExcitationTerm::make_double(2, 3, 0, 1),
             fermion::ExcitationTerm::single(2, 0),
             fermion::ExcitationTerm::single(3, 1)};
  s.options.transform = core::TransformKind::kAdvanced;
  s.options.sorting = core::SortingMode::kAdvanced;
  s.options.compression = core::CompressionMode::kHybrid;
  s.options.coloring_orders = 8;
  s.options.sa_options.steps = 150;
  s.options.pso_options.particles = 6;
  s.options.pso_options.iterations = 6;
  s.options.gtsp_options.population = 8;
  s.options.gtsp_options.generations = 15;
  s.options.emit_circuit = true;
  return s;
}

core::CompileRequest tiny_request(const std::string& name,
                                  std::size_t restarts = 1,
                                  std::uint64_t seed = 20230306) {
  core::CompileRequest r;
  r.scenarios = {tiny_scenario(name)};
  r.restarts = restarts;
  r.seed = seed;
  return r;
}

std::string canonical(const core::CompileResponse& response) {
  return service::protocol::encode_response(
             service::protocol::summarize(response, /*include_circuits=*/true))
      .encode();
}

/// What a ticket hands out is already the wire form.
std::string canonical(const service::protocol::WireResponse& response) {
  return service::protocol::encode_response(response).encode();
}

/// A registry counter; given `since`, only its growth after that snapshot.
/// The registry is process-global, so a test reads its own Service's counts
/// as deltas from a snapshot taken when it builds the Service.
std::uint64_t counter(const char* name,
                      const obs::MetricsSnapshot& since = {}) {
  std::uint64_t before = 0;
  for (const auto& [counter_name, value] : since.counters)
    if (counter_name == name) before = value;
  return obs::registry().counter(name).value() - before;
}

/// Tickets that reached a terminal state since `since`: every submitted
/// ticket ends in exactly one.
std::uint64_t terminals(const obs::MetricsSnapshot& since) {
  return counter("service.done", since) + counter("service.cancelled", since) +
         counter("service.deadline_exceeded", since) +
         counter("service.rejected", since);
}

/// Polls a ticket until it reaches `want` (terminal states stick, so a
/// missed intermediate observation fails loudly instead of hanging).
bool wait_for_state(const std::shared_ptr<service::Ticket>& t,
                    RequestState want, int timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const RequestState s = t->state();
    if (s == want) return true;
    if (service::is_terminal(s)) return false;
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// --- canonical JSON ---------------------------------------------------------

TEST(ServiceJson, EncodeParseIdentity) {
  const std::string text =
      R"({"a":1,"b":-2.5,"c":1e-3,"d":"x\"y\\z","e":[true,false,null],)"
      R"("f":{"nested":[1,2,3]},"g":18446744073709551615})";
  std::string err;
  const auto v = service::json::parse(text, &err);
  ASSERT_TRUE(v.has_value()) << err;
  // Canonical re-encode of canonical input is the identity -- the property
  // that makes value equality testable as byte equality.
  EXPECT_EQ(v->encode(), text);
  // u64 values survive losslessly (doubles would not hold 2^64-1).
  const service::json::Value* g = v->find("g");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->as_u64(), std::optional<std::uint64_t>(18446744073709551615u));
}

TEST(ServiceJson, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,2", "{\"a\":}", "{\"a\":1,}", "tru", "1 2",
        "{\"a\":1}trailing", "\"unterminated", "{\"a\":+1}", "[01]",
        "nulll", "{\"\\q\":1}"}) {
    std::string err;
    EXPECT_FALSE(service::json::parse(bad, &err).has_value())
        << "accepted malformed input: " << bad;
    EXPECT_FALSE(err.empty());
  }
  // Depth bomb: parser must refuse, not overflow the stack.
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  EXPECT_FALSE(service::json::parse(deep).has_value());
}

// --- protocol round trip ----------------------------------------------------

core::CompileScenario random_scenario(std::mt19937& rng, int index) {
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> small(0, 3);
  core::CompileScenario s;
  s.name = "rand-" + std::to_string(index);
  s.num_qubits = 6;
  s.terms = {fermion::ExcitationTerm::make_double(4, 5, 0, 1),
             fermion::ExcitationTerm::single(
                 4, static_cast<std::size_t>(small(rng)))};
  s.terms[0].mp2_estimate = 0.25 + 0.125 * small(rng);
  const core::TransformKind transforms[] = {
      core::TransformKind::kJordanWigner, core::TransformKind::kBravyiKitaev,
      core::TransformKind::kBaselineGT, core::TransformKind::kAdvanced};
  s.options.transform = transforms[small(rng)];
  s.options.sorting = coin(rng) != 0 ? core::SortingMode::kAdvanced
                                     : core::SortingMode::kBaseline;
  s.options.compression = coin(rng) != 0 ? core::CompressionMode::kHybrid
                                         : core::CompressionMode::kNone;
  s.options.coloring_orders = 1 + small(rng);
  s.options.sa_options.steps = 10 + small(rng);
  s.options.sa_options.t_initial = 1.5;
  s.options.pso_options.inertia = 0.5 + 0.0625 * small(rng);
  s.options.gtsp_options.mutation_rate = 0.125;
  s.options.seed = coin(rng) != 0 ? 0xFFFFFFFFFFFFFFFFull
                                  : static_cast<std::uint64_t>(rng());
  s.options.emit_circuit = coin(rng) != 0;
  if (coin(rng) != 0) {
    s.options.target = synth::HardwareTarget::trapped_ion_xx();
  } else if (coin(rng) != 0) {
    s.options.target = synth::HardwareTarget::linear_nn(6);
    s.options.emit_circuit = true;  // constrained targets must emit
  }
  return s;
}

TEST(ServiceProtocol, RequestRoundTripIsByteIdentical) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 25; ++trial) {
    core::CompileRequest request;
    const int scenario_count = 1 + static_cast<int>(rng() % 3);
    for (int i = 0; i < scenario_count; ++i)
      request.scenarios.push_back(random_scenario(rng, trial * 10 + i));
    if (rng() % 2 == 0)
      request.targets = {synth::HardwareTarget::all_to_all_cnot(),
                         synth::HardwareTarget::trapped_ion_xx()};
    request.restarts = 1 + rng() % 4;
    if (rng() % 2 == 0) request.seed = 0xFFFFFFFFFFFFFFFFull;
    request.deadline_s = (rng() % 2 == 0) ? 12.5 : 0.0;
    request.verify = rng() % 2 == 0;

    const std::string encoded =
        service::protocol::encode_request(request).encode();
    const auto parsed = service::json::parse(encoded);
    ASSERT_TRUE(parsed.has_value());
    core::CompileRequest decoded;
    std::string err;
    ASSERT_TRUE(service::protocol::decode_request(*parsed, decoded, err))
        << err;
    // Byte-identical re-encode == field-faithful decode, including every
    // solver knob and double (shortest-round-trip number tokens).
    EXPECT_EQ(service::protocol::encode_request(decoded).encode(), encoded);
  }
}

TEST(ServiceProtocol, DecodeRejectsBadInput) {
  auto decode = [](const std::string& text) {
    const auto v = service::json::parse(text);
    if (!v.has_value()) return std::string("unparseable");
    core::CompileRequest out;
    std::string err;
    if (service::protocol::decode_request(*v, out, err)) return std::string();
    return err.empty() ? std::string("?") : err;
  };
  EXPECT_NE(decode(R"({"scenarios":0})"), "");
  EXPECT_NE(decode(R"({"scenarios":[{"num_qubits":"x"}]})"), "");
  EXPECT_NE(decode(
                R"({"scenarios":[{"name":"a","num_qubits":4,"terms":)"
                R"([["q",0,1,0]],"options":{}}]})"),
            "");
  EXPECT_NE(
      decode(R"({"scenarios":[{"name":"a","num_qubits":4,"terms":[],)"
             R"("options":{"transform":"quantum"}}]})"),
      "");
  // Coupling edge endpoint out of range.
  EXPECT_NE(
      decode(R"({"scenarios":[],"targets":[{"name":"t","entangler":"cnot",)"
             R"("allow_routing":true,"routing_weight":3,)"
             R"("coupling":{"n":2,"edges":[[0,5]]}}]})"),
      "");
  EXPECT_NE(decode(R"({"restarts":-3})"), "");
  EXPECT_EQ(decode(R"({"scenarios":[]})"), "");  // empty but well-formed
}

TEST(ServiceProtocol, ResponseRoundTripCarriesCircuits) {
  core::CompilePipeline pipeline({.workers = 2});
  core::CompileRequest request = tiny_request("roundtrip", 2);
  request.verify = true;
  const core::CompileResponse response = pipeline.compile(request);
  ASSERT_TRUE(response.done());

  const service::protocol::WireResponse wire =
      service::protocol::summarize(response, /*include_circuits=*/true);
  ASSERT_EQ(wire.outcomes.size(), 1u);
  EXPECT_TRUE(wire.outcomes[0].verified.value_or(false));
  ASSERT_FALSE(wire.outcomes[0].circuit_hex.empty());

  const std::string encoded =
      service::protocol::encode_response(wire).encode();
  const auto parsed = service::json::parse(encoded);
  ASSERT_TRUE(parsed.has_value());
  service::protocol::WireResponse decoded;
  std::string err;
  ASSERT_TRUE(service::protocol::decode_response(*parsed, decoded, err))
      << err;
  EXPECT_EQ(service::protocol::encode_response(decoded).encode(), encoded);

  // The shipped circuit decodes into the exact emitted gate sequence.
  const auto circuit = service::protocol::decode_wire_circuit(
      decoded.outcomes[0].circuit_hex);
  ASSERT_TRUE(circuit.has_value());
  EXPECT_EQ(circuit->gates(),
            response.outcomes[0].result.best.final_circuit().gates());
}

// --- lifecycle: the whole 7x7 edge table ------------------------------------

TEST(ServiceLifecycle, EveryEdgeMatchesTheWhitelist) {
  using service::RequestLifecycle;
  struct Edge {
    RequestState from, to;
  };
  const Edge allowed[] = {
      {RequestState::kQueued, RequestState::kAdmitted},
      {RequestState::kQueued, RequestState::kRejected},
      {RequestState::kQueued, RequestState::kCancelled},
      {RequestState::kQueued, RequestState::kDeadlineExceeded},
      {RequestState::kAdmitted, RequestState::kRunning},
      {RequestState::kAdmitted, RequestState::kCancelled},
      {RequestState::kAdmitted, RequestState::kDeadlineExceeded},
      {RequestState::kRunning, RequestState::kDone},
      {RequestState::kRunning, RequestState::kCancelled},
      {RequestState::kRunning, RequestState::kDeadlineExceeded},
  };
  // A legal driving path into every state.
  auto drive_to = [](RequestState target) {
    RequestLifecycle lc;
    switch (target) {
      case RequestState::kQueued: break;
      case RequestState::kAdmitted: lc.advance(RequestState::kAdmitted); break;
      case RequestState::kRunning:
        lc.advance(RequestState::kAdmitted);
        lc.advance(RequestState::kRunning);
        break;
      case RequestState::kDone:
        lc.advance(RequestState::kAdmitted);
        lc.advance(RequestState::kRunning);
        lc.advance(RequestState::kDone);
        break;
      case RequestState::kCancelled: lc.advance(RequestState::kCancelled); break;
      case RequestState::kDeadlineExceeded:
        lc.advance(RequestState::kDeadlineExceeded);
        break;
      case RequestState::kRejected: lc.advance(RequestState::kRejected); break;
    }
    return lc;
  };
  int allowed_seen = 0;
  for (int f = 0; f < service::kRequestStateCount; ++f) {
    for (int t = 0; t < service::kRequestStateCount; ++t) {
      const auto from = static_cast<RequestState>(f);
      const auto to = static_cast<RequestState>(t);
      bool expect_allowed = false;
      for (const Edge& e : allowed)
        if (e.from == from && e.to == to) expect_allowed = true;
      EXPECT_EQ(service::transition_allowed(from, to), expect_allowed)
          << service::to_string(from) << " -> " << service::to_string(to);
      RequestLifecycle lc = drive_to(from);
      ASSERT_EQ(lc.state(), from);
      EXPECT_EQ(lc.try_advance(to), expect_allowed)
          << service::to_string(from) << " -> " << service::to_string(to);
      EXPECT_EQ(lc.state(), expect_allowed ? to : from)
          << "forbidden edge must not move the state";
      if (expect_allowed) ++allowed_seen;
    }
  }
  EXPECT_EQ(allowed_seen, 10) << "whitelist size drifted";
  // Terminal states absorb: no outgoing edge whatsoever.
  for (const RequestState s :
       {RequestState::kDone, RequestState::kCancelled,
        RequestState::kDeadlineExceeded, RequestState::kRejected}) {
    EXPECT_TRUE(service::is_terminal(s));
    for (int t = 0; t < service::kRequestStateCount; ++t)
      EXPECT_FALSE(
          service::transition_allowed(s, static_cast<RequestState>(t)));
  }
  for (int i = 0; i < service::kRequestStateCount; ++i) {
    const auto s = static_cast<RequestState>(i);
    EXPECT_EQ(service::parse_request_state(service::to_string(s)), s);
  }
}

// --- service scheduler ------------------------------------------------------

service::ServiceOptions small_service() {
  service::ServiceOptions o;
  o.pipeline = {.workers = 2};
  return o;
}

TEST(Service, ServedPlanIsByteIdenticalToInProcessCompile) {
  core::CompileRequest request = tiny_request("identity", 3);
  request.verify = true;

  core::CompilePipeline reference({.workers = 2});
  const std::string expected = canonical(reference.compile(request));

  service::Service svc(small_service());
  const obs::MetricsSnapshot base = obs::registry().snapshot();
  const auto ticket = svc.submit(request);
  const service::protocol::WireResponse& served = ticket->wait();
  EXPECT_EQ(ticket->state(), RequestState::kDone);
  EXPECT_FALSE(ticket->coalesced());
  EXPECT_EQ(canonical(served), expected);

  // Same request again: answered from the plan store without running, and
  // the answer must still be the same bytes.
  const auto warm = svc.submit(request);
  EXPECT_EQ(canonical(warm->wait()), expected);

  EXPECT_EQ(counter("service.submitted", base), 2u);
  EXPECT_EQ(counter("service.done", base), 2u);
  EXPECT_EQ(counter("service.works_run", base), 1u);
  EXPECT_EQ(terminals(base), counter("service.submitted", base));
}

TEST(Service, InvalidRequestRejectsBeforeQueueing) {
  service::Service svc(small_service());
  const obs::MetricsSnapshot base = obs::registry().snapshot();
  core::CompileRequest bad = tiny_request("bad");
  bad.restarts = 0;
  bool callback_fired = false;
  const auto ticket = svc.submit(bad, [&](service::Ticket& t) {
    callback_fired = true;
    EXPECT_EQ(t.state(), RequestState::kRejected);
  });
  EXPECT_EQ(ticket->state(), RequestState::kRejected);
  EXPECT_TRUE(callback_fired) << "rejection callback must fire synchronously";
  EXPECT_NE(ticket->wait().detail.find("invalid request"), std::string::npos);
  EXPECT_EQ(counter("service.rejected", base), 1u);
  EXPECT_EQ(counter("service.works_run", base), 0u);
}

TEST(Service, QueueFullRejectsLoudly) {
  service::ServiceOptions options = small_service();
  options.max_queue = 2;
  service::Service svc(options);
  const obs::MetricsSnapshot base = obs::registry().snapshot();
  // Occupy the scheduler so subsequent submits stay queued.
  const auto blocker = svc.submit(tiny_request("blocker", 5000));
  ASSERT_TRUE(wait_for_state(blocker, RequestState::kRunning));
  const auto q1 = svc.submit(tiny_request("q1"));
  const auto q2 = svc.submit(tiny_request("q2"));
  const auto overflow = svc.submit(tiny_request("q3"));
  EXPECT_EQ(overflow->state(), RequestState::kRejected);
  EXPECT_NE(overflow->wait().detail.find("queue full"), std::string::npos);
  svc.cancel(blocker);
  EXPECT_TRUE(q1->wait().done());
  EXPECT_TRUE(q2->wait().done());
  EXPECT_EQ(counter("service.rejected", base), 1u);
}

TEST(Service, CancelWhileQueuedNeverRuns) {
  service::Service svc(small_service());
  const obs::MetricsSnapshot base = obs::registry().snapshot();
  const auto blocker = svc.submit(tiny_request("blocker", 5000));
  ASSERT_TRUE(wait_for_state(blocker, RequestState::kRunning));
  const auto victim = svc.submit(tiny_request("victim"));
  EXPECT_EQ(victim->state(), RequestState::kQueued);
  svc.cancel(victim);
  EXPECT_EQ(victim->state(), RequestState::kCancelled);
  EXPECT_EQ(victim->wait().status, core::RequestStatus::kCancelled);
  svc.cancel(blocker);
  svc.drain(/*cancel_queued=*/false);
  // The victim's work was dropped before running: only the blocker ran.
  EXPECT_EQ(counter("service.works_run", base), 1u);
  EXPECT_EQ(counter("service.cancelled", base), 2u);
}

TEST(Service, CancelDuringRunningStopsAtRestartBoundary) {
  service::Service svc(small_service());
  const obs::MetricsSnapshot base = obs::registry().snapshot();
  const auto started = std::chrono::steady_clock::now();
  const auto ticket = svc.submit(tiny_request("cancel-running", 500));
  ASSERT_TRUE(wait_for_state(ticket, RequestState::kRunning));
  svc.cancel(ticket);
  EXPECT_EQ(ticket->state(), RequestState::kCancelled);
  svc.drain(/*cancel_queued=*/false);  // scheduler observed the flag and quit
  const auto elapsed = std::chrono::steady_clock::now() - started;
  // 500 restarts would take many seconds; cooperative cancel must cut the
  // run short at a restart boundary.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            30);
  EXPECT_EQ(counter("service.cancelled", base), 1u);
  EXPECT_EQ(counter("service.works_run", base), 1u);
}

TEST(Service, DeadlineExceededMidRequest) {
  service::Service svc(small_service());
  core::CompileRequest request = tiny_request("deadline-mid", 2000);
  request.deadline_s = 0.15;
  const auto ticket = svc.submit(request);
  const service::protocol::WireResponse& response = ticket->wait();
  EXPECT_EQ(ticket->state(), RequestState::kDeadlineExceeded);
  EXPECT_EQ(response.status, core::RequestStatus::kDeadlineExceeded);
  EXPECT_NE(response.detail.find("restart job"), std::string::npos)
      << response.detail;
  ASSERT_EQ(response.outcomes.size(), 1u);
  EXPECT_LT(response.outcomes[0].restarts_completed, 2000u)
      << "deadline must interrupt the restart sweep";
}

/// Submits `request` behind a long blocker (its own 600 s budget keeps any
/// small default_deadline_s off it), waits 50 ms, cancels the blocker and
/// returns the request's ticket once terminal.
std::shared_ptr<service::Ticket> submit_behind_blocker(
    service::Service& svc, const core::CompileRequest& request) {
  core::CompileRequest blocker_request = tiny_request("blocker", 5000);
  blocker_request.deadline_s = 600.0;
  const auto blocker = svc.submit(blocker_request);
  EXPECT_TRUE(wait_for_state(blocker, RequestState::kRunning));
  const auto ticket = svc.submit(request);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  svc.cancel(blocker);
  (void)ticket->wait();
  return ticket;
}

TEST(Service, DeadlineExpiredWhileQueued) {
  // The victim's whole budget elapses in the queue: its own deadline_s, or
  // the service's default_deadline_s when it carries none.
  for (const auto& [default_deadline_s, deadline_s] :
       {std::pair{0.0, 0.001}, std::pair{0.001, 0.0}}) {
    service::ServiceOptions options = small_service();
    options.default_deadline_s = default_deadline_s;
    service::Service svc(options);
    core::CompileRequest request = tiny_request("deadline-queued");
    request.deadline_s = deadline_s;
    const auto ticket = submit_behind_blocker(svc, request);
    const service::protocol::WireResponse& response = ticket->wait();
    EXPECT_EQ(ticket->state(), RequestState::kDeadlineExceeded)
        << "default " << default_deadline_s << " s, own " << deadline_s
        << " s";
    EXPECT_NE(response.detail.find("queued"), std::string::npos)
        << response.detail;
    EXPECT_TRUE(response.outcomes.empty()) << "no restart may have run";
  }
}

TEST(Service, OwnDeadlineWinsOverTheDefault) {
  service::ServiceOptions options = small_service();
  options.default_deadline_s = 0.001;
  service::Service svc(options);
  core::CompileRequest request = tiny_request("deadline-own");
  request.deadline_s = 60.0;  // the 1 ms default would expire in the queue
  const auto ticket = submit_behind_blocker(svc, request);
  EXPECT_EQ(ticket->state(), RequestState::kDone) << ticket->wait().detail;
  EXPECT_EQ(ticket->wait().outcomes.size(), 1u);
}

TEST(Service, DrainWithQueuedWorkCancelsItAndStopsAdmission) {
  service::Service svc(small_service());
  const auto blocker = svc.submit(tiny_request("blocker", 512));
  ASSERT_TRUE(wait_for_state(blocker, RequestState::kRunning));
  const auto q1 = svc.submit(tiny_request("q1"));
  const auto q2 = svc.submit(tiny_request("q2"));
  svc.drain(/*cancel_queued=*/true);
  // Queued work was cancelled; the in-flight blocker ran to completion
  // (graceful drain never kills running work).
  EXPECT_EQ(q1->state(), RequestState::kCancelled);
  EXPECT_EQ(q2->state(), RequestState::kCancelled);
  EXPECT_EQ(blocker->state(), RequestState::kDone);
  EXPECT_TRUE(svc.draining());
  const auto late = svc.submit(tiny_request("late"));
  EXPECT_EQ(late->state(), RequestState::kRejected);
  EXPECT_NE(late->wait().detail.find("draining"), std::string::npos);
}

TEST(Service, CoalescingHammerServesOneExecutionToEveryone) {
  core::CompileRequest request = tiny_request("hammer", 2);
  request.verify = true;
  core::CompilePipeline reference({.workers = 2});
  const std::string expected = canonical(reference.compile(request));

  service::Service svc(small_service());
  const obs::MetricsSnapshot base = obs::registry().snapshot();
  const auto blocker = svc.submit(tiny_request("blocker", 5000));
  ASSERT_TRUE(wait_for_state(blocker, RequestState::kRunning));

  // N identical requests submitted from N threads while the scheduler is
  // busy: the first queues, the rest must coalesce onto it.
  constexpr int kClients = 6;
  std::vector<std::shared_ptr<service::Ticket>> tickets(kClients);
  {
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int i = 0; i < kClients; ++i)
      threads.emplace_back(
          [&, i] { tickets[i] = svc.submit(request); });
    for (std::thread& t : threads) t.join();
  }
  svc.cancel(blocker);

  int coalesced_count = 0;
  for (const auto& t : tickets) {
    const service::protocol::WireResponse& response = t->wait();
    EXPECT_EQ(t->state(), RequestState::kDone);
    EXPECT_EQ(canonical(response), expected)
        << "every coalesced client must receive bit-identical plans";
    if (t->coalesced()) ++coalesced_count;
  }
  EXPECT_EQ(coalesced_count, kClients - 1);
  EXPECT_EQ(counter("service.coalesced", base),
            static_cast<std::uint64_t>(kClients - 1));

  // Every later repeat is a plan-store hit: DONE inside submit.
  const std::uint64_t hits_before = counter("cache.l1_hits");
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto t = svc.submit(request);
    EXPECT_EQ(t->state(), RequestState::kDone);
    EXPECT_FALSE(t->coalesced());
    EXPECT_EQ(canonical(t->wait()), expected);
  }
  EXPECT_EQ(counter("cache.l1_hits") - hits_before, 3u);
  // blocker + ONE hammer execution, not six (or nine).
  EXPECT_EQ(counter("service.works_run", base), 2u);
  EXPECT_EQ(terminals(base), counter("service.submitted", base));
}

TEST(Service, DifferentSeedsDoNotCoalesce) {
  service::Service svc(small_service());
  const obs::MetricsSnapshot base = obs::registry().snapshot();
  const auto blocker = svc.submit(tiny_request("blocker", 32));
  ASSERT_TRUE(wait_for_state(blocker, RequestState::kRunning));
  const auto a = svc.submit(tiny_request("same", 1, 1));
  const auto b = svc.submit(tiny_request("same", 1, 2));
  EXPECT_FALSE(b->coalesced()) << "different seeds are different requests";
  svc.cancel(blocker);
  EXPECT_TRUE(a->wait().done());
  EXPECT_TRUE(b->wait().done());
  EXPECT_EQ(counter("service.coalesced", base), 0u);
}

TEST(Service, CancelledCoalescedTicketFiresItsCallbackOnce) {
  // The callback is what writes a socket client's `result` line, so a
  // cancelled sibling must fire it exactly once, like any cancelled ticket,
  // while the work it shared runs on for the leader.
  service::Service svc(small_service());
  const auto blocker = svc.submit(tiny_request("blocker", 5000));
  ASSERT_TRUE(wait_for_state(blocker, RequestState::kRunning));
  std::atomic<int> leader_fired{0}, sibling_fired{0};
  std::atomic<RequestState> leader_seen{RequestState::kQueued};
  std::atomic<RequestState> sibling_seen{RequestState::kQueued};
  const auto leader =
      svc.submit(tiny_request("twin"), [&](service::Ticket& t) {
        leader_seen = t.state();
        ++leader_fired;
      });
  const auto sibling =
      svc.submit(tiny_request("twin"), [&](service::Ticket& t) {
        sibling_seen = t.state();
        ++sibling_fired;
      });
  ASSERT_FALSE(leader->coalesced());
  ASSERT_TRUE(sibling->coalesced());

  svc.cancel(sibling);
  EXPECT_EQ(sibling->state(), RequestState::kCancelled);
  EXPECT_EQ(sibling_fired.load(), 1);
  EXPECT_EQ(sibling_seen.load(), RequestState::kCancelled);

  svc.cancel(blocker);
  svc.drain(/*cancel_queued=*/false);
  EXPECT_EQ(leader->state(), RequestState::kDone) << leader->wait().detail;
  EXPECT_EQ(leader_fired.load(), 1);
  EXPECT_EQ(leader_seen.load(), RequestState::kDone);
  EXPECT_EQ(sibling_fired.load(), 1);  // the work's finish skips it
}

// --- plan store --------------------------------------------------------------

TEST(ServiceStore, RepeatAfterDoneServesSameBytesWithoutRunning) {
  core::CompileRequest request = tiny_request("store-repeat", 2);
  request.verify = true;
  core::CompilePipeline reference({.workers = 2});
  const std::string expected = canonical(reference.compile(request));

  service::Service svc(small_service());
  const obs::MetricsSnapshot base = obs::registry().snapshot();
  EXPECT_EQ(canonical(svc.submit(request)->wait()), expected);
  const std::uint64_t hits_before = counter("cache.l1_hits");
  // The deadline is not part of the request's identity: even one that has
  // already expired gets the stored answer.
  for (const double deadline_s : {0.0, 1e-9, 60.0}) {
    core::CompileRequest repeat = request;
    repeat.deadline_s = deadline_s;
    const auto ticket = svc.submit(repeat);
    EXPECT_EQ(ticket->state(), RequestState::kDone) << "answered in submit";
    EXPECT_EQ(canonical(ticket->wait()), expected);
  }
  EXPECT_EQ(counter("cache.l1_hits") - hits_before, 3u);
  EXPECT_EQ(counter("service.works_run", base), 1u);
  EXPECT_EQ(counter("service.done", base), 4u);
}

TEST(ServiceStore, CancelledAndDeadlineCutRunsAreNotStored) {
  service::Service svc(small_service());
  const obs::MetricsSnapshot base = obs::registry().snapshot();
  // A deadline-cut run is partial: its repeat runs (and is cut) again.
  core::CompileRequest cut = tiny_request("store-cut", 5000);
  cut.deadline_s = 0.05;
  for (int round = 0; round < 2; ++round) {
    const auto ticket = svc.submit(cut);
    EXPECT_EQ(ticket->wait().status, core::RequestStatus::kDeadlineExceeded);
  }
  EXPECT_EQ(counter("service.works_run", base), 2u);

  // So is a cancelled one: its repeat is admitted and runs again.
  const core::CompileRequest long_request = tiny_request("store-cancel", 5000);
  for (int round = 0; round < 2; ++round) {
    const auto ticket = svc.submit(long_request);
    ASSERT_TRUE(wait_for_state(ticket, RequestState::kRunning));
    svc.cancel(ticket);
  }
  svc.drain(/*cancel_queued=*/false);
  EXPECT_EQ(counter("service.works_run", base), 4u);
  EXPECT_EQ(counter("service.done", base), 0u);
}

TEST(ServiceStore, EvictsLeastRecentlyUsedPastTheByteCap) {
  // A megabyte-long scenario name makes each entry cost ~2 MiB (the name
  // is in the request key and in the response), so a handful of tiny
  // compiles fill kPlanStoreBytes.
  const auto big_request = [](int i) {
    return tiny_request(std::to_string(i) + std::string(1 << 20, 'x'));
  };
  service::Service svc(small_service());
  const obs::MetricsSnapshot base = obs::registry().snapshot();
  const std::uint64_t evictions_before = counter("cache.evictions");
  const std::string a = canonical(svc.submit(big_request(0))->wait());
  const std::string b = canonical(svc.submit(big_request(1))->wait());
  // Keep A the most recently used while new entries push the store past
  // its cap, so the first victim must be B (LRU), not A (oldest insert).
  int next = 2;
  while (counter("cache.evictions") == evictions_before && next < 64) {
    ASSERT_EQ(svc.submit(big_request(0))->state(), RequestState::kDone);
    (void)svc.submit(big_request(next++))->wait();
  }
  ASSERT_EQ(counter("cache.evictions") - evictions_before, 1u)
      << "the store never filled";
  EXPECT_GT(next, 3) << "the cap should hold more than two entries";
  const std::uint64_t runs = counter("service.works_run", base);
  const auto hit = svc.submit(big_request(0));
  EXPECT_EQ(hit->state(), RequestState::kDone);
  EXPECT_EQ(canonical(hit->wait()), a);
  EXPECT_EQ(counter("service.works_run", base), runs);
  // The evicted entry's repeat recompiles to the same bytes.
  EXPECT_EQ(canonical(svc.submit(big_request(1))->wait()), b);
  EXPECT_EQ(counter("service.works_run", base), runs + 1);
}

TEST(ServiceStore, DroppedInsertsRecompileToTheSameBytes) {
  const core::CompileRequest request = tiny_request("store-lossy", 2);
  core::CompilePipeline reference({.workers = 2});
  const std::string expected = canonical(reference.compile(request));
  struct Disarm {
    ~Disarm() { fail::registry().disarm_all(); }
  } disarm;
  ASSERT_EQ(fail::registry().arm("cache.insert:1:3"), "");
  service::Service svc(small_service());
  const obs::MetricsSnapshot base = obs::registry().snapshot();
  for (int round = 0; round < 3; ++round)
    EXPECT_EQ(canonical(svc.submit(request)->wait()), expected);
  EXPECT_EQ(counter("service.works_run", base), 3u)
      << "every repeat must execute";
}

TEST(ServiceStore, DatabaseFileServesStoredResponses) {
  core::CompileRequest request = tiny_request("store-file", 2);
  request.verify = true;
  core::CompilePipeline reference({.workers = 2});
  const std::string expected = canonical(reference.compile(request));
  db::DatabaseBuilder builder;
  builder.insert(service::protocol::coalesce_key(request), expected);
  const std::string path = ::testing::TempDir() + "service_store.fdb";
  ASSERT_EQ(builder.write(path), "");

  service::ServiceOptions options = small_service();
  options.database_path = path;
  service::Service svc(options);
  const obs::MetricsSnapshot base = obs::registry().snapshot();
  EXPECT_TRUE(svc.db_error().empty()) << svc.db_error();
  const std::uint64_t file_hits = counter("cache.l2_hits");
  const std::uint64_t memory_hits = counter("cache.l1_hits");
  for (int round = 0; round < 2; ++round) {
    const auto ticket = svc.submit(request);
    EXPECT_EQ(ticket->state(), RequestState::kDone);
    EXPECT_EQ(canonical(ticket->wait()), expected);
  }
  // The file answers first; the decoded answer is then kept in memory.
  EXPECT_EQ(counter("cache.l2_hits") - file_hits, 1u);
  EXPECT_EQ(counter("cache.l1_hits") - memory_hits, 1u);
  EXPECT_EQ(counter("service.works_run", base), 0u);
  // A request the file does not hold still compiles.
  EXPECT_TRUE(svc.submit(tiny_request("store-file-miss"))->wait().done());
  EXPECT_EQ(counter("service.works_run", base), 1u);
  std::remove(path.c_str());
}

TEST(Service, DegradedDatabaseServesByteIdenticalToNoDatabase) {
  const std::string bogus =
      ::testing::TempDir() + "service_no_such_database.fdb";
  std::remove(bogus.c_str());
  const core::CompileRequest request = tiny_request("degraded", 2);
  core::CompilePipeline reference({.workers = 2});
  const std::string expected = canonical(reference.compile(request));

  service::ServiceOptions options = small_service();
  options.database_path = bogus;
  options.degrade_on_db_error = true;
  {
    service::Service degraded(options);
    EXPECT_TRUE(degraded.degraded());
    EXPECT_NE(degraded.db_error().find("cannot open compilation database"),
              std::string::npos)
        << degraded.db_error();
    EXPECT_EQ(obs::registry().gauge("service.degraded").value(), 1);
    EXPECT_EQ(canonical(degraded.submit(request)->wait()), expected);
  }
  // Without the opt-in the same file is a loud refusal, never a silently
  // empty database.
  options.degrade_on_db_error = false;
  service::Service strict(options);
  const obs::MetricsSnapshot base = obs::registry().snapshot();
  EXPECT_FALSE(strict.degraded());
  const auto ticket = strict.submit(request);
  EXPECT_EQ(ticket->state(), RequestState::kRejected);
  EXPECT_NE(ticket->wait().detail.find("cannot open compilation database"),
            std::string::npos);
  EXPECT_EQ(counter("service.works_run", base), 0u);
}

// --- socket loopback --------------------------------------------------------

TEST(ServiceSocket, LoopbackCompileMatchesInProcess) {
  const std::string socket_path =
      "/tmp/femtod-test-" + std::to_string(::getpid()) + ".sock";
  service::SocketServer server(
      {.socket_path = socket_path, .service = small_service()});
  const std::uint64_t done_before = counter("service.done");
  ASSERT_EQ(server.start(), "");
  std::thread runner([&] { server.run(); });
  // Early ASSERT returns must still stop the server and join the thread.
  struct Joiner {
    service::SocketServer& server;
    std::thread& thread;
    ~Joiner() {
      server.request_shutdown(false);
      if (thread.joinable()) thread.join();
    }
  } joiner{server, runner};

  auto conn = service::wait_for_server(socket_path);
  ASSERT_TRUE(conn.has_value());
  service::CompileClient client(std::move(*conn));
  EXPECT_TRUE(client.ping());

  // Malformed and ill-typed lines get error replies, not disconnects.
  ASSERT_TRUE(client.connection().send_line("{not json"));
  auto reply = client.connection().recv_line(5000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_NE(reply->find("\"ok\":false"), std::string::npos);
  ASSERT_TRUE(client.connection().send_line(R"({"op":"compile","id":"x"})"));
  reply = client.connection().recv_line(5000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_NE(reply->find("\"ok\":false"), std::string::npos);
  ASSERT_TRUE(
      client.connection().send_line(R"({"op":"cancel","id":"ghost"})"));
  reply = client.connection().recv_line(5000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_NE(reply->find("unknown request id"), std::string::npos);
  // There is no stats op: the metrics op carries the request counters.
  ASSERT_TRUE(client.connection().send_line(R"({"op":"stats"})"));
  reply = client.connection().recv_line(5000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_NE(reply->find("unknown op"), std::string::npos) << *reply;

  core::CompileRequest request = tiny_request("loopback", 2);
  request.verify = true;
  core::CompilePipeline reference({.workers = 2});
  const std::string expected = canonical(reference.compile(request));

  std::string err;
  const auto served = client.compile(request, "r1", err,
                                     /*include_circuit=*/true);
  ASSERT_TRUE(served.has_value()) << err;
  EXPECT_EQ(served->state, RequestState::kDone);
  EXPECT_EQ(served->canonical_response, expected)
      << "socket transport must not perturb the canonical bytes";

  const auto metrics = client.metrics();
  ASSERT_TRUE(metrics.has_value());
  const service::json::Value* counters = metrics->find("counters");
  ASSERT_NE(counters, nullptr);
  const service::json::Value* done = counters->find("service.done");
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->as_u64().value_or(0) - done_before, 1u);

  EXPECT_TRUE(client.shutdown());
}

// ---- hostile-input robustness ---------------------------------------------

/// Truncation property: the canonical encoding consumes its full input, so
/// EVERY strict prefix of a valid protocol line must fail json::parse with
/// a non-empty diagnostic -- never crash, never yield a value a decoder
/// could partially apply.
TEST(ServiceProtocol, EveryStrictPrefixIsRejectedLoudly) {
  core::CompileRequest request = tiny_request("prefix", 1);
  service::json::Value envelope = service::json::Value::object();
  envelope.set("op", service::json::Value::string("compile"));
  envelope.set("id", service::json::Value::string("p1"));
  envelope.set("request", service::protocol::encode_request(request));
  core::CompilePipeline reference({.workers = 2});
  const std::string messages[] = {
      envelope.encode(),
      canonical(reference.compile(request)),
  };
  for (const std::string& msg : messages) {
    ASSERT_GT(msg.size(), 2u);
    for (std::size_t len = 0; len < msg.size(); ++len) {
      std::string err;
      const auto parsed = service::json::parse(msg.substr(0, len), &err);
      EXPECT_FALSE(parsed.has_value())
          << "strict prefix of length " << len << " parsed";
      EXPECT_FALSE(err.empty()) << "rejection must carry a diagnostic";
    }
  }
}

/// Bit-flip property: single-byte corruption anywhere in a valid message
/// must never crash and never half-apply -- either the parse fails loudly,
/// or the (valid-JSON-again) result decodes fully or is rejected with a
/// non-empty diagnostic. Runs under ASan/UBSan in CI like the rest of the
/// suite.
TEST(ServiceProtocol, SingleByteCorruptionNeverCrashesOrPartiallyApplies) {
  core::CompileRequest request = tiny_request("bitflip", 1);
  service::json::Value req_envelope =
      service::protocol::encode_request(request);
  core::CompilePipeline reference({.workers = 2});
  const core::CompileResponse response = reference.compile(request);
  const service::json::Value resp_envelope = service::protocol::encode_response(
      service::protocol::summarize(response, /*include_circuits=*/true));
  const std::string req_line = req_envelope.encode();
  const std::string resp_line = resp_envelope.encode();
  for (int which = 0; which < 2; ++which) {
    const std::string& line = which == 0 ? req_line : resp_line;
    for (std::size_t i = 0; i < line.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string mutated = line;
        mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
        if (mutated == line) continue;
        std::string err;
        const auto parsed = service::json::parse(mutated, &err);
        if (!parsed.has_value()) {
          EXPECT_FALSE(err.empty()) << "silent parse rejection at byte " << i;
          continue;
        }
        // Still valid JSON: the typed decoder must now fully accept or
        // loudly reject.
        err.clear();
        if (which == 0) {
          core::CompileRequest out;
          if (!service::protocol::decode_request(*parsed, out, err)) {
            EXPECT_FALSE(err.empty()) << "silent decode rejection, byte " << i;
          }
        } else {
          service::protocol::WireResponse out;
          if (!service::protocol::decode_response(*parsed, out, err)) {
            EXPECT_FALSE(err.empty()) << "silent decode rejection, byte " << i;
          }
        }
      }
    }
  }
}

TEST(ServiceSocket, OversizedLineIsRejectedLoudlyAndConnectionCloses) {
  const std::string socket_path =
      "/tmp/femtod-maxline-" + std::to_string(::getpid()) + ".sock";
  service::SocketServer server(
      {.socket_path = socket_path, .service = small_service()});
  ASSERT_EQ(server.start(), "");
  std::thread runner([&] { server.run(); });
  struct Joiner {
    service::SocketServer& server;
    std::thread& thread;
    ~Joiner() {
      server.request_shutdown(false);
      if (thread.joinable()) thread.join();
    }
  } joiner{server, runner};

  auto conn = service::wait_for_server(socket_path);
  ASSERT_TRUE(conn.has_value());
  // Stream more than kMaxLineBytes of junk with no newline: the daemon must
  // answer with a loud protocol error and hang up, not buffer forever. It
  // reads 4 KiB at a time, so it trips before the newline send_line appends
  // LAST -- and may hang up before the tail is written, failing the send.
  const std::string junk(service::kMaxLineBytes + 8192, 'x');
  (void)conn->send_line(junk);
  const auto reply = conn->recv_line(5000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_NE(reply->find("protocol error"), std::string::npos) << *reply;
  EXPECT_NE(reply->find("closing connection"), std::string::npos);
  EXPECT_FALSE(conn->recv_line(5000).has_value()) << "connection must close";

  // A fresh connection still serves: the daemon survived the hostile peer.
  auto healthy = service::wait_for_server(socket_path, 2000);
  ASSERT_TRUE(healthy.has_value());
  service::CompileClient client(std::move(*healthy));
  EXPECT_TRUE(client.ping());
}

/// A raw client socket: writes byte runs exactly as given, with no newline
/// appended, and reads the replies a line at a time.
class RawSocket {
 public:
  explicit RawSocket(const std::string& socket_path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ >= 0 &&
        service::net::connect_retry(
            fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawSocket() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawSocket(const RawSocket&) = delete;
  RawSocket& operator=(const RawSocket&) = delete;

  [[nodiscard]] bool write(const std::string& bytes) {
    for (std::size_t off = 0; off < bytes.size();) {
      const ssize_t n = service::net::send_retry(
          fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  [[nodiscard]] std::optional<std::string> read_line(int timeout_ms) {
    for (;;) {
      if (const std::size_t nl = buffer_.find('\n'); nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      pollfd p{fd_, POLLIN, 0};
      if (service::net::poll_retry(&p, timeout_ms) <= 0) return std::nullopt;
      char chunk[4096];
      const ssize_t n = service::net::recv_retry(fd_, chunk, sizeof chunk);
      if (n <= 0) return std::nullopt;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

TEST(ServiceSocket, RepliesDoNotDependOnHowRequestBytesArrive) {
  const std::string socket_path =
      "/tmp/femtod-framing-" + std::to_string(::getpid()) + ".sock";
  service::SocketServer server(
      {.socket_path = socket_path, .service = small_service()});
  ASSERT_EQ(server.start(), "");
  std::thread runner([&] { server.run(); });
  struct Joiner {
    service::SocketServer& server;
    std::thread& thread;
    ~Joiner() {
      server.request_shutdown(false);
      if (thread.joinable()) thread.join();
    }
  } joiner{server, runner};
  ASSERT_TRUE(service::wait_for_server(socket_path).has_value());

  // The cancel's error reply echoes its 6000-byte id, so that request and
  // its reply each span more than one 4 KiB read.
  const std::string long_id(6000, 'g');
  const std::vector<std::string> requests = {
      R"({"op":"ping"})",
      R"({"op":"cancel","id":")" + long_id + R"("})",
      "{not json",
      R"({"op":"nope"})",
  };
  // Writes the requests over a fresh connection with `send`, then reads one
  // reply per request.
  const auto replies = [&](const auto& send) {
    RawSocket sock(socket_path);
    std::vector<std::string> out;
    if (!send(sock)) return out;
    for (std::size_t k = 0; k < requests.size(); ++k) {
      const auto line = sock.read_line(5000);
      if (!line.has_value()) break;
      out.push_back(*line);
    }
    return out;
  };
  const auto whole = replies([&](RawSocket& sock) {
    for (const std::string& r : requests)
      if (!sock.write(r + "\n")) return false;
    return true;
  });
  const auto paired = replies([&](RawSocket& sock) {
    for (std::size_t k = 0; k + 1 < requests.size(); k += 2)
      if (!sock.write(requests[k] + "\n" + requests[k + 1] + "\n"))
        return false;
    return true;
  });
  const auto trickled = replies([&](RawSocket& sock) {
    std::string all;
    for (const std::string& r : requests) all += r + "\n";
    for (std::size_t off = 0; off < all.size(); off += 3) {
      if (!sock.write(all.substr(off, 3))) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    return true;
  });
  ASSERT_EQ(whole.size(), requests.size());
  EXPECT_NE(whole[0].find(R"("op":"ping")"), std::string::npos) << whole[0];
  EXPECT_NE(whole[1].find(long_id), std::string::npos);
  EXPECT_NE(whole[2].find("parse error"), std::string::npos) << whole[2];
  EXPECT_NE(whole[3].find("unknown op"), std::string::npos) << whole[3];
  EXPECT_EQ(paired, whole);
  EXPECT_EQ(trickled, whole);
}

TEST(ServiceSocket, RetryingClientSurvivesInjectedConnectionDrops) {
  const std::string socket_path =
      "/tmp/femtod-retry-" + std::to_string(::getpid()) + ".sock";
  service::SocketServer server(
      {.socket_path = socket_path, .service = small_service()});
  ASSERT_EQ(server.start(), "");
  std::thread runner([&] { server.run(); });
  struct Joiner {
    service::SocketServer& server;
    std::thread& thread;
    ~Joiner() {
      fail::registry().disarm_all();
      server.request_shutdown(false);
      if (thread.joinable()) thread.join();
    }
  } joiner{server, runner};

  core::CompileRequest request = tiny_request("retry", 2);
  core::CompilePipeline reference({.workers = 2});
  const std::string expected = canonical(reference.compile(request));

  // Arm service.recv THROUGH the wire op (end-to-end chaos control plane),
  // then drive a retrying client until it lands a full result.
  {
    auto conn = service::wait_for_server(socket_path);
    ASSERT_TRUE(conn.has_value());
    service::CompileClient admin(std::move(*conn));
    std::string err;
    const auto listed = admin.failpoints("service.recv:0.25:7", "", err);
    ASSERT_TRUE(listed.has_value()) << err;
    const service::json::Value* points = listed->find("failpoints");
    ASSERT_NE(points, nullptr);
    ASSERT_NE(points->find("service.recv"), nullptr);
  }

  service::RetryPolicy policy;
  policy.max_attempts = 50;
  policy.base_delay_s = 0.001;
  policy.max_delay_s = 0.02;
  policy.seed = 11;
  service::CompileClient client(socket_path, policy);
  const std::uint64_t retries_before =
      obs::registry().counter("service.retries").value();
  std::string err;
  const auto served =
      client.compile_retry(request, "rt1", err, /*include_circuit=*/true);
  ASSERT_TRUE(served.has_value()) << err;
  EXPECT_EQ(served->state, RequestState::kDone);
  EXPECT_EQ(served->canonical_response, expected)
      << "retried serving must stay bit-identical";

  // Disarm over the wire and confirm a clean second compile.
  {
    service::CompileClient admin(socket_path, service::RetryPolicy{});
    ASSERT_EQ(admin.connect(), "");
    std::string derr;
    ASSERT_TRUE(admin.failpoints("", "all", derr).has_value()) << derr;
  }
  const auto clean = client.compile_retry(request, "rt2", err,
                                          /*include_circuit=*/true);
  ASSERT_TRUE(clean.has_value()) << err;
  EXPECT_EQ(clean->canonical_response, expected);
  // The armed phase almost certainly forced at least one retry; only
  // require the counters to be monotone so the test cannot flake.
  EXPECT_GE(obs::registry().counter("service.retries").value(),
            retries_before);
}

TEST(ServiceSocket, MalformedFailpointSpecIsRejectedOverTheWire) {
  const std::string socket_path =
      "/tmp/femtod-fpbad-" + std::to_string(::getpid()) + ".sock";
  service::SocketServer server(
      {.socket_path = socket_path, .service = small_service()});
  ASSERT_EQ(server.start(), "");
  std::thread runner([&] { server.run(); });
  struct Joiner {
    service::SocketServer& server;
    std::thread& thread;
    ~Joiner() {
      server.request_shutdown(false);
      if (thread.joinable()) thread.join();
    }
  } joiner{server, runner};

  auto conn = service::wait_for_server(socket_path);
  ASSERT_TRUE(conn.has_value());
  service::CompileClient client(std::move(*conn));
  std::string err;
  EXPECT_FALSE(client.failpoints("bogus:2.5", "", err).has_value());
  EXPECT_NE(err.find("outside [0, 1]"), std::string::npos) << err;
  EXPECT_FALSE(client.failpoints("", "never.armed.name", err).has_value());
  EXPECT_NE(err.find("no armed failpoint"), std::string::npos) << err;
}

/// This process's peak resident set (VmHWM) in kB; -1 where /proc is
/// unavailable.
long peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  long kb = -1;
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  std::fclose(f);
  return kb;
}

/// A compile line for one scenario of `n` qubits on `targets` copies of an
/// n-qubit chain target.
std::string chain_line(const std::string& id, std::size_t n,
                       std::size_t targets, std::size_t restarts) {
  std::string edges;
  for (std::size_t q = 0; q + 1 < n; ++q)
    edges += (q == 0 ? "[" : ",[") + std::to_string(q) + "," +
             std::to_string(q + 1) + "]";
  const std::string chain = R"({"name":"chain","coupling":{"n":)" +
                            std::to_string(n) + R"(,"edges":[)" + edges +
                            "]}}";
  std::string list;
  for (std::size_t t = 0; t < targets; ++t) list += (t ? "," : "") + chain;
  return R"({"op":"compile","id":")" + id +
         R"(","request":{"scenarios":[{"name":"w","num_qubits":)" +
         std::to_string(n) + R"(,"terms":[["s",1,0,0.1]]}],"targets":[)" +
         list + R"(],"restarts":)" + std::to_string(restarts) + "}}";
}

TEST(ServiceSocket, HostileRequestLinesFailLoudlyAndTheDaemonServesOn) {
  const std::string socket_path =
      "/tmp/femtod-hostile-" + std::to_string(::getpid()) + ".sock";
  service::SocketServer server(
      {.socket_path = socket_path, .service = small_service()});
  ASSERT_EQ(server.start(), "");
  std::thread runner([&] { server.run(); });
  struct Joiner {
    service::SocketServer& server;
    std::thread& thread;
    ~Joiner() {
      server.request_shutdown(false);
      if (thread.joinable()) thread.join();
    }
  } joiner{server, runner};

  auto conn = service::wait_for_server(socket_path);
  ASSERT_TRUE(conn.has_value());
  service::CompileClient client(std::move(*conn));
  // Reads every reply to one compile line: a decode error is one line; a
  // decoded request gets an ack and a result, in either order. Returns
  // "error" or the result's state.
  const auto outcome = [&]() -> std::string {
    bool acked = false;
    std::string state;
    while (!acked || state.empty()) {
      const auto line = client.connection().recv_line(120000);
      if (!line.has_value()) return "no reply: daemon went away";
      const auto reply = service::json::parse(*line);
      if (!reply.has_value()) return "unparsable reply: " + *line;
      const service::json::Value* ok = reply->find("ok");
      if (ok != nullptr && ok->is_bool() && !ok->as_bool()) return "error";
      const service::json::Value* op = reply->find("op");
      const service::json::Value* st = reply->find("state");
      if (op != nullptr && op->is_string() && op->as_string() == "result")
        state = st != nullptr && st->is_string() ? st->as_string() : "?";
      else
        acked = true;
    }
    return state;
  };

  // Each of these once took the whole daemon down (abort, length_error,
  // bad_alloc during the compile or while decoding the target).
  const std::string scenario =
      R"({"name":"h","num_qubits":4,"terms":[["s",2,0,0.1]]})";
  const std::string lines[] = {
      R"({"op":"compile","id":"index","request":{"scenarios":[)"
      R"({"name":"h","num_qubits":4,"terms":[["s",0,9,0.1]]}]}})",
      R"({"op":"compile","id":"restarts","request":{"scenarios":[)" +
          scenario + R"(],"restarts":1152921504606846976}})",
      R"({"op":"compile","id":"qubits","request":{"scenarios":[)"
      R"({"name":"h","num_qubits":1099511627776,"terms":[]}]}})",
      R"({"op":"compile","id":"coupling","request":{"scenarios":[)" +
          scenario +
          R"(],"targets":[{"name":"t","coupling":{"n":1099511627776,)"
          R"("edges":[]}}]}})",
      // Each map is within kMaxQubits, but two of them exceed the
      // request's routing-table budget (16 n^2 bytes per decoded map).
      chain_line("two-wide-maps", core::kMaxQubits, 2, 1),
      // Terms outside make_double's canonical form or with a zero
      // generator: p > q pairs 3 with an off-register partner (abort);
      // p == q and a single with p == r came back DONE with 0 CNOTs; r > s
      // was compiled in a non-canonical order; a bosonic double that
      // annihilates the pair it creates aborted the bosonic pass.
      R"({"op":"compile","id":"d-pq-desc","request":{"scenarios":[)"
      R"({"name":"h","num_qubits":4,"terms":[["d",3,2,0,1,0.1]]}]}})",
      R"({"op":"compile","id":"d-pq-equal","request":{"scenarios":[)"
      R"({"name":"h","num_qubits":4,"terms":[["d",2,2,0,1,0.1]]}]}})",
      R"({"op":"compile","id":"s-pr-equal","request":{"scenarios":[)"
      R"({"name":"h","num_qubits":4,"terms":[["s",1,1,0.1]]}]}})",
      R"({"op":"compile","id":"d-rs-desc","request":{"scenarios":[)"
      R"({"name":"h","num_qubits":4,"terms":[["d",2,3,1,0,0.1]]}]}})",
      R"({"op":"compile","id":"d-same-pair","request":{"scenarios":[)"
      R"({"name":"h","num_qubits":4,"terms":[["d",0,1,0,1,0.1]]}]}})",
  };
  for (const std::string& line : lines) {
    ASSERT_TRUE(client.connection().send_line(line));
    const std::string got = outcome();
    EXPECT_TRUE(got == "error" || got == "REJECTED")
        << got << " for: " << line.substr(0, 200);
  }

  // A widest chain target fanned out over many restarts: every restart job
  // once copied the target's 16 MiB of routing tables before any ran (a
  // gigabyte here). Jobs now share them, so the peak barely moves.
  const long rss_before = peak_rss_kb();
  ASSERT_TRUE(client.connection().send_line(
      chain_line("wide", core::kMaxQubits, 1, 64)));
  EXPECT_EQ(outcome(), "DONE");
  if (rss_before > 0) {
    EXPECT_LT(peak_rss_kb() - rss_before, 512L * 1024)
        << "peak RSS grew by more than 512 MiB for one request";
  }

  // The same daemon still serves a valid request, byte-identically.
  const core::CompileRequest request = tiny_request("after-hostile", 2);
  core::CompilePipeline reference({.workers = 2});
  const std::string expected = canonical(reference.compile(request));
  std::string err;
  const auto served = client.compile(request, "valid", err,
                                     /*include_circuit=*/true);
  ASSERT_TRUE(served.has_value()) << err;
  EXPECT_EQ(served->canonical_response, expected);

  // In process, compile() refuses the first three instead of dying.
  core::CompileRequest index = tiny_request("index");
  index.scenarios[0].terms.push_back(fermion::ExcitationTerm::single(0, 9));
  core::CompileRequest restarts = tiny_request("restarts");
  restarts.restarts = std::size_t{1} << 60;
  core::CompileRequest qubits = tiny_request("qubits");
  qubits.scenarios[0].num_qubits = std::size_t{1} << 40;
  for (const core::CompileRequest& bad : {index, restarts, qubits})
    EXPECT_EQ(reference.compile(bad).status, core::RequestStatus::kRejected);
}

}  // namespace
}  // namespace femto
