// The compilation service: a bounded admission queue + single scheduler
// thread in front of one shared CompilePipeline, plus an AF_UNIX JSON-line
// socket front end (SocketServer) -- the in-process core of the femtod
// daemon.
//
// Design rules (the lifecycle discipline the tests enforce):
//
//  * Every client-visible request is a Ticket whose state only moves along
//    the whitelisted edges of service/lifecycle.hpp. A forbidden edge is an
//    assertion, not a recoverable condition.
//  * Admission control happens BEFORE queueing: invalid requests, a full
//    queue, and a draining server all reject loudly at QUEUED -> REJECTED
//    with a diagnostic. Once admitted, a request can only finish or be
//    stopped (cancel / deadline) -- REJECTED is unreachable past QUEUED.
//  * One scheduler thread executes requests strictly serially on the
//    pipeline; intra-request parallelism comes from the pipeline's own
//    worker pool. Serial execution is what makes service results
//    bit-identical to in-process compiles (the pipeline itself guarantees
//    worker-count invariance) and makes drain quiescence deterministic.
//  * Identical in-flight requests COALESCE: keyed by the canonical
//    protocol encoding (deadline excluded), N tickets attach to one Work
//    and receive the same shared response -- N clients asking for the same
//    Hamiltonian pay for one compile. A coalesced request runs under the
//    LEADER's deadline.
//  * Completed requests are REMEMBERED: a compile is a pure function of the
//    same canonical request bytes, so the PlanStore keeps the canonical
//    wire response of every DONE run (bounded, least recently used out),
//    optionally backed by a prebuilt .fdb file (db/database.hpp). A repeat
//    is answered at submit, before any queueing, with the bytes the first
//    run served. Cancelled and deadline-cut runs are partial and are never
//    stored. The compile stack underneath caches nothing.
//  * Cancellation is cooperative: cancelling a ticket detaches it
//    immediately (synthesized CANCELLED response); when the LAST waiter of
//    a running Work cancels, the Work's cancel flag trips and the pipeline
//    observes it at the next restart boundary. A queued Work whose waiters
//    all cancelled is dropped without running.
//  * drain(): stop admission (new submits -> REJECTED), optionally cancel
//    everything still queued, then block until the scheduler is idle. After
//    drain the service is quiescent -- the destructor drains too, so tests
//    can just scope a Service.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/failpoint.hpp"
#include "core/pipeline.hpp"
#include "db/database.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/lifecycle.hpp"
#include "service/net.hpp"
#include "service/protocol.hpp"

namespace femto::service {

struct ServiceOptions {
  core::PipelineOptions pipeline;
  /// Admission bound: submits beyond this many queued works are REJECTED
  /// loudly (the client can back off and retry; silent unbounded queues
  /// turn overload into latency collapse).
  std::size_t max_queue = 64;
  /// Deadline applied to requests that carry none (0 = unlimited).
  double default_deadline_s = 0.0;
  /// Log admission rejections and lifecycle summaries to stderr.
  bool log = false;
  /// Non-empty = capture a per-request span tree (queue wait -> run ->
  /// per-restart -> per-stage) for every work and write each to
  /// <trace_dir>/request-<id>.json (Chrome trace-event format, loadable in
  /// Perfetto). The last trace is also served by the `trace` wire op.
  std::string trace_dir;
  /// Prebuilt compilation database (.fdb) read behind the plan store;
  /// empty = none. One that fails to open is loud: SocketServer::start()
  /// refuses and submits are REJECTED -- never a silently empty database.
  std::string database_path;
  /// Instead, serve degraded: log, raise service.degraded, compile every
  /// miss (byte-identical: the file only holds what the compile produces).
  bool degrade_on_db_error = false;
};

/// Resident bytes (request keys + encoded responses) the plan store holds
/// before it evicts the least recently used entry. One perfbench `serve`
/// pass (120 distinct requests) stores about 0.56 MB.
inline constexpr std::size_t kPlanStoreBytes = std::size_t{32} << 20;

/// The completed-response store: canonical request bytes -> the canonical
/// wire response of a DONE run, at most kPlanStoreBytes of them, least
/// recently used out first. Not thread-safe; the Service lock guards it.
class PlanStore {
 public:
  using Response = std::shared_ptr<const protocol::WireResponse>;

  /// The stored response, now the most recently used; nullptr on a miss.
  [[nodiscard]] Response find(std::string_view key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->response;
  }

  /// Stores a response charged `bytes`, then evicts least recently used
  /// entries until the store fits; returns how many it evicted.
  std::size_t insert(std::string key, Response response, std::size_t bytes) {
    if (index_.contains(key)) return 0;  // same request, same bytes
    lru_.push_front({std::move(key), std::move(response), bytes});
    index_.emplace(lru_.front().key, lru_.begin());
    bytes_ += bytes;
    std::size_t evicted = 0;
    while (bytes_ > kPlanStoreBytes) {
      bytes_ -= lru_.back().bytes;
      index_.erase(lru_.back().key);
      lru_.pop_back();
      ++evicted;
    }
    return evicted;
  }

 private:
  struct Entry {
    std::string key;
    Response response;
    std::size_t bytes = 0;
  };
  std::size_t bytes_ = 0;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string_view, std::list<Entry>::iterator> index_;
};

class Ticket;

/// One coalesced unit of execution: the leader's request plus every ticket
/// waiting on it. Guarded by the Service mutex except `cancel`, which the
/// pipeline polls lock-free at restart boundaries.
struct Work {
  core::CompileRequest request;
  std::string key;
  std::atomic<bool> cancel{false};
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  std::vector<std::shared_ptr<Ticket>> waiters;
  std::size_t active = 0;  // waiters not yet individually cancelled
  bool queued = false;
  bool running = false;
  /// Leader ticket id; names the per-request trace file.
  std::uint64_t work_id = 0;
  std::chrono::steady_clock::time_point submitted_at{};
  /// Per-request tracer (null when tracing is off), epoch'd at submit so
  /// the queue-wait phase has non-negative timestamps.
  std::shared_ptr<obs::Tracer> tracer;
};

/// A client's handle on one submitted request: its lifecycle state and,
/// once terminal, the (possibly shared) wire response -- the canonical
/// served form, circuits included. In-process callers that need full
/// CompileResults call CompilePipeline::compile directly. Thread-safe;
/// wait() is how synchronous clients block. Tickets must not outlive the
/// Service.
class Ticket {
 public:
  [[nodiscard]] std::uint64_t id() const { return id_; }
  /// True when this submit attached to an already-in-flight identical
  /// request instead of queueing its own work.
  [[nodiscard]] bool coalesced() const { return coalesced_; }

  [[nodiscard]] RequestState state() const {
    std::lock_guard<std::mutex> g(mu_);
    return lifecycle_.state();
  }
  [[nodiscard]] bool terminal() const {
    std::lock_guard<std::mutex> g(mu_);
    return lifecycle_.terminal();
  }
  /// Blocks until terminal; the response stays valid while the Ticket
  /// lives (shared with coalesced siblings).
  const protocol::WireResponse& wait() {
    std::unique_lock<std::mutex> g(mu_);
    cv_.wait(g, [&] { return lifecycle_.terminal(); });
    return *response_;
  }
  [[nodiscard]] std::shared_ptr<const protocol::WireResponse> response()
      const {
    std::lock_guard<std::mutex> g(mu_);
    return response_;
  }

 private:
  friend class Service;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  RequestLifecycle lifecycle_;
  std::shared_ptr<const protocol::WireResponse> response_;
  std::shared_ptr<Work> work_;  // cleared at terminal (breaks the cycle)
  std::function<void(Ticket&)> on_terminal_;
  std::uint64_t id_ = 0;
  bool coalesced_ = false;
  std::chrono::steady_clock::time_point submitted_at_{};
};

class Service {
 public:
  explicit Service(ServiceOptions options)
      : options_(std::move(options)), pipeline_(options_.pipeline) {
    open_database();
    scheduler_ = std::thread([this] { scheduler_loop(); });
  }

  ~Service() {
    drain(/*cancel_queued=*/true);
    {
      std::lock_guard<std::mutex> g(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    scheduler_.join();
  }

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Submits a request; returns its Ticket immediately. `on_terminal` (may
  /// be empty) fires exactly once, off the service lock, when the ticket
  /// reaches a terminal state -- including synchronously inside submit()
  /// for rejections and plan-store hits. The request's control-plane fields
  /// are overwritten by the service (cancel flag, absolute deadline).
  std::shared_ptr<Ticket> submit(
      core::CompileRequest request,
      std::function<void(Ticket&)> on_terminal = {}) {
    auto ticket = std::make_shared<Ticket>();
    ticket->on_terminal_ = std::move(on_terminal);
    ticket->submitted_at_ = std::chrono::steady_clock::now();
    std::vector<std::shared_ptr<Ticket>> fire;
    {
      std::lock_guard<std::mutex> g(mu_);
      ticket->id_ = ++next_ticket_id_;
      metrics_.submitted.inc();
      ++inflight_tickets_;
      metrics_.in_flight.add(1);
      if (draining_) {
        reject(ticket, "service is draining: admission stopped", fire);
      } else if (std::string err = core::validate_request(request);
                 !err.empty()) {
        reject(ticket, "invalid request: " + err, fire);
      } else if (!db_error_.empty() && !options_.degrade_on_db_error) {
        reject(ticket, db_error_, fire);
      } else {
        admit(ticket, std::move(request), fire);
      }
    }
    cv_.notify_one();
    fire_callbacks(fire);
    return ticket;
  }

  /// Cancels one ticket: it detaches immediately with a synthesized
  /// CANCELLED response. When it was the last active waiter, the queued
  /// work is dropped (deterministically, before it runs) or the running
  /// work's cooperative cancel flag trips.
  void cancel(const std::shared_ptr<Ticket>& ticket) {
    std::vector<std::shared_ptr<Ticket>> fire;
    {
      std::lock_guard<std::mutex> g(mu_);
      std::shared_ptr<Work> work = ticket->work_;
      // An already terminal ticket queues no callback and releases nothing.
      const bool detached =
          terminalize(ticket, RequestState::kCancelled,
                      bare(core::RequestStatus::kCancelled,
                           "cancelled by client"),
                      fire);
      if (detached && work != nullptr) {
        FEMTO_EXPECTS(work->active > 0);
        // Coalesced siblings still waiting keep the work going.
        if (--work->active == 0) {
          if (work->running) {
            work->cancel.store(true, std::memory_order_relaxed);
          } else if (work->queued) {
            drop_queued(work);
          }
        }
      }
    }
    fire_callbacks(fire);
  }

  /// Stops admission (submits reject from now on), optionally cancels all
  /// still-queued works, then blocks until the scheduler is idle. After
  /// drain() returns the service is quiescent and every ticket terminal.
  void drain(bool cancel_queued) {
    std::vector<std::shared_ptr<Ticket>> fire;
    std::unique_lock<std::mutex> lock(mu_);
    draining_ = true;
    if (cancel_queued) {
      const auto response =
          bare(core::RequestStatus::kCancelled, "cancelled: service drain");
      while (!queue_.empty()) {
        std::shared_ptr<Work> work = queue_.front();
        queue_.pop_front();
        work->queued = false;
        for (const std::shared_ptr<Ticket>& t : work->waiters)
          (void)terminalize(t, RequestState::kCancelled, response, fire);
        work->waiters.clear();
        work->active = 0;
        erase_inflight(work);
      }
      metrics_.queue_depth.set(0);
    }
    lock.unlock();
    fire_callbacks(fire);
    lock.lock();
    idle_cv_.wait(lock, [&] { return queue_.empty() && !busy_; });
  }

  [[nodiscard]] bool draining() const {
    std::lock_guard<std::mutex> g(mu_);
    return draining_;
  }
  [[nodiscard]] bool tracing_enabled() const {
    return !options_.trace_dir.empty();
  }
  /// Chrome trace-event JSON of the most recently completed work (empty
  /// until the first traced work finishes). Served by the `trace` wire op.
  [[nodiscard]] std::string last_trace() const {
    std::lock_guard<std::mutex> g(trace_mu_);
    return last_trace_;
  }
  /// Worker threads of the pipeline every executed request runs on.
  [[nodiscard]] std::size_t worker_count() const {
    return pipeline_.worker_count();
  }
  /// Why the database_path option did not open; empty when it opened or
  /// none was given.
  [[nodiscard]] const std::string& db_error() const { return db_error_; }
  /// True iff the database failed to open and degrade_on_db_error accepted
  /// serving without it.
  [[nodiscard]] bool degraded() const {
    return !db_error_.empty() && options_.degrade_on_db_error;
  }

 private:
  void open_database() {
    if (options_.database_path.empty()) return;
    std::string err;
    database_ = db::Database::open(options_.database_path, &err);
    if (database_.has_value()) return;
    db_error_ = "cannot open compilation database: " + err;
    if (!options_.degrade_on_db_error) return;
    obs::registry().gauge("service.degraded").set(1);
    std::fprintf(stderr,
                 "femtod: DEGRADED: %s; compiling every request instead "
                 "(responses stay byte-identical to a service without a "
                 "database)\n",
                 db_error_.c_str());
  }

  // --- submit-side helpers (service lock held) -----------------------------

  void reject(const std::shared_ptr<Ticket>& ticket, std::string why,
              std::vector<std::shared_ptr<Ticket>>& fire) {
    if (options_.log)
      std::fprintf(stderr, "femtod: REJECTED ticket %llu: %s\n",
                   static_cast<unsigned long long>(ticket->id_),
                   why.c_str());
    (void)terminalize(ticket, RequestState::kRejected,
                      bare(core::RequestStatus::kRejected, std::move(why)),
                      fire);
  }

  /// A response without outcomes: rejections and runs that never started.
  [[nodiscard]] static PlanStore::Response bare(core::RequestStatus status,
                                                std::string detail) {
    return std::make_shared<const protocol::WireResponse>(
        protocol::WireResponse{status, std::move(detail), {}});
  }

  /// A valid request is answered from the plan store, joins an identical
  /// in-flight work, or queues a new one.
  void admit(const std::shared_ptr<Ticket>& ticket,
             core::CompileRequest request,
             std::vector<std::shared_ptr<Ticket>>& fire) {
    std::string key = protocol::coalesce_key(request);
    if (PlanStore::Response stored = find_stored(key)) {
      // Straight to DONE along the ordinary lifecycle edges.
      {
        std::lock_guard<std::mutex> g(ticket->mu_);
        ticket->lifecycle_.advance(RequestState::kAdmitted);
        ticket->lifecycle_.advance(RequestState::kRunning);
      }
      (void)terminalize(ticket, RequestState::kDone, std::move(stored), fire);
    } else if (std::shared_ptr<Work> existing = find_inflight(key)) {
      attach(ticket, existing);
    } else if (queue_.size() >= options_.max_queue) {
      reject(ticket,
             "queue full: " + std::to_string(queue_.size()) + " of " +
                 std::to_string(options_.max_queue) +
                 " slots in use; back off and retry",
             fire);
    } else {
      enqueue(ticket, std::move(request), std::move(key));
    }
  }

  /// The stored response for a request key: memory first, then the
  /// database file, whose hits are decoded and kept in memory. nullptr =
  /// the request must run.
  [[nodiscard]] PlanStore::Response find_stored(const std::string& key) {
    if (PlanStore::Response hit = store_.find(key)) {
      metrics_.store_hits.inc();
      return hit;
    }
    if (!database_.has_value()) return nullptr;
    const std::optional<std::string_view> bytes = database_->lookup(key);
    if (!bytes.has_value()) return nullptr;
    auto response = std::make_shared<protocol::WireResponse>();
    std::string err = "not a DONE response";
    const std::optional<json::Value> parsed = json::parse(*bytes, &err);
    if (!parsed.has_value() ||
        !protocol::decode_response(*parsed, *response, err) ||
        !response->done()) {
      // Checksummed bytes that do not decode mean a format bug: compile.
      std::fprintf(stderr, "femtod: undecodable database entry: %s\n",
                   err.c_str());
      return nullptr;
    }
    metrics_.store_file_hits.inc();
    remember(key, response, key.size() + bytes->size());
    return response;
  }

  /// Offers a DONE response to the plan store; an armed cache.insert
  /// failpoint drops it (the next repeat recompiles the same bytes).
  void remember(std::string key, PlanStore::Response response,
                std::size_t bytes) {
    if (FEMTO_FAILPOINT("cache.insert")) return;
    metrics_.store_evictions.inc(
        store_.insert(std::move(key), std::move(response), bytes));
  }

  [[nodiscard]] std::shared_ptr<Work> find_inflight(const std::string& key) {
    const auto it = inflight_.find(key);
    if (it == inflight_.end()) return nullptr;
    // A running work whose waiters all cancelled may already have its
    // cooperative cancel flag tripped; attaching would hand the new client
    // a cancellation it never asked for. Let it queue its own work.
    if (it->second->cancel.load(std::memory_order_relaxed)) return nullptr;
    return it->second;
  }

  void attach(const std::shared_ptr<Ticket>& ticket,
              const std::shared_ptr<Work>& work) {
    ticket->coalesced_ = true;
    ticket->work_ = work;
    work->waiters.push_back(ticket);
    ++work->active;
    metrics_.coalesced.inc();
    if (work->running) {
      // Catch the lifecycle up to the work it joined.
      std::lock_guard<std::mutex> g(ticket->mu_);
      ticket->lifecycle_.advance(RequestState::kAdmitted);
      ticket->lifecycle_.advance(RequestState::kRunning);
    }
  }

  void enqueue(const std::shared_ptr<Ticket>& ticket,
               core::CompileRequest request, std::string key) {
    auto work = std::make_shared<Work>();
    const double budget = request.deadline_s > 0.0
                              ? request.deadline_s
                              : options_.default_deadline_s;
    if (budget > 0.0)
      work->deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(budget));
    work->key = std::move(key);
    work->request = std::move(request);
    // Absolute deadline: queue wait counts against the budget. The cancel
    // flag lives in the Work, which outlives the pipeline run.
    work->request.deadline_at = work->deadline;
    work->request.cancel = &work->cancel;
    work->waiters.push_back(ticket);
    work->active = 1;
    work->queued = true;
    work->work_id = ticket->id_;
    work->submitted_at = ticket->submitted_at_;
    if (tracing_enabled())
      work->tracer = std::make_shared<obs::Tracer>(work->submitted_at);
    ticket->work_ = work;
    inflight_[work->key] = work;
    queue_.push_back(std::move(work));
    metrics_.queue_depth.set(static_cast<std::int64_t>(queue_.size()));
  }

  void drop_queued(const std::shared_ptr<Work>& work) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (*it == work) {
        queue_.erase(it);
        break;
      }
    }
    metrics_.queue_depth.set(static_cast<std::int64_t>(queue_.size()));
    work->queued = false;
    work->waiters.clear();
    erase_inflight(work);
  }

  void erase_inflight(const std::shared_ptr<Work>& work) {
    const auto it = inflight_.find(work->key);
    if (it != inflight_.end() && it->second == work) inflight_.erase(it);
  }

  // --- lifecycle plumbing ---------------------------------------------------

  /// Moves a ticket to a terminal state with its response; returns false if
  /// it already was terminal. Caller holds the service lock; ticket locks
  /// nest inside it. The callback is deferred into `fire` so it runs off
  /// both locks.
  bool terminalize(const std::shared_ptr<Ticket>& ticket, RequestState to,
                   std::shared_ptr<const protocol::WireResponse> response,
                   std::vector<std::shared_ptr<Ticket>>& fire) {
    {
      std::lock_guard<std::mutex> g(ticket->mu_);
      if (ticket->lifecycle_.terminal()) return false;
      ticket->lifecycle_.advance(to);
      ticket->response_ = std::move(response);
      ticket->work_.reset();
      ticket->cv_.notify_all();
    }
    switch (to) {
      case RequestState::kDone:
        metrics_.done.inc();
        metrics_.plans_served.inc(ticket->response()->outcomes.size());
        break;
      case RequestState::kCancelled:
        metrics_.cancelled.inc();
        break;
      case RequestState::kDeadlineExceeded:
        metrics_.deadline_exceeded.inc();
        break;
      case RequestState::kRejected:
        metrics_.rejected.inc();
        break;
      default: FEMTO_EXPECTS(false && "terminalize on non-terminal state");
    }
    FEMTO_EXPECTS(inflight_tickets_ > 0);
    --inflight_tickets_;
    metrics_.in_flight.add(-1);
    metrics_.request_latency.record(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      ticket->submitted_at_)
            .count());
    if (ticket->on_terminal_) fire.push_back(ticket);
    return true;
  }

  void advance_live_waiters(Work& work, RequestState to) {
    for (const std::shared_ptr<Ticket>& t : work.waiters) {
      std::lock_guard<std::mutex> g(t->mu_);
      if (t->lifecycle_.terminal()) continue;  // individually cancelled
      t->lifecycle_.advance(to);
    }
  }

  /// Exports a completed work's trace: retained as the last trace (served
  /// by the `trace` op) and written to <trace_dir>/request-<work_id>.json.
  /// Called from the scheduler thread off the service lock, after the
  /// pipeline run joined its workers (the tracer's quiescence requirement).
  void publish_trace(const Work& work) {
    std::string json = work.tracer->to_json();
    const std::string path = options_.trace_dir + "/request-" +
                             std::to_string(work.work_id) + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w"); f != nullptr) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    } else if (options_.log) {
      std::fprintf(stderr, "femtod: cannot write trace %s\n", path.c_str());
    }
    std::lock_guard<std::mutex> g(trace_mu_);
    last_trace_ = std::move(json);
  }

  static void fire_callbacks(
      const std::vector<std::shared_ptr<Ticket>>& fire) {
    for (const std::shared_ptr<Ticket>& t : fire) {
      auto callback = std::move(t->on_terminal_);
      t->on_terminal_ = nullptr;
      callback(*t);
    }
  }

  // --- the scheduler --------------------------------------------------------

  void scheduler_loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      std::shared_ptr<Work> work = queue_.front();
      queue_.pop_front();
      metrics_.queue_depth.set(static_cast<std::int64_t>(queue_.size()));
      work->queued = false;
      busy_ = true;
      std::vector<std::shared_ptr<Ticket>> fire;
      if (work->active == 0) {
        // Every waiter cancelled while queued; nothing to run.
        work->waiters.clear();
        erase_inflight(work);
      } else {
        advance_live_waiters(*work, RequestState::kAdmitted);
        const auto picked = std::chrono::steady_clock::now();
        metrics_.queue_wait.record(
            std::chrono::duration<double>(picked - work->submitted_at)
                .count());
        if (picked > work->deadline) {
          finish(work, RequestState::kDeadlineExceeded,
                 bare(core::RequestStatus::kDeadlineExceeded,
                      "deadline expired while queued (before any restart "
                      "ran)"),
                 fire);
        } else {
          advance_live_waiters(*work, RequestState::kRunning);
          work->running = true;
          lock.unlock();
          // Per-request trace: activate this work's tracer for the span of
          // the pipeline run (the scheduler serializes works, so exactly
          // one tracer is ever active). The queue-wait phase is emitted
          // with explicit timestamps from the recorded submit time.
          obs::Tracer* tracer = work->tracer.get();
          if (tracer != nullptr) {
            obs::Tracer::set_active(tracer);
            obs::TraceEvent qe;
            qe.name = "queue_wait";
            qe.cat = "service";
            qe.iargs.emplace_back("work_id",
                                  static_cast<std::int64_t>(work->work_id));
            tracer->emit_complete(std::move(qe), work->submitted_at, picked);
          }
          const auto run_start = std::chrono::steady_clock::now();
          core::CompileResponse result = pipeline_.compile(work->request);
          const auto run_end = std::chrono::steady_clock::now();
          if (tracer != nullptr) {
            obs::TraceEvent re;
            re.name = "run";
            re.cat = "service";
            re.sargs.emplace_back("status", to_string(result.status));
            tracer->emit_complete(std::move(re), run_start, run_end);
            obs::TraceEvent rq;
            rq.name = "request";
            rq.cat = "service";
            rq.iargs.emplace_back("work_id",
                                  static_cast<std::int64_t>(work->work_id));
            rq.iargs.emplace_back(
                "waiters", static_cast<std::int64_t>(work->waiters.size()));
            rq.sargs.emplace_back("status", to_string(result.status));
            tracer->emit_complete(std::move(rq), work->submitted_at, run_end);
            obs::Tracer::set_active(nullptr);
            publish_trace(*work);
          }
          // The wire form is what every waiter gets and what the store
          // keeps; build it (and size a DONE one) off the lock.
          auto response = std::make_shared<const protocol::WireResponse>(
              protocol::summarize(result, /*include_circuits=*/true));
          const std::size_t stored_bytes =
              result.done() ? work->key.size() +
                                  protocol::encode_response(*response)
                                      .encode()
                                      .size()
                            : 0;
          lock.lock();
          work->running = false;
          // Service admission validated the request, so the pipeline can
          // never reject it here; anything else is a serving-logic bug.
          FEMTO_EXPECTS(result.status != core::RequestStatus::kRejected &&
                        "validated request rejected by pipeline");
          metrics_.works_run.inc();
          metrics_.store_misses.inc();
          if (result.done()) remember(work->key, response, stored_bytes);
          finish(work, to_state(result.status), response, fire);
        }
      }
      // Fire callbacks off the lock, but stay "busy" until they are done
      // so drain() cannot return with a result write still in flight.
      lock.unlock();
      fire_callbacks(fire);
      lock.lock();
      busy_ = false;
      idle_cv_.notify_all();
    }
  }

  /// Completes a work: every still-live waiter gets the shared response in
  /// the work's terminal state. (Service lock held.)
  void finish(const std::shared_ptr<Work>& work, RequestState terminal,
              const std::shared_ptr<const protocol::WireResponse>& response,
              std::vector<std::shared_ptr<Ticket>>& fire) {
    erase_inflight(work);
    for (const std::shared_ptr<Ticket>& t : work->waiters)
      (void)terminalize(t, terminal, response, fire);
    work->waiters.clear();
    work->active = 0;
    if (options_.log)
      std::fprintf(stderr, "femtod: work %s -> %s\n",
                   work->request.scenarios.empty()
                       ? "?"
                       : work->request.scenarios.front().name.c_str(),
                   to_string(terminal));
  }

  /// References into the process-global registry (obs/metrics.hpp) under
  /// the stable service.* names, the only store of the service's counts;
  /// resolved once so the record paths never touch the registry lock.
  struct Metrics {
    obs::Counter& submitted = obs::registry().counter("service.submitted");
    obs::Counter& coalesced = obs::registry().counter("service.coalesced");
    obs::Counter& done = obs::registry().counter("service.done");
    obs::Counter& cancelled = obs::registry().counter("service.cancelled");
    obs::Counter& deadline_exceeded =
        obs::registry().counter("service.deadline_exceeded");
    obs::Counter& rejected = obs::registry().counter("service.rejected");
    obs::Counter& works_run = obs::registry().counter("service.works_run");
    obs::Counter& plans_served =
        obs::registry().counter("service.plans_served");
    obs::Gauge& queue_depth = obs::registry().gauge("service.queue_depth");
    obs::Gauge& in_flight = obs::registry().gauge("service.in_flight");
    obs::Histogram& request_latency =
        obs::registry().histogram("service.request_latency_s");
    obs::Histogram& queue_wait =
        obs::registry().histogram("service.queue_wait_s");
    // Plan-store outcomes under the stable cache.* names: a memory hit, an
    // execution, a database-file hit, an eviction.
    obs::Counter& store_hits = obs::registry().counter("cache.l1_hits");
    obs::Counter& store_misses = obs::registry().counter("cache.misses");
    obs::Counter& store_file_hits = obs::registry().counter("cache.l2_hits");
    obs::Counter& store_evictions =
        obs::registry().counter("cache.evictions");
  };

  ServiceOptions options_;
  core::CompilePipeline pipeline_;
  PlanStore store_;
  std::optional<db::Database> database_;
  std::string db_error_;
  Metrics metrics_;
  mutable std::mutex mu_;
  std::condition_variable cv_;       // wakes the scheduler
  std::condition_variable idle_cv_;  // wakes drain()
  std::deque<std::shared_ptr<Work>> queue_;
  std::unordered_map<std::string, std::shared_ptr<Work>> inflight_;
  std::uint64_t next_ticket_id_ = 0;
  std::size_t inflight_tickets_ = 0;
  bool draining_ = false;
  bool busy_ = false;
  bool stop_ = false;
  mutable std::mutex trace_mu_;
  std::string last_trace_;
  std::thread scheduler_;
};

// ---------------------------------------------------------------------------
// AF_UNIX JSON-line socket front end.
//
// One line in, one or more lines out. Ops:
//   {"op":"ping"}                          -> {"ok":true,"op":"ping",...}
//   {"op":"metrics"}                       -> {"ok":true,"op":"metrics",
//                                              "counters":{...},
//                                              "gauges":{...},
//                                              "histograms":{...}}
//           (the full process-global registry, canonical JSON -- the
//            service.* request counters and the queue_depth / in_flight /
//            degraded gauges included; histograms report
//            count/sum_s/p50_s/p95_s/p99_s)
//   {"op":"trace"}                         -> {"ok":true,"op":"trace",
//                                              "trace":{...chrome trace...}}
//           (span tree of the most recent completed request; error when
//            tracing is disabled or nothing has completed yet)
//   {"op":"compile","id":"r1",
//    "include_circuit":false,
//    "request":{...protocol request...}}   -> ack {"ok":true,"op":"compile",
//                                              "id":"r1","state":...}
//                                          ...later one result line:
//                                          {"op":"result","id":"r1",
//                                           "state":"DONE","coalesced":b,
//                                           "response":{...canonical...}}
//   {"op":"cancel","id":"r1"}              -> {"ok":true,"op":"cancel",...}
//   {"op":"shutdown","mode":"graceful"}    -> ack, then drain + exit run()
//           ("cancel" drops queued work instead of finishing it)
//
// The "response" object is the CANONICAL protocol encoding -- byte-equal to
// encoding the same compile done in-process -- while envelope metadata
// (state, coalesced) stays outside it so bit-identity comparisons work.
// Malformed lines get {"ok":false,"error":...} and the connection lives on.
// A client disconnect cancels its outstanding tickets.
// ---------------------------------------------------------------------------

/// Longest protocol line the daemon will buffer for one connection. A peer
/// that exceeds it without sending '\n' gets a loud protocol error and the
/// connection is closed -- a misbehaving client must not be able to grow an
/// unbounded buffer in the daemon.
inline constexpr std::size_t kMaxLineBytes = std::size_t{4} << 20;

struct SocketServerOptions {
  std::string socket_path;
  /// The service behind the socket; its `log` flag covers the socket layer.
  ServiceOptions service;
};

class SocketServer {
 public:
  explicit SocketServer(SocketServerOptions options)
      : options_(std::move(options)), service_(options_.service) {}

  ~SocketServer() { finish(/*cancel_queued=*/true); }

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds + listens + starts the accept thread. Empty string on success,
  /// diagnostic otherwise -- including a database that failed to open
  /// without degrade_on_db_error.
  [[nodiscard]] std::string start() {
    if (!service_.db_error().empty() && !service_.degraded())
      return service_.db_error();
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socket_path.empty() ||
        options_.socket_path.size() >= sizeof(addr.sun_path))
      return "socket path must be 1.." +
             std::to_string(sizeof(addr.sun_path) - 1) + " bytes, got '" +
             options_.socket_path + "'";
    std::memcpy(addr.sun_path, options_.socket_path.c_str(),
                options_.socket_path.size() + 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return std::string("socket(): ") + std::strerror(errno);
    ::unlink(options_.socket_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      const std::string err = std::strerror(errno);
      ::close(listen_fd_);
      listen_fd_ = -1;
      return "bind(" + options_.socket_path + "): " + err;
    }
    if (::listen(listen_fd_, 64) != 0) {
      const std::string err = std::strerror(errno);
      ::close(listen_fd_);
      listen_fd_ = -1;
      return std::string("listen(): ") + err;
    }
    accept_thread_ = std::thread([this] { accept_loop(); });
    return "";
  }

  /// Blocks until a shutdown op arrives (or external_stop() turns true,
  /// polled ~10x/s -- the signal-handler hook), then drains the service and
  /// tears the socket down. Graceful by default: in-flight and queued work
  /// finishes; the "cancel" mode drops queued work.
  void run(const std::function<bool()>& external_stop = {}) {
    {
      std::unique_lock<std::mutex> lock(run_mu_);
      while (!shutdown_requested_) {
        run_cv_.wait_for(lock, std::chrono::milliseconds(100));
        if (external_stop && external_stop()) shutdown_requested_ = true;
      }
    }
    finish(cancel_queued_.load());
  }

  void request_shutdown(bool cancel_queued) {
    cancel_queued_.store(cancel_queued);
    {
      std::lock_guard<std::mutex> g(run_mu_);
      shutdown_requested_ = true;
    }
    run_cv_.notify_all();
  }

  [[nodiscard]] Service& service() { return service_; }
  [[nodiscard]] const std::string& socket_path() const {
    return options_.socket_path;
  }

 private:
  struct Conn {
    int fd = -1;
    std::mutex write_mu;
    std::mutex tickets_mu;
    std::unordered_map<std::string, std::shared_ptr<Ticket>> tickets;
  };

  void finish(bool cancel_queued) {
    {
      std::lock_guard<std::mutex> g(finish_mu_);
      if (finished_) return;
      finished_ = true;
    }
    // Drain FIRST so in-flight results still reach their connections.
    service_.drain(cancel_queued);
    accept_stop_.store(true);
    if (accept_thread_.joinable()) accept_thread_.join();
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      ::unlink(options_.socket_path.c_str());
    }
    std::vector<std::shared_ptr<Conn>> conns;
    std::vector<std::thread> threads;
    {
      std::lock_guard<std::mutex> g(conns_mu_);
      conns.swap(conns_);
      threads.swap(conn_threads_);
    }
    for (const std::shared_ptr<Conn>& c : conns)
      ::shutdown(c->fd, SHUT_RDWR);  // wakes blocked recv()s
    for (std::thread& t : threads) t.join();
  }

  void accept_loop() {
    while (!accept_stop_.load()) {
      pollfd p{listen_fd_, POLLIN, 0};
      const int r = net::poll_retry(&p, 200);
      if (r <= 0) continue;
      const int fd = net::accept_retry(listen_fd_, nullptr, nullptr);
      if (fd < 0) continue;
      if (FEMTO_FAILPOINT("service.accept")) {
        // Injected fault: drop the connection before reading a byte. The
        // client sees EOF / a refused handshake and its retry policy
        // reconnects.
        ::close(fd);
        continue;
      }
      auto conn = std::make_shared<Conn>();
      conn->fd = fd;
      std::lock_guard<std::mutex> g(conns_mu_);
      conns_.push_back(conn);
      conn_threads_.emplace_back([this, conn] { serve(conn); });
    }
  }

  void serve(const std::shared_ptr<Conn>& conn) {
    std::string buffer;
    // buffer[0, scanned) holds no newline: each search starts past it, so
    // framing a line that arrives in many reads stays linear in its length.
    std::size_t scanned = 0;
    char chunk[4096];
    for (;;) {
      if (FEMTO_FAILPOINT("service.recv")) {
        // Injected fault: tear the connection down mid-read. Outstanding
        // tickets are cancelled by the disconnect path below; the client
        // reconnects and resubmits.
        ::shutdown(conn->fd, SHUT_RDWR);
        break;
      }
      const ssize_t n = net::recv_retry(conn->fd, chunk, sizeof chunk);
      if (n <= 0) break;
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (;;) {
        const std::size_t nl = buffer.find('\n', std::max(start, scanned));
        if (nl == std::string::npos) break;
        std::string line = buffer.substr(start, nl - start);
        start = nl + 1;
        if (!line.empty()) handle_line(conn, line);
      }
      buffer.erase(0, start);
      scanned = buffer.size();
      if (buffer.size() > kMaxLineBytes) {
        // Unbounded-buffer guard: reject loudly, then hang up.
        write_error(conn, "", "",
                    "protocol error: line exceeds " +
                        std::to_string(kMaxLineBytes) +
                        " bytes without a newline; closing connection");
        if (options_.service.log)
          std::fprintf(stderr,
                       "femtod: closing connection: %zu buffered bytes "
                       "without a newline (max %zu)\n",
                       buffer.size(), kMaxLineBytes);
        break;
      }
    }
    // Disconnect = the client walked away: cancel what it was waiting on.
    std::vector<std::shared_ptr<Ticket>> orphans;
    {
      std::lock_guard<std::mutex> g(conn->tickets_mu);
      for (auto& [id, t] : conn->tickets) orphans.push_back(t);
      conn->tickets.clear();
    }
    for (const std::shared_ptr<Ticket>& t : orphans)
      if (!t->terminal()) service_.cancel(t);
    ::close(conn->fd);
  }

  void write_line(const std::shared_ptr<Conn>& conn, std::string line) {
    line += '\n';
    std::lock_guard<std::mutex> g(conn->write_mu);
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = net::send_retry(conn->fd, line.data() + off,
                                        line.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return;  // peer gone; the disconnect path cleans up
      off += static_cast<std::size_t>(n);
    }
  }

  void write_error(const std::shared_ptr<Conn>& conn, const std::string& op,
                   const std::string& id, const std::string& why) {
    json::Value v = json::Value::object();
    v.set("ok", json::Value::boolean(false));
    if (!op.empty()) v.set("op", json::Value::string(op));
    if (!id.empty()) v.set("id", json::Value::string(id));
    v.set("error", json::Value::string(why));
    write_line(conn, v.encode());
  }

  void handle_line(const std::shared_ptr<Conn>& conn,
                   const std::string& line) {
    std::string err;
    const std::optional<json::Value> parsed = json::parse(line, &err);
    if (!parsed.has_value() || !parsed->is_object()) {
      write_error(conn, "", "",
                  parsed.has_value() ? "request must be a JSON object"
                                     : "parse error: " + err);
      return;
    }
    const json::Value& msg = *parsed;
    const json::Value* op_field = msg.find("op");
    if (op_field == nullptr || !op_field->is_string()) {
      write_error(conn, "", "", "missing string field 'op'");
      return;
    }
    const std::string& op = op_field->as_string();
    if (op == "ping") {
      json::Value v = json::Value::object();
      v.set("ok", json::Value::boolean(true));
      v.set("op", json::Value::string("ping"));
      v.set("server", json::Value::string("femtod"));
      write_line(conn, v.encode());
    } else if (op == "failpoints") {
      // Chaos-run control plane: {"op":"failpoints"} lists the registry;
      // "arm" takes the FEMTO_FAILPOINTS grammar ("name:prob:seed,...");
      // "disarm" takes a single name or "all". Malformed specs are a loud
      // error and arm nothing.
      if (const json::Value* arm = msg.find("arm"); arm != nullptr) {
        if (!arm->is_string()) {
          write_error(conn, "failpoints", "", "'arm' must be a string spec");
          return;
        }
        if (const std::string aerr = fail::registry().arm(arm->as_string());
            !aerr.empty()) {
          write_error(conn, "failpoints", "", aerr);
          return;
        }
      }
      if (const json::Value* disarm = msg.find("disarm");
          disarm != nullptr) {
        if (!disarm->is_string()) {
          write_error(conn, "failpoints", "",
                      "'disarm' must be a failpoint name or \"all\"");
          return;
        }
        if (disarm->as_string() == "all") {
          fail::registry().disarm_all();
        } else if (!fail::registry().disarm(disarm->as_string())) {
          write_error(conn, "failpoints", "",
                      "no armed failpoint named '" + disarm->as_string() +
                          "'");
          return;
        }
      }
      json::Value v = json::Value::object();
      v.set("ok", json::Value::boolean(true));
      v.set("op", json::Value::string("failpoints"));
      json::Value points = json::Value::object();
      for (const fail::FailpointView& fp : fail::registry().snapshot()) {
        json::Value e = json::Value::object();
        e.set("armed", json::Value::boolean(fp.armed));
        e.set("prob", json::Value::number(fp.prob));
        e.set("seed", json::Value::number(fp.seed));
        e.set("evaluations", json::Value::number(fp.evaluations));
        e.set("fires", json::Value::number(fp.fires));
        points.set(fp.name, std::move(e));
      }
      v.set("failpoints", std::move(points));
      write_line(conn, v.encode());
    } else if (op == "metrics") {
      const obs::MetricsSnapshot snap = obs::registry().snapshot();
      json::Value v = json::Value::object();
      v.set("ok", json::Value::boolean(true));
      v.set("op", json::Value::string("metrics"));
      json::Value counters = json::Value::object();
      for (const auto& [name, value] : snap.counters)
        counters.set(name, json::Value::number(value));
      v.set("counters", std::move(counters));
      json::Value gauges = json::Value::object();
      for (const auto& [name, value] : snap.gauges)
        gauges.set(name, json::Value::number(static_cast<double>(value)));
      v.set("gauges", std::move(gauges));
      json::Value histograms = json::Value::object();
      for (const obs::HistogramView& h : snap.histograms) {
        json::Value hv = json::Value::object();
        hv.set("count", json::Value::number(h.count));
        hv.set("sum_s", json::Value::number(h.sum_s));
        hv.set("p50_s", json::Value::number(h.p50_s));
        hv.set("p95_s", json::Value::number(h.p95_s));
        hv.set("p99_s", json::Value::number(h.p99_s));
        histograms.set(h.name, std::move(hv));
      }
      v.set("histograms", std::move(histograms));
      write_line(conn, v.encode());
    } else if (op == "trace") {
      if (!service_.tracing_enabled()) {
        write_error(conn, "trace", "",
                    "tracing disabled: start femtod with --trace-dir");
        return;
      }
      const std::string trace = service_.last_trace();
      if (trace.empty()) {
        write_error(conn, "trace", "",
                    "no trace captured yet: complete a compile first");
        return;
      }
      std::optional<json::Value> parsed = json::parse(trace, &err);
      if (!parsed.has_value()) {
        // The tracer emits valid JSON by construction; surface loudly if
        // that ever breaks instead of relaying garbage.
        write_error(conn, "trace", "", "internal: trace not valid JSON: " + err);
        return;
      }
      json::Value v = json::Value::object();
      v.set("ok", json::Value::boolean(true));
      v.set("op", json::Value::string("trace"));
      v.set("trace", std::move(*parsed));
      write_line(conn, v.encode());
    } else if (op == "compile") {
      const json::Value* id_field = msg.find("id");
      if (id_field == nullptr || !id_field->is_string()) {
        write_error(conn, "compile", "", "missing string field 'id'");
        return;
      }
      const std::string id = id_field->as_string();
      bool include_circuit = false;
      const json::Value* inc = msg.find("include_circuit");
      if (inc != nullptr && inc->is_bool()) include_circuit = inc->as_bool();
      const json::Value* req_field = msg.find("request");
      core::CompileRequest request;
      if (req_field == nullptr ||
          !protocol::decode_request(*req_field, request, err)) {
        write_error(conn, "compile", id,
                    req_field == nullptr ? "missing field 'request'" : err);
        return;
      }
      std::shared_ptr<Ticket> ticket = service_.submit(
          std::move(request),
          [this, conn, id, include_circuit](Ticket& t) {
            json::Value v = json::Value::object();
            v.set("op", json::Value::string("result"));
            v.set("id", json::Value::string(id));
            v.set("state", json::Value::string(to_string(t.state())));
            v.set("coalesced", json::Value::boolean(t.coalesced()));
            const std::shared_ptr<const protocol::WireResponse> served =
                t.response();
            if (include_circuit) {
              v.set("response", protocol::encode_response(*served));
            } else {
              protocol::WireResponse bare = *served;
              for (protocol::WireOutcome& oc : bare.outcomes)
                oc.circuit_hex.clear();
              v.set("response", protocol::encode_response(bare));
            }
            write_line(conn, v.encode());
          });
      {
        std::lock_guard<std::mutex> g(conn->tickets_mu);
        conn->tickets[id] = ticket;
      }
      json::Value ack = json::Value::object();
      ack.set("ok", json::Value::boolean(true));
      ack.set("op", json::Value::string("compile"));
      ack.set("id", json::Value::string(id));
      ack.set("state", json::Value::string(to_string(ticket->state())));
      ack.set("coalesced", json::Value::boolean(ticket->coalesced()));
      write_line(conn, ack.encode());
    } else if (op == "cancel") {
      const json::Value* id_field = msg.find("id");
      if (id_field == nullptr || !id_field->is_string()) {
        write_error(conn, "cancel", "", "missing string field 'id'");
        return;
      }
      const std::string id = id_field->as_string();
      std::shared_ptr<Ticket> ticket;
      {
        std::lock_guard<std::mutex> g(conn->tickets_mu);
        const auto it = conn->tickets.find(id);
        if (it != conn->tickets.end()) ticket = it->second;
      }
      if (ticket == nullptr) {
        write_error(conn, "cancel", id, "unknown request id");
        return;
      }
      service_.cancel(ticket);
      json::Value v = json::Value::object();
      v.set("ok", json::Value::boolean(true));
      v.set("op", json::Value::string("cancel"));
      v.set("id", json::Value::string(id));
      v.set("state", json::Value::string(to_string(ticket->state())));
      write_line(conn, v.encode());
    } else if (op == "shutdown") {
      std::string mode = "graceful";
      const json::Value* mode_field = msg.find("mode");
      if (mode_field != nullptr && mode_field->is_string())
        mode = mode_field->as_string();
      if (mode != "graceful" && mode != "cancel") {
        write_error(conn, "shutdown", "",
                    "mode must be 'graceful' or 'cancel'");
        return;
      }
      json::Value v = json::Value::object();
      v.set("ok", json::Value::boolean(true));
      v.set("op", json::Value::string("shutdown"));
      v.set("mode", json::Value::string(mode));
      write_line(conn, v.encode());
      request_shutdown(mode == "cancel");
    } else {
      write_error(conn, op, "", "unknown op");
    }
  }

  SocketServerOptions options_;
  Service service_;
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::atomic<bool> accept_stop_{false};
  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Conn>> conns_;
  std::vector<std::thread> conn_threads_;
  std::mutex run_mu_;
  std::condition_variable run_cv_;
  bool shutdown_requested_ = false;
  std::atomic<bool> cancel_queued_{false};
  std::mutex finish_mu_;
  bool finished_ = false;
};

}  // namespace femto::service
