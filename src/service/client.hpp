// Client-side plumbing for the femtod socket protocol: a buffered
// line-oriented AF_UNIX connection, a blocking CompileClient that speaks
// the compile/result envelope, and the process helpers the smoke test and
// service bench use to boot a daemon and wait for its socket.
//
// The client deliberately re-encodes the daemon's "response" object with
// the same canonical json::Value encoder the server used, so
// Served::canonical_response is byte-comparable against
// protocol::encode_response(...).encode() of an in-process compile -- that
// byte equality is the serving determinism contract CI pins.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "service/lifecycle.hpp"
#include "service/net.hpp"
#include "service/protocol.hpp"

namespace femto::service {

/// Longest reply line a client will buffer before treating the peer as
/// misbehaving (recv_line fails and the connection closes): the client side
/// of the daemon's kMaxLineBytes guard, sized for replies that carry
/// circuits.
inline constexpr std::size_t kMaxReplyBytes = std::size_t{256} << 20;

/// A line-buffered client connection to a femtod socket.
class ClientConnection {
 public:
  ClientConnection() = default;
  ~ClientConnection() { close(); }
  ClientConnection(const ClientConnection&) = delete;
  ClientConnection& operator=(const ClientConnection&) = delete;
  ClientConnection(ClientConnection&& other) noexcept
      : fd_(std::exchange(other.fd_, -1)),
        buffer_(std::move(other.buffer_)),
        scanned_(std::exchange(other.scanned_, 0)) {}
  ClientConnection& operator=(ClientConnection&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = std::exchange(other.fd_, -1);
      buffer_ = std::move(other.buffer_);
      scanned_ = std::exchange(other.scanned_, 0);
    }
    return *this;
  }

  /// Empty string on success, diagnostic otherwise.
  [[nodiscard]] std::string connect(const std::string& socket_path) {
    close();
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path))
      return "socket path too long: " + socket_path;
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return std::string("socket(): ") + std::strerror(errno);
    if (net::connect_retry(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) != 0) {
      const std::string err = std::strerror(errno);
      close();
      return "connect(" + socket_path + "): " + err;
    }
    return "";
  }

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    buffer_.clear();
    scanned_ = 0;
  }

  [[nodiscard]] bool send_line(const std::string& line) {
    std::string out = line;
    out += '\n';
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t n =
          net::send_retry(fd_, out.data() + off, out.size() - off,
                          MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Next newline-terminated line (without the newline); nullopt on EOF,
  /// error, or timeout. timeout_ms < 0 blocks indefinitely.
  [[nodiscard]] std::optional<std::string> recv_line(int timeout_ms = -1) {
    const auto started = std::chrono::steady_clock::now();
    for (;;) {
      const std::size_t nl = buffer_.find('\n', scanned_);
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        scanned_ = 0;
        return line;
      }
      scanned_ = buffer_.size();
      int wait_ms = -1;
      if (timeout_ms >= 0) {
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - started)
                .count();
        wait_ms = timeout_ms - static_cast<int>(elapsed);
        if (wait_ms < 0) return std::nullopt;
      }
      pollfd p{fd_, POLLIN, 0};
      const int r = net::poll_retry(&p, wait_ms);
      if (r <= 0) return std::nullopt;
      char chunk[4096];
      const ssize_t n = net::recv_retry(fd_, chunk, sizeof chunk);
      if (n <= 0) return std::nullopt;
      buffer_.append(chunk, static_cast<std::size_t>(n));
      if (buffer_.size() > kMaxReplyBytes &&
          buffer_.find('\n', scanned_) == std::string::npos) {
        // Unbounded-buffer guard: a peer streaming bytes with no newline
        // is misbehaving -- fail loudly and hang up.
        close();
        return std::nullopt;
      }
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
  // buffer_[0, scanned_) holds no newline: each search starts past it, so
  // framing a reply that arrives in many reads stays linear in its length.
  std::size_t scanned_ = 0;
};

/// Polls until the daemon's socket accepts a connection (the portable
/// "server is up" signal). Returns the connected client or nullopt.
[[nodiscard]] inline std::optional<ClientConnection> wait_for_server(
    const std::string& socket_path, int timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    ClientConnection conn;
    if (conn.connect(socket_path).empty()) return conn;
    if (std::chrono::steady_clock::now() > deadline) return std::nullopt;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

/// fork+exec a child process (argv[0] is the binary path). Returns the pid
/// or -1.
[[nodiscard]] inline pid_t spawn_process(
    const std::vector<std::string>& argv) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  std::vector<char*> raw;
  raw.reserve(argv.size() + 1);
  for (const std::string& a : argv) raw.push_back(const_cast<char*>(a.c_str()));
  raw.push_back(nullptr);
  ::execv(raw[0], raw.data());
  std::perror("execv");
  ::_exit(127);
}

/// waitpid wrapper: the child's exit code, or -1 on abnormal termination.
[[nodiscard]] inline int wait_process(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  if (!WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

/// What one compile op came back as: the lifecycle terminal state, whether
/// the daemon coalesced it, the decoded response, and the byte-exact
/// canonical encoding of the response object (for bit-identity checks).
struct Served {
  RequestState state = RequestState::kRejected;
  bool coalesced = false;
  protocol::WireResponse response;
  std::string canonical_response;
};

/// Seeded, deterministic exponential-backoff-with-jitter retry schedule.
/// The whole schedule is a pure function of (policy, attempt index), so a
/// chaos run replays the same client timing every time -- and tests can
/// assert the exact delays.
struct RetryPolicy {
  /// Total tries, the first one included. 1 = no retries.
  std::size_t max_attempts = 8;
  double base_delay_s = 0.01;
  double max_delay_s = 1.0;
  /// Fraction of each delay randomized away (0 = fixed schedule). Jitter
  /// shrinks the delay, never grows it, so max_delay_s stays a hard bound.
  double jitter = 0.5;
  /// Seed of the jitter stream; distinct clients should use distinct seeds
  /// so a failed fleet does not retry in lockstep.
  std::uint64_t seed = 0;
};

/// Delay before retry number `retry` (1-based: the delay between attempt
/// `retry` and attempt `retry + 1`).
[[nodiscard]] inline double retry_delay_s(const RetryPolicy& policy,
                                          std::size_t retry) {
  if (retry == 0) return 0.0;
  const std::size_t shift = std::min<std::size_t>(retry - 1, 30);
  const double exp = std::min(
      policy.max_delay_s,
      policy.base_delay_s * static_cast<double>(std::uint64_t{1} << shift));
  const std::uint64_t mixed =
      splitmix64(policy.seed ^ (0x9e3779b97f4a7c15ULL * retry));
  const double u = static_cast<double>(mixed >> 11) * 0x1.0p-53;  // [0, 1)
  return exp * (1.0 - policy.jitter * u);
}

/// A blocking, single-request-at-a-time protocol client.
class CompileClient {
 public:
  explicit CompileClient(ClientConnection conn) : conn_(std::move(conn)) {}

  /// A client that can (re)connect on its own: compile_retry uses
  /// `socket_path` to re-establish the connection after connect failures
  /// and mid-request disconnects, pacing attempts by `policy`.
  CompileClient(std::string socket_path, RetryPolicy policy)
      : socket_path_(std::move(socket_path)), policy_(policy) {}

  [[nodiscard]] ClientConnection& connection() { return conn_; }

  /// Explicit (re)connect for clients built from a socket path; "" on
  /// success. compile_retry also connects lazily -- this is for ops that
  /// need a live connection up front (ping, metrics, failpoints).
  [[nodiscard]] std::string connect() {
    if (conn_.connected()) return "";
    if (socket_path_.empty()) return "no socket path to connect to";
    const std::string err = conn_.connect(socket_path_);
    if (err.empty()) ever_connected_ = true;
    return err;
  }

  [[nodiscard]] bool ping(int timeout_ms = 5000) {
    if (!conn_.send_line(R"({"op":"ping"})")) return false;
    const std::optional<std::string> line = conn_.recv_line(timeout_ms);
    if (!line.has_value()) return false;
    const std::optional<json::Value> msg = json::parse(*line);
    if (!msg.has_value() || !msg->is_object()) return false;
    const json::Value* ok = msg->find("ok");
    return ok != nullptr && ok->is_bool() && ok->as_bool();
  }

  /// Full metrics-registry export ({"counters":…,"gauges":…,
  /// "histograms":…} envelope), or nullopt on transport/parse failure or a
  /// server-side error.
  [[nodiscard]] std::optional<json::Value> metrics(int timeout_ms = 5000) {
    std::optional<json::Value> msg = simple_op("metrics", timeout_ms);
    if (!msg.has_value()) return std::nullopt;
    const json::Value* ok = msg->find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool())
      return std::nullopt;
    return msg;
  }

  /// The last completed request's Chrome trace-event object (the "trace"
  /// field of the reply), or nullopt when tracing is disabled, nothing has
  /// completed yet, or transport failed. `error` gets the server
  /// diagnostic when one arrived.
  [[nodiscard]] std::optional<json::Value> trace(std::string& error,
                                                int timeout_ms = 5000) {
    std::optional<json::Value> msg = simple_op("trace", timeout_ms);
    if (!msg.has_value()) {
      error = "transport or parse failure";
      return std::nullopt;
    }
    const json::Value* ok = msg->find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
      const json::Value* why = msg->find("error");
      error = why != nullptr && why->is_string() ? why->as_string()
                                                 : "trace op failed";
      return std::nullopt;
    }
    const json::Value* trace = msg->find("trace");
    if (trace == nullptr) {
      error = "trace reply without 'trace' field";
      return std::nullopt;
    }
    return *trace;
  }

  /// Submits one compile and blocks for its result line. The ack and the
  /// result are matched by id, in either order (an immediately-terminal
  /// submission may put the result on the wire first). Error string in
  /// `error` on failure.
  [[nodiscard]] std::optional<Served> compile(
      const core::CompileRequest& request, const std::string& id,
      std::string& error, bool include_circuit = false,
      int timeout_ms = 120000) {
    json::Value msg = json::Value::object();
    msg.set("op", json::Value::string("compile"));
    msg.set("id", json::Value::string(id));
    msg.set("include_circuit", json::Value::boolean(include_circuit));
    msg.set("request", protocol::encode_request(request));
    if (!conn_.send_line(msg.encode())) {
      error = "send failed";
      return std::nullopt;
    }
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    // The ack and the result are written by different server threads, so
    // they arrive in either order; both must be consumed before returning
    // or the leftover line would corrupt the next op on this connection.
    bool ack_seen = false;
    std::optional<Served> result;
    for (;;) {
      if (ack_seen && result.has_value()) return result;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) {
        error = "timed out waiting for result of '" + id + "'";
        return std::nullopt;
      }
      const std::optional<std::string> line =
          conn_.recv_line(static_cast<int>(left.count()));
      if (!line.has_value()) {
        error = "connection closed waiting for result of '" + id + "'";
        return std::nullopt;
      }
      const std::optional<json::Value> reply = json::parse(*line, &error);
      if (!reply.has_value() || !reply->is_object()) {
        error = "unparseable reply: " + *line;
        return std::nullopt;
      }
      const json::Value* op = reply->find("op");
      const json::Value* rid = reply->find("id");
      const bool ours = rid != nullptr && rid->is_string() &&
                        rid->as_string() == id;
      if (op != nullptr && op->is_string() && op->as_string() == "compile") {
        // The ack; a failed ack is the final word on this id.
        const json::Value* ok = reply->find("ok");
        if (ours && ok != nullptr && ok->is_bool() && !ok->as_bool()) {
          const json::Value* why = reply->find("error");
          error = why != nullptr && why->is_string() ? why->as_string()
                                                     : "compile rejected";
          return std::nullopt;
        }
        if (ours) ack_seen = true;
        continue;
      }
      if (op == nullptr || !op->is_string() || op->as_string() != "result" ||
          !ours)
        continue;  // a reply for some other id on a shared connection
      Served served;
      const json::Value* state = reply->find("state");
      if (state != nullptr && state->is_string()) {
        const std::optional<RequestState> parsed_state =
            parse_request_state(state->as_string());
        if (parsed_state.has_value()) served.state = *parsed_state;
      }
      const json::Value* coal = reply->find("coalesced");
      if (coal != nullptr && coal->is_bool())
        served.coalesced = coal->as_bool();
      const json::Value* resp = reply->find("response");
      if (resp == nullptr) {
        error = "result without 'response' field";
        return std::nullopt;
      }
      served.canonical_response = resp->encode();
      if (!protocol::decode_response(*resp, served.response, error))
        return std::nullopt;
      result = std::move(served);
    }
  }

  /// compile() under the client's RetryPolicy. Retried failure classes:
  /// connect failures (daemon down or restarting), queue-full and draining
  /// rejections (the server explicitly asked for back-off), and
  /// mid-request transport faults (disconnect, timeout, torn reply). After
  /// any transport fault the connection is closed and re-established so a
  /// stale line from the dead attempt can never corrupt the next one (the
  /// daemon cancels a disconnected client's tickets). Permanent rejections
  /// (e.g. "invalid request") are returned immediately. Counted in the obs
  /// registry as service.retries / service.reconnects.
  [[nodiscard]] std::optional<Served> compile_retry(
      const core::CompileRequest& request, const std::string& id,
      std::string& error, bool include_circuit = false,
      int timeout_ms = 120000) {
    static obs::Counter& retries =
        obs::registry().counter("service.retries");
    static obs::Counter& reconnects =
        obs::registry().counter("service.reconnects");
    error.clear();
    for (std::size_t attempt = 1; attempt <= policy_.max_attempts;
         ++attempt) {
      if (attempt > 1) {
        retries.inc();
        std::this_thread::sleep_for(std::chrono::duration<double>(
            retry_delay_s(policy_, attempt - 1)));
      }
      if (!conn_.connected()) {
        if (socket_path_.empty()) {
          error = "not connected and no socket path to reconnect to";
          return std::nullopt;
        }
        if (const std::string cerr = conn_.connect(socket_path_);
            !cerr.empty()) {
          error = cerr;
          continue;
        }
        if (ever_connected_) reconnects.inc();
        ever_connected_ = true;
      }
      std::string aerr;
      std::optional<Served> served =
          compile(request, id, aerr, include_circuit, timeout_ms);
      if (!served.has_value()) {
        // Transport fault or a failed ack: either way this connection's
        // state is unknown -- drop it and retry on a fresh one.
        error = aerr;
        conn_.close();
        continue;
      }
      if (served->state == RequestState::kRejected &&
          retryable_rejection(served->response.detail)) {
        // The server asked for back-off; the connection itself is healthy.
        error = served->response.detail;
        continue;
      }
      return served;
    }
    error = "gave up after " + std::to_string(policy_.max_attempts) +
            " attempts: " + error;
    return std::nullopt;
  }

  /// The `failpoints` chaos control op: lists the daemon's failpoint
  /// registry; non-empty `arm` ("name:prob:seed,...") arms first,
  /// non-empty `disarm` (a name or "all") disarms. nullopt + `error` on
  /// transport failure or a rejected spec.
  [[nodiscard]] std::optional<json::Value> failpoints(
      const std::string& arm, const std::string& disarm, std::string& error,
      int timeout_ms = 5000) {
    json::Value msg = json::Value::object();
    msg.set("op", json::Value::string("failpoints"));
    if (!arm.empty()) msg.set("arm", json::Value::string(arm));
    if (!disarm.empty()) msg.set("disarm", json::Value::string(disarm));
    if (!conn_.send_line(msg.encode())) {
      error = "send failed";
      return std::nullopt;
    }
    const std::optional<std::string> line = conn_.recv_line(timeout_ms);
    if (!line.has_value()) {
      error = "connection closed waiting for failpoints reply";
      return std::nullopt;
    }
    std::optional<json::Value> reply = json::parse(*line, &error);
    if (!reply.has_value() || !reply->is_object()) {
      error = "unparseable reply: " + *line;
      return std::nullopt;
    }
    const json::Value* ok = reply->find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
      const json::Value* why = reply->find("error");
      error = why != nullptr && why->is_string() ? why->as_string()
                                                 : "failpoints op failed";
      return std::nullopt;
    }
    return reply;
  }

  /// Graceful (or cancelling) shutdown handshake.
  [[nodiscard]] bool shutdown(bool cancel_queued = false,
                              int timeout_ms = 5000) {
    json::Value msg = json::Value::object();
    msg.set("op", json::Value::string("shutdown"));
    msg.set("mode",
            json::Value::string(cancel_queued ? "cancel" : "graceful"));
    if (!conn_.send_line(msg.encode())) return false;
    const std::optional<std::string> line = conn_.recv_line(timeout_ms);
    if (!line.has_value()) return false;
    const std::optional<json::Value> reply = json::parse(*line);
    if (!reply.has_value() || !reply->is_object()) return false;
    const json::Value* ok = reply->find("ok");
    return ok != nullptr && ok->is_bool() && ok->as_bool();
  }

 private:
  /// One-line request / one-line object reply ops (metrics, trace).
  [[nodiscard]] std::optional<json::Value> simple_op(const std::string& op,
                                                     int timeout_ms) {
    if (!conn_.send_line("{\"op\":\"" + op + "\"}")) return std::nullopt;
    const std::optional<std::string> line = conn_.recv_line(timeout_ms);
    if (!line.has_value()) return std::nullopt;
    std::optional<json::Value> msg = json::parse(*line);
    if (!msg.has_value() || !msg->is_object()) return std::nullopt;
    return msg;
  }

  /// Rejections whose detail explicitly invites a retry. Anything else
  /// (e.g. "invalid request: ...") is the caller's bug, not the weather.
  [[nodiscard]] static bool retryable_rejection(const std::string& detail) {
    return detail.rfind("queue full:", 0) == 0 ||
           detail.rfind("service is draining", 0) == 0;
  }

  ClientConnection conn_;
  std::string socket_path_;
  RetryPolicy policy_;
  bool ever_connected_ = false;
};

}  // namespace femto::service
