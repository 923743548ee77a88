// Deterministic fault injection: a process-global registry of named
// failpoints threaded through the serving stack's failure-prone seams
// (db writes, socket accept/recv, plan-store inserts, pipeline restarts).
//
// A failpoint is evaluated with FEMTO_FAILPOINT("name"): it returns true
// ("fire the fault") with the armed probability, drawn from a splitmix64
// stream seeded at arm time -- so a chaos run with a fixed spec replays the
// same fault sequence at every site, every time. Arm via either
//
//   * the environment: FEMTO_FAILPOINTS=db.write.short:0.5:42,service.recv:0.1:7
//     (parsed once, on first registry use; a malformed spec aborts loudly --
//     silently serving *without* the faults an operator asked for is the
//     one behavior a fault-injection framework must never have), or
//   * programmatically / over the wire: fail::registry().arm("name:p:seed")
//     (the femtod `failpoints` op forwards here), which returns a
//     diagnostic string instead of aborting.
//
// Cost contract (pinned by test_failpoint and bench_service's
// failpoint_disabled_zero_alloc, like obs::Tracer's disabled path): when NO
// failpoint is armed anywhere in the process, FEMTO_FAILPOINT is exactly one
// relaxed atomic load -- no allocation, no clock, no registry lookup, no
// static-local guard (the armed count is constinit). Armed evaluations take
// the registry mutex; faults are rare events, not hot paths.
//
// Stable failpoint names (the contract chaos tooling scripts against; see
// README "Resilience"):
//
//   db.write.short    DatabaseBuilder::write: a chunk write fails short;
//                     the write() call returns a diagnostic, the tmp file
//                     is removed, the previous database is untouched
//   db.write.kill     DatabaseBuilder::write: the process dies (_Exit 137)
//                     mid-write, leaving a torn tmp file behind -- the
//                     kill-mid-write recovery tests arm this in a fork
//   db.fsync          DatabaseBuilder::write: fsync of the tmp file fails
//   service.accept    SocketServer: an accepted connection is dropped
//                     before any byte is read (client sees EOF -> retries)
//   service.recv      SocketServer: the connection is torn down mid-read
//                     (client reconnects and resubmits)
//   cache.insert      service::Service: a plan-store insert is dropped (as
//                     if evicted instantly); the caller still gets its
//                     answer and the next repeat recompiles identical bytes
//   pipeline.restart  CompilePipeline restart boundary: the finished job is
//                     thrown away and recomputed once (purity makes the
//                     retry bit-identical; counted in
//                     pipeline.restart_retries)
//
// Header-only, depends only on common/. No other header may be needed to
// *evaluate* a failpoint -- sites include this one file.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace femto::fail {

namespace detail {

/// Number of currently armed failpoints, process-wide. constinit + inline:
/// no static-local guard anywhere on the read path, so the disabled
/// FEMTO_FAILPOINT fast path compiles to one relaxed load and a branch.
inline constinit std::atomic<int> g_armed_count{0};

}  // namespace detail

/// One entry of a parsed FEMTO_FAILPOINTS spec.
struct FailpointSpec {
  std::string name;
  double prob = 1.0;
  std::uint64_t seed = 0;
};

/// Parses "name[:prob[:seed]],..." (prob defaults to 1, seed to 0).
/// Returns nullopt and sets *error on any malformed entry; never partially
/// applies (pure parse, no side effects).
[[nodiscard]] inline std::optional<std::vector<FailpointSpec>> parse_spec(
    const std::string& spec, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = "bad failpoint spec '" + spec + "': " + why;
    return std::nullopt;
  };
  std::vector<FailpointSpec> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) {
      if (spec.empty()) break;
      return fail("empty entry");
    }
    FailpointSpec fp;
    const std::size_t c1 = entry.find(':');
    fp.name = entry.substr(0, c1);
    if (fp.name.empty()) return fail("empty failpoint name");
    if (c1 != std::string::npos) {
      const std::size_t c2 = entry.find(':', c1 + 1);
      const std::string prob_s = entry.substr(
          c1 + 1, c2 == std::string::npos ? std::string::npos : c2 - c1 - 1);
      try {
        std::size_t used = 0;
        fp.prob = std::stod(prob_s, &used);
        if (used != prob_s.size()) throw std::invalid_argument(prob_s);
      } catch (const std::exception&) {
        return fail("probability '" + prob_s + "' is not a number");
      }
      if (!(fp.prob >= 0.0) || !(fp.prob <= 1.0))
        return fail("probability " + prob_s + " outside [0, 1]");
      if (c2 != std::string::npos) {
        const std::string seed_s = entry.substr(c2 + 1);
        try {
          std::size_t used = 0;
          fp.seed = std::stoull(seed_s, &used);
          if (used != seed_s.size()) throw std::invalid_argument(seed_s);
        } catch (const std::exception&) {
          return fail("seed '" + seed_s + "' is not an unsigned integer");
        }
      }
    }
    out.push_back(std::move(fp));
    if (comma == spec.size()) break;
  }
  return out;
}

/// A single named failpoint. Pointer-stable once created (owned by the
/// Registry); all mutation happens under the registry mutex.
struct Failpoint {
  bool armed = false;
  double prob = 1.0;
  std::uint64_t seed = 0;
  std::uint64_t state = 0;  // splitmix64 walk, reset at arm time
  std::uint64_t evaluations = 0;  // armed evaluations only
  std::uint64_t fires = 0;
};

/// Snapshot row for exporters (the femtod `failpoints` op).
struct FailpointView {
  std::string name;
  bool armed = false;
  double prob = 1.0;
  std::uint64_t seed = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t fires = 0;
};

class Registry {
 public:
  /// Arms every entry of `spec` ("name:prob:seed,..."). Returns "" on
  /// success or a diagnostic; a malformed spec arms NOTHING.
  [[nodiscard]] std::string arm(const std::string& spec) {
    std::string error;
    const std::optional<std::vector<FailpointSpec>> parsed =
        parse_spec(spec, &error);
    if (!parsed.has_value()) return error;
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const FailpointSpec& fp : *parsed) arm_locked(fp);
    return "";
  }

  void arm_one(const FailpointSpec& fp) {
    const std::lock_guard<std::mutex> lock(mutex_);
    arm_locked(fp);
  }

  /// Disarms one failpoint; returns false if no such (armed) name exists.
  bool disarm(const std::string& name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = points_.find(name);
    if (it == points_.end() || !it->second->armed) return false;
    it->second->armed = false;
    detail::g_armed_count.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  void disarm_all() {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [name, p] : points_) {
      if (p->armed) {
        p->armed = false;
        detail::g_armed_count.fetch_sub(1, std::memory_order_relaxed);
      }
    }
  }

  /// Armed-path evaluation (the macro already saw g_armed_count != 0).
  /// Deterministic: the fire sequence of a point is a pure function of
  /// (seed, evaluation index since arm).
  [[nodiscard]] bool should_fire(const char* name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = points_.find(name);
    if (it == points_.end() || !it->second->armed) return false;
    Failpoint& p = *it->second;
    ++p.evaluations;
    p.state = splitmix64(p.state);
    const double u =
        static_cast<double>(p.state >> 11) * 0x1.0p-53;  // [0, 1)
    if (u >= p.prob) return false;
    ++p.fires;
    return true;
  }

  [[nodiscard]] std::vector<FailpointView> snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<FailpointView> out;
    out.reserve(points_.size());
    for (const auto& [name, p] : points_)
      out.push_back({name, p->armed, p->prob, p->seed, p->evaluations,
                     p->fires});
    return out;
  }

 private:
  void arm_locked(const FailpointSpec& fp) {
    auto& slot = points_[fp.name];
    if (slot == nullptr) slot = std::make_unique<Failpoint>();
    if (!slot->armed)
      detail::g_armed_count.fetch_add(1, std::memory_order_relaxed);
    slot->armed = true;
    slot->prob = fp.prob;
    slot->seed = fp.seed;
    // Decorrelate the walk from the raw seed so seed 0 / seed 1 streams
    // differ from the first draw; re-arming resets the sequence.
    slot->state = derive_stream_seed(fp.seed, 0xfa11);
    slot->evaluations = 0;
    slot->fires = 0;
  }

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Failpoint>> points_;
};

/// THE process-global failpoint registry. First use parses FEMTO_FAILPOINTS
/// from the environment; a malformed value aborts (see header comment).
/// Intentionally leaked so failpoints stay evaluable during static
/// destruction of other objects.
[[nodiscard]] inline Registry& registry() {
  static Registry* r = [] {
    auto* reg = new Registry();
    if (const char* env = std::getenv("FEMTO_FAILPOINTS");
        env != nullptr && env[0] != '\0') {
      const std::string error = reg->arm(env);
      if (!error.empty()) {
        std::fprintf(stderr, "femto: FEMTO_FAILPOINTS rejected: %s\n",
                     error.c_str());
        std::abort();
      }
    }
    return reg;
  }();
  return *r;
}

namespace detail {

/// Armed-path half of FEMTO_FAILPOINT; out of the macro so the fast path
/// inlines to load+branch+call.
[[nodiscard]] inline bool evaluate(const char* name) {
  return registry().should_fire(name);
}

/// Forces registry construction (and with it FEMTO_FAILPOINTS parsing)
/// before main in every binary that can evaluate a failpoint -- otherwise
/// env-armed points would never raise g_armed_count and the macro's fast
/// path would skip them forever.
[[maybe_unused]] inline const bool g_env_parsed =
    (static_cast<void>(registry()), true);

}  // namespace detail

}  // namespace femto::fail

/// True iff the named failpoint is armed and fires on this evaluation.
/// Disabled cost (nothing armed process-wide): ONE relaxed atomic load.
#define FEMTO_FAILPOINT(name)                                            \
  (::femto::fail::detail::g_armed_count.load(std::memory_order_relaxed) != \
       0 &&                                                              \
   ::femto::fail::detail::evaluate(name))
