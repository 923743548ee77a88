// Contract tests for the fault-injection framework (common/failpoint.hpp)
// and the resilience features built on it:
//  * Zero-cost disabled path: with nothing armed, FEMTO_FAILPOINT performs
//    ZERO heap allocations (pinned by overriding the global allocator in
//    this binary, exactly like the obs::Tracer disabled-path test).
//  * Determinism: an armed failpoint's fire sequence is a pure function of
//    (seed, evaluation index) -- re-arming replays it bit-for-bit.
//  * Spec grammar: FEMTO_FAILPOINTS parsing accepts the documented forms
//    and rejects everything else without partially applying.
//  * Retry schedule: CompileClient's exponential-backoff-with-jitter delays
//    are a pure function of (policy, attempt), bounded by max_delay_s.
//  * pipeline.restart: an injected restart-boundary fault recomputes the
//    job and the response stays byte-identical (purity).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.hpp"
#include "core/pipeline.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"

// ---- allocation-counting global allocator (whole test binary) -------------
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

namespace femto {
namespace {

/// Every test leaves the process-global registry clean, armed or not.
class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { fail::registry().disarm_all(); }
};

// ---- disabled fast path ---------------------------------------------------

TEST_F(FailpointTest, DisabledPathPerformsZeroAllocations) {
  fail::registry().disarm_all();
  bool fired = false;
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 100000; ++i)
    if (FEMTO_FAILPOINT("test.disabled.probe")) fired = true;
  const std::uint64_t delta = g_allocations.load() - before;
  EXPECT_EQ(delta, 0u) << "disabled failpoint evaluation allocated";
  EXPECT_FALSE(fired);
}

TEST_F(FailpointTest, DisabledPointStaysSilentWhileAnotherIsArmed) {
  ASSERT_EQ(fail::registry().arm("test.other:1:1"), "");
  for (int i = 0; i < 1000; ++i)
    EXPECT_FALSE(FEMTO_FAILPOINT("test.never.armed"));
  EXPECT_TRUE(FEMTO_FAILPOINT("test.other"));
}

// ---- spec grammar ---------------------------------------------------------

TEST_F(FailpointTest, ParsesFullAndDefaultedSpecs) {
  std::string err;
  const auto specs =
      fail::parse_spec("db.write.short:0.5:42,service.recv,cache.insert:1",
                       &err);
  ASSERT_TRUE(specs.has_value()) << err;
  ASSERT_EQ(specs->size(), 3u);
  EXPECT_EQ((*specs)[0].name, "db.write.short");
  EXPECT_DOUBLE_EQ((*specs)[0].prob, 0.5);
  EXPECT_EQ((*specs)[0].seed, 42u);
  EXPECT_EQ((*specs)[1].name, "service.recv");
  EXPECT_DOUBLE_EQ((*specs)[1].prob, 1.0);  // default
  EXPECT_EQ((*specs)[1].seed, 0u);          // default
  EXPECT_EQ((*specs)[2].name, "cache.insert");
  EXPECT_DOUBLE_EQ((*specs)[2].prob, 1.0);
}

TEST_F(FailpointTest, EmptySpecParsesToNothing) {
  std::string err;
  const auto specs = fail::parse_spec("", &err);
  ASSERT_TRUE(specs.has_value()) << err;
  EXPECT_TRUE(specs->empty());
}

TEST_F(FailpointTest, RejectsMalformedSpecsLoudly) {
  for (const char* bad :
       {"name:1.5", "name:-0.1", "name:zero", "name:0.5:abc", ":0.5",
        "a,,b", "name:0.5:1:extra"}) {
    std::string err;
    EXPECT_FALSE(fail::parse_spec(bad, &err).has_value()) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
  // "name:0.5:1:extra": the seed field "1:extra" fails integer parsing.
}

TEST_F(FailpointTest, MalformedArmSpecArmsNothing) {
  const std::string err = fail::registry().arm("test.good:1,test.bad:2.0");
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(FEMTO_FAILPOINT("test.good"));
}

// ---- deterministic firing -------------------------------------------------

std::vector<bool> fire_pattern(const std::string& spec, const char* name,
                               int n) {
  EXPECT_EQ(fail::registry().arm(spec), "");
  std::vector<bool> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(FEMTO_FAILPOINT(name));
  EXPECT_TRUE(fail::registry().disarm(name));
  return out;
}

TEST_F(FailpointTest, FireSequenceIsAPureFunctionOfSeed) {
  const auto a = fire_pattern("test.det:0.5:42", "test.det", 256);
  const auto b = fire_pattern("test.det:0.5:42", "test.det", 256);
  EXPECT_EQ(a, b) << "re-arming with the same seed must replay the sequence";
  const auto c = fire_pattern("test.det:0.5:43", "test.det", 256);
  EXPECT_NE(a, c) << "different seeds must decorrelate";
  // ~half fire at prob 0.5; loose bounds, the sequence is deterministic.
  const auto fires = static_cast<std::size_t>(
      std::count(a.begin(), a.end(), true));
  EXPECT_GT(fires, 64u);
  EXPECT_LT(fires, 192u);
}

TEST_F(FailpointTest, ProbabilityEndpointsAreExact) {
  ASSERT_EQ(fail::registry().arm("test.p0:0,test.p1:1"), "");
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(FEMTO_FAILPOINT("test.p0"));
    EXPECT_TRUE(FEMTO_FAILPOINT("test.p1"));
  }
  for (const fail::FailpointView& fp : fail::registry().snapshot()) {
    if (fp.name == "test.p0") {
      EXPECT_EQ(fp.evaluations, 1000u);
      EXPECT_EQ(fp.fires, 0u);
    }
    if (fp.name == "test.p1") {
      EXPECT_EQ(fp.evaluations, 1000u);
      EXPECT_EQ(fp.fires, 1000u);
    }
  }
}

TEST_F(FailpointTest, DisarmUnknownNameReportsFalse) {
  EXPECT_FALSE(fail::registry().disarm("test.no.such.point"));
}

TEST_F(FailpointTest, ConcurrentEvaluationIsSafeAndCounted) {
  ASSERT_EQ(fail::registry().arm("test.mt:0.5:7"), "");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([] {
      for (int i = 0; i < 10000; ++i)
        static_cast<void>(FEMTO_FAILPOINT("test.mt"));
    });
  for (std::thread& t : threads) t.join();
  for (const fail::FailpointView& fp : fail::registry().snapshot()) {
    if (fp.name == "test.mt") {
      EXPECT_EQ(fp.evaluations, 40000u);
    }
  }
}

// ---- retry schedule -------------------------------------------------------

TEST_F(FailpointTest, RetryDelaysAreDeterministicAndBounded) {
  service::RetryPolicy policy;
  policy.base_delay_s = 0.01;
  policy.max_delay_s = 0.5;
  policy.jitter = 0.5;
  policy.seed = 1234;
  for (std::size_t retry = 1; retry <= 64; ++retry) {
    const double d = service::retry_delay_s(policy, retry);
    EXPECT_EQ(d, service::retry_delay_s(policy, retry)) << retry;
    EXPECT_GT(d, 0.0);
    EXPECT_LE(d, policy.max_delay_s);
  }
  // The jittered delay stays inside [exp/2, exp] of the exponential
  // envelope (jitter shrinks, never grows).
  EXPECT_GE(service::retry_delay_s(policy, 1), 0.005);
  EXPECT_LE(service::retry_delay_s(policy, 1), 0.01);
  EXPECT_GE(service::retry_delay_s(policy, 3), 0.02);
  EXPECT_LE(service::retry_delay_s(policy, 3), 0.04);
  // Distinct seeds decorrelate fleets.
  service::RetryPolicy other = policy;
  other.seed = 99;
  bool differs = false;
  for (std::size_t retry = 1; retry <= 8; ++retry)
    differs |= service::retry_delay_s(policy, retry) !=
               service::retry_delay_s(other, retry);
  EXPECT_TRUE(differs);
  // jitter 0 = fixed schedule at the envelope.
  service::RetryPolicy fixed = policy;
  fixed.jitter = 0.0;
  EXPECT_DOUBLE_EQ(service::retry_delay_s(fixed, 1), 0.01);
  EXPECT_DOUBLE_EQ(service::retry_delay_s(fixed, 2), 0.02);
  EXPECT_DOUBLE_EQ(service::retry_delay_s(fixed, 20), 0.5);
}

// ---- degradation + restart-boundary bit-identity --------------------------

core::CompileRequest tiny_request(const std::string& name) {
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
  core::CompileRequest r;
  r.scenarios = {s};
  r.restarts = 2;
  r.seed = 20230306;
  return r;
}

std::string canonical(const core::CompileResponse& response) {
  return service::protocol::encode_response(
             service::protocol::summarize(response,
                                          /*include_circuits=*/true))
      .encode();
}

TEST_F(FailpointTest, RestartFaultRecomputesBitIdentically) {
  const core::CompileRequest request = tiny_request("restart-fault");
  core::CompilePipeline pipeline({.workers = 2});
  const std::string reference = canonical(pipeline.compile(request));

  const std::uint64_t retries_before =
      obs::registry().counter("pipeline.restart_retries").value();
  ASSERT_EQ(fail::registry().arm("pipeline.restart:1:5"), "");
  const std::string faulted = canonical(pipeline.compile(request));
  ASSERT_TRUE(fail::registry().disarm("pipeline.restart"));
  const std::uint64_t retries =
      obs::registry().counter("pipeline.restart_retries").value() -
      retries_before;

  EXPECT_EQ(faulted, reference)
      << "a recomputed restart job must be bit-identical (purity)";
  EXPECT_GE(retries, request.restarts)
      << "every restart job should have been recomputed at prob 1";
}

}  // namespace
}  // namespace femto
