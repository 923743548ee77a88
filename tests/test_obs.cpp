// Contract tests for the observability layer (src/obs/):
//  * Span nesting: child events are time-contained in their parents and
//    timestamps are relative to the tracer's epoch.
//  * Concurrent emission: many threads emitting spans through one tracer
//    produce exactly the expected event count and a parseable Chrome
//    trace-event JSON (no torn events) -- exercised through the SAME
//    ThreadPool the compile pipeline uses.
//  * Zero-cost disabled path: with no active tracer, constructing spans and
//    attaching args performs ZERO heap allocations, pinned by overriding
//    the global allocator in this binary.
//  * Bit-identity: compiling with tracing on vs off yields byte-identical
//    canonical responses (tracing observes the pipeline, never steers it).
//  * Metrics registry: counters/gauges/histograms with stable names,
//    pointer-stable references, and sane percentile estimates.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"

// ---- allocation-counting global allocator (whole test binary) -------------
// Counts every operator-new in the process; the disabled-path test asserts a
// ZERO delta across span construction, which is the obs/trace.hpp contract
// ("disabled cost is one relaxed atomic load").
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

namespace femto {
namespace {

/// Parses a tracer's JSON export and returns the traceEvents array, failing
/// the test on any parse error (a torn or mis-escaped event).
service::json::Value parse_events(const obs::Tracer& tracer) {
  std::string err;
  const auto parsed = service::json::parse(tracer.to_json(), &err);
  EXPECT_TRUE(parsed.has_value()) << "trace JSON did not parse: " << err;
  if (!parsed.has_value()) return service::json::Value::array();
  const service::json::Value* events = parsed->find("traceEvents");
  EXPECT_NE(events, nullptr);
  EXPECT_TRUE(events != nullptr && events->is_array());
  return events != nullptr ? *events : service::json::Value::array();
}

double number_field(const service::json::Value& obj, const char* key) {
  const service::json::Value* v = obj.find(key);
  EXPECT_NE(v, nullptr) << "missing field " << key;
  return v != nullptr ? std::atof(v->as_string().c_str()) : -1.0;
}

TEST(Trace, NestedSpansAreTimeContained) {
  obs::Tracer tracer;
  obs::Tracer::set_active(&tracer);
  {
    obs::Span outer("outer", "test");
    outer.arg("level", 0);
    {
      obs::Span inner("inner", "test");
      inner.arg("level", 1);
    }
  }
  obs::Tracer::set_active(nullptr);

  ASSERT_EQ(tracer.event_count(), 2u);
  const service::json::Value events = parse_events(tracer);
  ASSERT_EQ(events.items().size(), 2u);
  // Spans close inner-first, so the child is emitted before the parent.
  const service::json::Value& inner = events.items()[0];
  const service::json::Value& outer = events.items()[1];
  EXPECT_EQ(inner.find("name")->as_string(), "inner");
  EXPECT_EQ(outer.find("name")->as_string(), "outer");
  const double inner_ts = number_field(inner, "ts");
  const double inner_dur = number_field(inner, "dur");
  const double outer_ts = number_field(outer, "ts");
  const double outer_dur = number_field(outer, "dur");
  EXPECT_GE(outer_ts, 0.0);  // epoch defaults to construction time
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_ts + inner_dur, outer_ts + outer_dur);
  EXPECT_GE(inner_dur, 0.0);
}

TEST(Trace, ArgsSurviveJsonEscaping) {
  obs::Tracer tracer;
  obs::Tracer::set_active(&tracer);
  {
    obs::Span span("escape \"me\"\n", "test\tcat");
    span.arg("quote\"key", "va\\lue\nwith\tcontrol\x01chars");
    span.arg("count", std::int64_t{-42});
  }
  obs::Tracer::set_active(nullptr);

  const service::json::Value events = parse_events(tracer);
  ASSERT_EQ(events.items().size(), 1u);
  const service::json::Value& e = events.items()[0];
  EXPECT_EQ(e.find("name")->as_string(), "escape \"me\"\n");
  const service::json::Value* args = e.find("args");
  ASSERT_NE(args, nullptr);
  const service::json::Value* sval = args->find("quote\"key");
  ASSERT_NE(sval, nullptr);
  EXPECT_EQ(sval->as_string(), "va\\lue\nwith\tcontrol\x01chars");
  EXPECT_EQ(number_field(*args, "count"), -42.0);
}

TEST(Trace, ConcurrentEmissionFromPoolIsNotTorn) {
  constexpr std::size_t kJobs = 64;
  constexpr std::size_t kSpansPerJob = 8;
  obs::Tracer tracer;
  obs::Tracer::set_active(&tracer);
  {
    ThreadPool pool(4);
    pool.parallel_for(kJobs, [&](std::size_t i) {
      for (std::size_t k = 0; k < kSpansPerJob; ++k) {
        obs::Span span("job", "test");
        span.arg("job", i);
        span.arg("k", k);
      }
    });
    // parallel_for returning is the quiescent point: all span-emitting
    // work has completed before the pool is torn down and we export.
  }
  obs::Tracer::set_active(nullptr);

  ASSERT_EQ(tracer.event_count(), kJobs * kSpansPerJob);
  const service::json::Value events = parse_events(tracer);
  ASSERT_EQ(events.items().size(), kJobs * kSpansPerJob);
  // Every (job, k) pair appears exactly once: no lost or duplicated events.
  std::vector<int> seen(kJobs * kSpansPerJob, 0);
  for (const service::json::Value& e : events.items()) {
    EXPECT_EQ(e.find("name")->as_string(), "job");
    const service::json::Value* args = e.find("args");
    ASSERT_NE(args, nullptr);
    const auto job = static_cast<std::size_t>(number_field(*args, "job"));
    const auto k = static_cast<std::size_t>(number_field(*args, "k"));
    ASSERT_LT(job, kJobs);
    ASSERT_LT(k, kSpansPerJob);
    ++seen[job * kSpansPerJob + k];
  }
  for (const int count : seen) EXPECT_EQ(count, 1);
}

TEST(Trace, DisabledPathAllocatesNothing) {
  ASSERT_EQ(obs::Tracer::active(), nullptr);
  // Warm up any lazy statics outside the measured window.
  { obs::Span warmup("warmup", "test"); }

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    obs::Span span("hot_path", "test");
    span.arg("iteration", i);
    span.arg("label", "should not be stored");
    ASSERT_FALSE(span.enabled());
  }
  const std::uint64_t delta = g_allocations.load() - before;
  EXPECT_EQ(delta, 0u) << "disabled spans performed " << delta
                       << " heap allocations";
}

TEST(Trace, EmitCompleteUsesExplicitTimestampsAgainstEpoch) {
  using clock = obs::Tracer::clock;
  const clock::time_point epoch = clock::now();
  const clock::time_point start = epoch + std::chrono::microseconds(250);
  const clock::time_point end = start + std::chrono::microseconds(750);
  obs::Tracer tracer(epoch);
  obs::TraceEvent e;
  e.name = "queue_wait";
  e.cat = "service";
  tracer.emit_complete(std::move(e), start, end);
  const service::json::Value events = parse_events(tracer);
  ASSERT_EQ(events.items().size(), 1u);
  EXPECT_EQ(number_field(events.items()[0], "ts"), 250.0);
  EXPECT_EQ(number_field(events.items()[0], "dur"), 750.0);
}

/// The smoke-scale compile scenario: small enough for a unit test, rich
/// enough to cross every instrumented layer (transform, solvers, synthesis
/// cache, verification).
core::CompileRequest traced_request() {
  core::CompileScenario s;
  s.name = "obs/uccsd4";
  s.num_qubits = 4;
  s.terms = {fermion::ExcitationTerm::make_double(2, 3, 0, 1),
             fermion::ExcitationTerm::single(2, 0),
             fermion::ExcitationTerm::single(3, 1)};
  s.options.transform = core::TransformKind::kAdvanced;
  s.options.sorting = core::SortingMode::kAdvanced;
  s.options.compression = core::CompressionMode::kHybrid;
  s.options.coloring_orders = 8;
  s.options.sa_options.steps = 200;
  s.options.gtsp_options.population = 8;
  s.options.gtsp_options.generations = 20;
  s.options.emit_circuit = true;
  core::CompileRequest request;
  request.scenarios = {std::move(s)};
  request.restarts = 2;
  request.seed = 20230306;
  request.verify = true;
  return request;
}

std::string canonical_compile(const core::CompileRequest& request) {
  core::CompilePipeline pipeline({.workers = 2});
  return service::protocol::encode_response(
             service::protocol::summarize(pipeline.compile(request),
                                          /*include_circuits=*/true))
      .encode();
}

TEST(Trace, PipelineCompileIsBitIdenticalTracedVsUntraced) {
  const core::CompileRequest request = traced_request();
  const std::string untraced = canonical_compile(request);

  obs::Tracer tracer;
  obs::Tracer::set_active(&tracer);
  const std::string traced = canonical_compile(request);
  obs::Tracer::set_active(nullptr);

  EXPECT_EQ(traced, untraced);
  EXPECT_GT(tracer.event_count(), 0u);

  // The trace must contain the per-stage and per-restart pipeline spans.
  const service::json::Value events = parse_events(tracer);
  std::vector<std::string> names;
  for (const service::json::Value& e : events.items())
    names.push_back(e.find("name")->as_string());
  for (const char* expected :
       {"compile_request", "restart", "verify", "stage_plan",
        "stage_transform", "adv_hill_climb", "stage_emit"})
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "trace missing span " << expected;

  // The Adv search's exact-cost GTSP solves nest under adv_hill_climb.
  int nested_solves = 0;
  for (const service::json::Value& climb : events.items()) {
    if (climb.find("name")->as_string() != "adv_hill_climb") continue;
    const double lo = number_field(climb, "ts");
    const double hi = lo + number_field(climb, "dur");
    for (const service::json::Value& e : events.items())
      if (e.find("name")->as_string() == "gtsp_ga" &&
          number_field(e, "tid") == number_field(climb, "tid") &&
          number_field(e, "ts") >= lo &&
          number_field(e, "ts") + number_field(e, "dur") <= hi)
        ++nested_solves;
  }
  EXPECT_GT(nested_solves, 0);
}

TEST(Metrics, CountersGaugesAndStableReferences) {
  obs::Registry registry;
  obs::Counter& c = registry.counter("test.counter");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  // find-or-create must hand back the SAME object (instrumentation sites
  // cache the reference in function-local statics).
  EXPECT_EQ(&registry.counter("test.counter"), &c);

  obs::Gauge& g = registry.gauge("test.gauge");
  g.set(7);
  g.add(-3);
  EXPECT_EQ(g.value(), 4);

  const obs::MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "test.counter");
  EXPECT_EQ(snap.counters[0].second, 42u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, 4);
}

TEST(Metrics, HistogramPercentilesBracketRecordedValues) {
  obs::Registry registry;
  obs::Histogram& h = registry.histogram("test.latency_s");
  // 90 fast requests at ~1ms, 10 slow at ~100ms: p50 must sit near the
  // fast mode, p99 near the slow mode. Buckets are power-of-two in
  // microseconds, so assert bracketing rather than exact values.
  for (int i = 0; i < 90; ++i) h.record(0.001);
  for (int i = 0; i < 10; ++i) h.record(0.1);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.sum_s(), 90 * 0.001 + 10 * 0.1, 1e-9);
  const double p50 = h.quantile_s(0.50);
  const double p99 = h.quantile_s(0.99);
  EXPECT_GE(p50, 0.001);
  EXPECT_LT(p50, 0.01);    // fast mode, one bucket of slack
  EXPECT_GE(p99, 0.1);     // slow mode
  EXPECT_LT(p99, 1.0);
  EXPECT_LE(p50, p99);
}

TEST(Metrics, GlobalRegistryCarriesPipelineCounters) {
  obs::Counter& compiles = obs::registry().counter("pipeline.compiles");
  const std::uint64_t before = compiles.value();
  core::CompilePipeline pipeline({.workers = 1});
  (void)pipeline.compile(traced_request());
  EXPECT_GT(compiles.value(), before);
}

}  // namespace
}  // namespace femto
