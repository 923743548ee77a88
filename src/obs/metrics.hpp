// Unified process-global metrics registry: counters, gauges, and
// fixed-bucket latency histograms with p50/p95/p99.
//
// This is the one place runtime counters live: in process they are read
// through registry(), over the wire through the femtod `metrics` op, which
// exports this registry. Dashboards and scripts can rely on the names below
// never changing meaning:
//
//   counters   cache.l1_hits / cache.misses / cache.l2_hits /
//              cache.evictions        service plan-store outcomes: a memory
//                                     hit, an execution, a database-file
//                                     hit, an eviction
//              db.lookups / db.hits / db.misses
//                                     compilation-database request lookups
//              pipeline.compiles      CompilePipeline::compile() calls
//              pipeline.restarts_completed / pipeline.restarts_skipped
//              pipeline.restart_retries
//                                     restart jobs recomputed after an
//                                     injected pipeline.restart fault
//                                     (bit-identical by purity)
//              solver.sa_solves / solver.sa_steps
//              solver.gtsp_solves / solver.gtsp_generations
//              solver.gt_exact_evaluations
//                                     exact GT objective evaluations (memo
//                                     misses while the GT search scores
//                                     candidates exactly)
//              solver.held_karp_runs  Held-Karp DPs run by sort_baseline
//              service.submitted / service.coalesced / service.done /
//              service.cancelled / service.deadline_exceeded /
//              service.rejected / service.works_run / service.plans_served
//              service.retries        CompileClient::compile_retry attempts
//                                     beyond the first
//              service.reconnects     client connections re-established
//                                     after a transport fault
//   gauges     service.queue_depth    live admission-queue length
//              service.in_flight      submitted tickets not yet terminal
//              service.degraded       1 once a service entered degraded
//                                     (database-less) serving
//              sim.simd_level         active dispatch level of the GTSP
//                                     and Held-Karp lanes (0 portable,
//                                     1 AVX2)
//   histograms service.request_latency_s   submit -> terminal, seconds
//              service.queue_wait_s        submit -> scheduler pickup
//
// Concurrency: metric objects are atomics; record paths are lock-free and
// wait-free (relaxed increments -- these are statistics, not
// synchronization). The registry itself hands out pointer-stable
// references under a mutex; instrumentation sites cache the reference in a
// function-local static so steady state never touches the registry lock.
//
// Depends only on the standard library; exporters build their own JSON
// (service/server.hpp renders the canonical wire form via service/json.hpp).
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace femto::obs {

/// Monotonic counter.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous signed level.
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed exponential-bucket latency histogram: bucket i spans
/// [1us * 2^i, 1us * 2^(i+1)), 30 buckets (1us .. ~17min) plus an
/// underflow-into-first and overflow-into-last policy. Percentiles are
/// derived from bucket counts and reported as the bucket's UPPER bound --
/// an over-estimate by at most one bucket width (2x), which is the
/// standard fixed-bucket trade: no allocation, no locking, O(1) record.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 30;

  void record(double seconds) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_us_.fetch_add(
        static_cast<std::uint64_t>(std::max(0.0, seconds) * 1e6),
        std::memory_order_relaxed);
    buckets_[bucket_for(seconds)].fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum_s() const {
    return static_cast<double>(sum_us_.load(std::memory_order_relaxed)) *
           1e-6;
  }

  /// Upper bound of the bucket containing the q-quantile (q in [0, 1]);
  /// 0 when empty.
  [[nodiscard]] double quantile_s(double q) const {
    std::uint64_t counts[kBuckets];
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      counts[i] = buckets_[i].load(std::memory_order_relaxed);
      total += counts[i];
    }
    if (total == 0) return 0.0;
    const double rank = q * static_cast<double>(total);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts[i];
      if (static_cast<double>(seen) >= rank) return upper_bound_s(i);
    }
    return upper_bound_s(kBuckets - 1);
  }

  [[nodiscard]] static double upper_bound_s(std::size_t bucket) {
    return 1e-6 * static_cast<double>(std::uint64_t{1} << (bucket + 1));
  }

 private:
  [[nodiscard]] static std::size_t bucket_for(double seconds) {
    const double us = seconds * 1e6;
    if (us < 2.0) return 0;
    const auto b = static_cast<std::size_t>(std::log2(us));
    return b >= kBuckets ? kBuckets - 1 : b;
  }

  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_us_{0};
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
};

/// Point-in-time view of one histogram, for exporters.
struct HistogramView {
  std::string name;
  std::uint64_t count = 0;
  double sum_s = 0.0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
};

/// Point-in-time view of the whole registry, name-sorted (std::map order),
/// so exports are deterministic for a given set of recorded metrics.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<HistogramView> histograms;
};

class Registry {
 public:
  /// Find-or-create; the returned reference is valid for the registry's
  /// lifetime (metrics are never erased). Cache it in a function-local
  /// static at the instrumentation site.
  [[nodiscard]] Counter& counter(const std::string& name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = counters_[name];
    if (slot == nullptr) slot = std::make_unique<Counter>();
    return *slot;
  }
  [[nodiscard]] Gauge& gauge(const std::string& name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = gauges_[name];
    if (slot == nullptr) slot = std::make_unique<Gauge>();
    return *slot;
  }
  [[nodiscard]] Histogram& histogram(const std::string& name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = histograms_[name];
    if (slot == nullptr) slot = std::make_unique<Histogram>();
    return *slot;
  }

  [[nodiscard]] MetricsSnapshot snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot out;
    out.counters.reserve(counters_.size());
    for (const auto& [name, c] : counters_)
      out.counters.emplace_back(name, c->value());
    out.gauges.reserve(gauges_.size());
    for (const auto& [name, g] : gauges_)
      out.gauges.emplace_back(name, g->value());
    out.histograms.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) {
      HistogramView v;
      v.name = name;
      v.count = h->count();
      v.sum_s = h->sum_s();
      v.p50_s = h->quantile_s(0.50);
      v.p95_s = h->quantile_s(0.95);
      v.p99_s = h->quantile_s(0.99);
      out.histograms.push_back(std::move(v));
    }
    return out;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// THE process-global registry every layer records into and the femtod
/// `metrics` op exports.
[[nodiscard]] inline Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace femto::obs
