// Minimal benchmark harness: steady-clock timing, median-of-k repeats, and
// machine-readable JSON emission.
//
// Every bench binary builds one Harness, runs named sections with run(), can
// attach scalar metrics to the last section (counts, energies, speedups),
// and finishes with write_json(), which drops BENCH_<suite>.json into the
// current working directory so CI and later PRs can track the perf
// trajectory as data rather than log text.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace femto::bench {

/// Wall-clock seconds of one call.
template <typename Fn>
[[nodiscard]] double time_once(Fn&& fn) {
  using clock = std::chrono::steady_clock;
  const clock::time_point t0 = clock::now();
  fn();
  const clock::time_point t1 = clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

struct Section {
  std::string name;
  double median_s = 0.0;
  double min_s = 0.0;
  double max_s = 0.0;
  double mean_s = 0.0;
  double stddev_s = 0.0;  // population stddev over the repeats; 0 for k=1
  int repeats = 0;
  std::vector<std::pair<std::string, double>> metrics;
};

class Harness {
 public:
  explicit Harness(std::string suite) : suite_(std::move(suite)) {}

  /// Runs fn `repeats` times and records the median wall time. Returns the
  /// median in seconds. Also echoes a human-readable line to stdout.
  template <typename Fn>
  double run(const std::string& name, int repeats, Fn&& fn) {
    FEMTO_EXPECTS(repeats >= 1);
    std::vector<double> times;
    times.reserve(static_cast<std::size_t>(repeats));
    for (int r = 0; r < repeats; ++r) times.push_back(time_once(fn));
    return record(name, std::move(times));
  }

  /// Records a timed section from wall times measured by the caller (e.g.
  /// interleaved with another section's runs). Same statistics, echo and
  /// return value as run().
  double record(const std::string& name, std::vector<double> times) {
    FEMTO_EXPECTS(!times.empty());
    std::sort(times.begin(), times.end());
    const int repeats = static_cast<int>(times.size());
    Section s;
    s.name = name;
    s.repeats = repeats;
    s.min_s = times.front();
    s.max_s = times.back();
    s.median_s = times[times.size() / 2];
    double sum = 0.0;
    for (const double t : times) sum += t;
    s.mean_s = sum / static_cast<double>(times.size());
    double var = 0.0;
    for (const double t : times) var += (t - s.mean_s) * (t - s.mean_s);
    s.stddev_s = std::sqrt(var / static_cast<double>(times.size()));
    std::printf("[bench] %-40s median %10.3f ms  (min %.3f, max %.3f, k=%d)\n",
                name.c_str(), s.median_s * 1e3, s.min_s * 1e3, s.max_s * 1e3,
                repeats);
    std::fflush(stdout);
    sections_.push_back(std::move(s));
    return sections_.back().median_s;
  }

  /// Starts an untimed section that only carries metrics (repeats stays 0,
  /// and write_json omits the timing fields).
  void section(const std::string& name) {
    Section s;
    s.name = name;
    sections_.push_back(std::move(s));
  }

  /// Attaches a scalar metric to the most recent section (or a standalone
  /// "metrics" section when none has run yet).
  void metric(const std::string& key, double value) {
    if (sections_.empty()) section("metrics");
    sections_.back().metrics.emplace_back(key, value);
  }

  [[nodiscard]] const std::vector<Section>& sections() const {
    return sections_;
  }

  /// Writes BENCH_<suite>.json (or an explicit path). Returns true on
  /// success.
  bool write_json(const std::string& path = "") const {
    const std::string out_path =
        path.empty() ? "BENCH_" + suite_ + ".json" : path;
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "[bench] cannot write %s\n", out_path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"suite\": \"%s\",\n  \"sections\": [\n",
                 suite_.c_str());
    for (std::size_t i = 0; i < sections_.size(); ++i) {
      const Section& s = sections_[i];
      if (s.repeats > 0)
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"median_s\": %.9g, \"min_s\": "
                     "%.9g, \"max_s\": %.9g, \"mean_s\": %.9g, \"stddev_s\": "
                     "%.9g, \"repeats\": %d",
                     s.name.c_str(), s.median_s, s.min_s, s.max_s, s.mean_s,
                     s.stddev_s, s.repeats);
      else
        std::fprintf(f, "    {\"name\": \"%s\", \"repeats\": 0", s.name.c_str());
      if (!s.metrics.empty()) {
        std::fprintf(f, ", \"metrics\": {");
        for (std::size_t k = 0; k < s.metrics.size(); ++k)
          std::fprintf(f, "%s\"%s\": %.9g", k == 0 ? "" : ", ",
                       s.metrics[k].first.c_str(), s.metrics[k].second);
        std::fprintf(f, "}");
      }
      std::fprintf(f, "}%s\n", i + 1 == sections_.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("[bench] wrote %s\n", out_path.c_str());
    return true;
  }

 private:
  std::string suite_;
  std::vector<Section> sections_;
};

}  // namespace femto::bench
