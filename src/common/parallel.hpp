// A small std::thread worker pool with a shared job queue.
//
// The compilation pipeline (core/pipeline.hpp) schedules its independent,
// slot-indexed restart jobs on this pool. Determinism is preserved by
// construction: every job writes only its own output slot and draws
// randomness only from an Rng stream derived from (master seed, restart
// index), so the result set is identical for any worker count and any
// execution interleaving.
//
// parallel_for() lets the *calling* thread participate in draining the index
// range, which keeps a 1-worker pool as fast as a plain loop and makes
// nested use from inside a worker deadlock-free (the caller always makes
// progress itself).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/assert.hpp"

namespace femto {

class ThreadPool {
 public:
  /// Spawns `workers` threads; 0 means std::thread::hardware_concurrency()
  /// (itself clamped to at least 1).
  explicit ThreadPool(std::size_t workers = 0) {
    if (workers == 0) {
      workers = std::thread::hardware_concurrency();
      if (workers == 0) workers = 1;
    }
    threads_.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w)
      threads_.emplace_back([this] { worker_loop(); });
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  [[nodiscard]] std::size_t worker_count() const { return threads_.size(); }

  /// Enqueues one fire-and-forget job.
  void submit(std::function<void()> job) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(job));
    }
    cv_.notify_one();
  }

  /// Runs fn(0) ... fn(n-1) across the pool plus the calling thread and
  /// blocks until all n calls finished. Indices are claimed atomically, so
  /// each runs exactly once; any exception is rethrown (first one wins).
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn) {
    if (n == 0) return;
    auto state = std::make_shared<ForState>();
    state->limit = n;
    // The job may outlive this frame (a queued helper can fire after all
    // indices were drained by others), so it must own fn via the state.
    state->fn = fn;
    // No point waking more helpers than remaining indices; the caller
    // always drains too, hence the -1.
    const std::size_t helpers = std::min(threads_.size(), n - 1);
    for (std::size_t h = 0; h < helpers; ++h)
      submit([state] { drain(*state); });
    drain(*state);
    {
      std::unique_lock<std::mutex> lock(state->mutex);
      state->cv.wait(lock, [&] { return state->done == state->limit; });
    }
    if (state->error) std::rethrow_exception(state->error);
  }

 private:
  struct ForState {
    std::function<void(std::size_t)> fn;
    std::atomic<std::size_t> next{0};
    std::size_t limit = 0;
    std::size_t done = 0;  // guarded by mutex
    std::exception_ptr error;
    std::mutex mutex;
    std::condition_variable cv;
  };

  static void drain(ForState& state) {
    while (true) {
      const std::size_t i = state.next.fetch_add(1);
      if (i >= state.limit) return;
      std::exception_ptr err;
      try {
        state.fn(i);
      } catch (...) {
        err = std::current_exception();
      }
      {
        const std::lock_guard<std::mutex> lock(state.mutex);
        if (err && !state.error) state.error = err;
        ++state.done;
      }
      state.cv.notify_all();
    }
  }

  void worker_loop() {
    while (true) {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
        if (stop_ && queue_.empty()) return;
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      job();
    }
  }

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace femto
