// Fixed-size worker pool with a blocking ParallelFor.
//
// The SHP refiner is embarrassingly parallel within a superstep (per-vertex
// gain computation, per-query neighbor-data aggregation), so the only
// primitive we need is a static range split with a barrier at the end —
// matching the BSP structure of the distributed algorithm. Static chunking
// (not work stealing) keeps per-vertex RNG streams deterministic for a fixed
// thread count.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace shp {

class ThreadPool {
 public:
  /// Creates num_threads workers. num_threads == 0 means
  /// std::thread::hardware_concurrency() (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return threads_.size(); }

  /// Runs fn(begin, end, worker_index) over [0, n) split into one contiguous
  /// chunk per worker; blocks until all chunks finish. Reentrant calls from
  /// inside a worker run inline on the calling thread (used by recursive
  /// bisection, where subtrees parallelize internally).
  void ParallelFor(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

  /// Convenience: fn(index) for each index in [0, n).
  void ParallelForEach(std::size_t n,
                       const std::function<void(std::size_t)>& fn);

 private:
  /// Enqueues one ParallelFor chunk for the next idle worker.
  void Submit(std::function<void()> task);
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  bool shutting_down_ = false;
};

/// Singleton pool sized from SHP_BENCH_THREADS (or hardware concurrency).
/// Library entry points take an optional ThreadPool*; nullptr means this pool.
ThreadPool& GlobalThreadPool();

}  // namespace shp
