#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace repro {

/// Small work-stealing thread pool (no external dependencies).
///
/// `parallel_for(n, grain, fn)` splits an index range into chunks and runs
/// them on the pool *and* on the calling thread, which always takes chunk 0;
/// further chunks are claimed in index order. It serves the embedder's
/// sibling subtrees (heaviest first) and `A[i][*]` column loop, the analytic
/// placer's gradient loops, and the flow service's jobs (one per chunk).
/// The caller participates in the chunk loop, so nesting a `parallel_for`
/// inside a chunk cannot deadlock: progress never depends on another worker
/// becoming free.
///
/// Each worker owns a deque protected by a small mutex: owners push/pop at
/// the back (LIFO, keeps the working set hot and runs freshly spawned
/// `parallel_for` chunks before older tasks), thieves steal from the front
/// (FIFO). A pool constructed with `threads <= 1` spawns no workers, and
/// `parallel_for` degrades to a plain serial loop.
///
/// Determinism: the pool never reorders *results* — callers partition writes
/// by index — so every consumer in this codebase produces bit-identical
/// output for any worker count. See docs/ALGORITHMS.md §11 for the argument.
class ThreadPool {
 public:
  /// `threads` = total threads participating in the pool's work, counting
  /// the caller of `parallel_for`; `threads - 1` workers are spawned.
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads (workers + caller). Always >= 1.
  unsigned num_threads() const { return num_threads_; }
  unsigned num_workers() const { return static_cast<unsigned>(workers_.size()); }

  /// `std::thread::hardware_concurrency()`, never 0.
  static unsigned hardware_threads();

  /// Runs `fn(i)` for i in [0, n). Chunks of `grain` indices are distributed
  /// over the workers and the calling thread; returns when all n calls have
  /// completed. `fn` must be safe to invoke concurrently for distinct i, and
  /// must not throw: a worker has no caller to hand the exception to.
  void parallel_for(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t)>& fn);

 private:
  struct ForState;

  void push_task(std::function<void()> task);
  bool try_pop_or_steal(std::function<void()>& out, unsigned self);
  void worker_loop(std::stop_token st, unsigned self);

  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  unsigned num_threads_ = 1;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::jthread> workers_;
  std::atomic<unsigned> next_queue_{0};

  // Sleep/wake machinery: workers park here when every queue is empty.
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  std::atomic<std::size_t> pending_{0};
};

}  // namespace repro
