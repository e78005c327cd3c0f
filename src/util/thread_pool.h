#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace repro {

/// Small thread pool for `parallel_for` (no external dependencies).
///
/// `parallel_for(n, grain, fn)` splits an index range into chunks and runs
/// them on the pool *and* on the calling thread, which always takes chunk 0;
/// further chunks are claimed in index order from one atomic counter. It
/// serves the embedder's sibling subtrees (heaviest first) and `A[i][*]`
/// column loop, the analytic placer's gradient loops, and the flow service's
/// jobs (one per chunk).
///
/// The pool itself is one mutex, one condition variable and one FIFO of
/// helper entries: a `parallel_for` queues up to `num_workers()` entries that
/// all point at its shared chunk counter, and an idle worker pops an entry
/// and claims chunks from that counter until none are left. The caller
/// participates in the chunk loop, so nesting a `parallel_for` inside a chunk
/// cannot deadlock: progress never depends on another worker becoming free.
/// A pool constructed with `threads <= 1` spawns no workers, and
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

  void worker_loop(std::stop_token st);

  unsigned num_threads_ = 1;
  std::mutex mu_;
  std::condition_variable_any cv_;  // wakes on a queued entry or a stop
  std::deque<std::shared_ptr<ForState>> helpers_;  // guarded by mu_
  // Last member: its destruction requests stop and joins every worker
  // before the queue and the mutex above are destroyed.
  std::vector<std::jthread> workers_;
};

}  // namespace repro
