#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace repro {

unsigned ThreadPool::hardware_threads() {
  unsigned n = std::thread::hardware_concurrency();
  return n ? n : 1;
}

ThreadPool::ThreadPool(unsigned threads) : num_threads_(std::max(1u, threads)) {
  workers_.reserve(num_threads_ - 1);
  for (unsigned i = 1; i < num_threads_; ++i)
    workers_.emplace_back([this](std::stop_token st) { worker_loop(st); });
}

// Each jthread's destructor requests stop, which wakes its wait on cv_, and
// joins it.
ThreadPool::~ThreadPool() { workers_.clear(); }

struct ThreadPool::ForState {
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<std::size_t> done_items{0};
  std::size_t n = 0;
  std::size_t grain = 1;
  std::size_t num_chunks = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::mutex mu;
  std::condition_variable cv;

  // Runs chunk c, which this thread has claimed, then claims and runs more
  // until none are left.
  void drain(std::size_t c) {
    std::size_t completed = 0;
    for (; c < num_chunks; c = next_chunk.fetch_add(1, std::memory_order_relaxed)) {
      const std::size_t lo = c * grain;
      const std::size_t hi = std::min(n, lo + grain);
      for (std::size_t i = lo; i < hi; ++i) (*fn)(i);
      completed += hi - lo;
    }
    if (completed &&
        done_items.fetch_add(completed, std::memory_order_acq_rel) + completed == n) {
      std::lock_guard<std::mutex> lk(mu);
      cv.notify_all();
    }
  }
};

void ThreadPool::worker_loop(std::stop_token st) {
  std::unique_lock<std::mutex> lk(mu_);
  // Entries still queued at stop are stale (no parallel_for outlives the
  // pool) and drain at once.
  while (cv_.wait(lk, st, [&] { return !helpers_.empty(); })) {
    std::shared_ptr<ForState> state = std::move(helpers_.front());
    helpers_.pop_front();
    lk.unlock();
    state->drain(state->next_chunk.fetch_add(1, std::memory_order_relaxed));
    state.reset();  // may free the state: not under the lock
    lk.lock();
  }
}

void ThreadPool::parallel_for(std::size_t n, std::size_t grain,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  grain = std::max<std::size_t>(1, grain);
  if (workers_.empty() || n <= grain) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Shared state owned by shared_ptr: helper entries popped after the
  // caller has already finished every chunk find an exhausted counter and
  // return without touching `fn` or freed memory.
  auto state = std::make_shared<ForState>();
  state->n = n;
  state->grain = grain;
  state->num_chunks = (n + grain - 1) / grain;
  state->fn = &fn;
  // The caller claims chunk 0 before any helper can: callers that order
  // their work heaviest first keep the heaviest piece on their own thread.
  state->next_chunk.store(1, std::memory_order_relaxed);

  const std::size_t helpers =
      std::min<std::size_t>(workers_.size(), state->num_chunks - 1);
  {
    std::lock_guard<std::mutex> lk(mu_);
    helpers_.insert(helpers_.end(), helpers, state);
  }
  for (std::size_t h = 0; h < helpers; ++h) cv_.notify_one();

  state->drain(0);  // the caller always participates — no idle-wait deadlock

  // Chunks may still be mid-flight on helpers; `fn` (and the caller's stack)
  // must stay alive until the last item completes.
  std::unique_lock<std::mutex> lk(state->mu);
  state->cv.wait(lk, [&] {
    return state->done_items.load(std::memory_order_acquire) == state->n;
  });
}

}  // namespace repro
