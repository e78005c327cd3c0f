#include "util/thread_pool.h"

#include <algorithm>

namespace repro {

unsigned ThreadPool::hardware_threads() {
  unsigned n = std::thread::hardware_concurrency();
  return n ? n : 1;
}

ThreadPool::ThreadPool(unsigned threads) : num_threads_(std::max(1u, threads)) {
  const unsigned workers = num_threads_ - 1;
  queues_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i)
    queues_.push_back(std::make_unique<WorkerQueue>());
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i)
    workers_.emplace_back([this, i](std::stop_token st) { worker_loop(st, i); });
}

ThreadPool::~ThreadPool() {
  for (auto& w : workers_) w.request_stop();
  // Locking idle_mu_ before notifying closes the lost-wakeup window: a worker
  // that evaluated its wait predicate as false cannot block on idle_cv_ until
  // we release the mutex, so it is guaranteed to observe the notify.
  { std::lock_guard<std::mutex> lk(idle_mu_); }
  idle_cv_.notify_all();
  workers_.clear();  // joins
}

void ThreadPool::push_task(std::function<void()> task) {
  const unsigned q = next_queue_.fetch_add(1, std::memory_order_relaxed) %
                     static_cast<unsigned>(queues_.size());
  // pending_ goes up before the task is visible so workers never decrement it
  // below zero after a successful pop.
  pending_.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(queues_[q]->mu);
    queues_[q]->tasks.push_back(std::move(task));
  }
  // Same lost-wakeup fence as in the destructor: synchronize with any worker
  // mid-way between predicate check and blocking before notifying.
  { std::lock_guard<std::mutex> lk(idle_mu_); }
  idle_cv_.notify_one();
}

bool ThreadPool::try_pop_or_steal(std::function<void()>& out, unsigned self) {
  const unsigned nq = static_cast<unsigned>(queues_.size());
  // Own queue first (back = LIFO: freshest work, usually parallel_for chunks
  // spawned by the task this worker just ran).
  {
    WorkerQueue& q = *queues_[self];
    std::lock_guard<std::mutex> lk(q.mu);
    if (!q.tasks.empty()) {
      out = std::move(q.tasks.back());
      q.tasks.pop_back();
      return true;
    }
  }
  // Steal from the front of the others (FIFO: oldest work migrates).
  for (unsigned k = 1; k < nq; ++k) {
    WorkerQueue& q = *queues_[(self + k) % nq];
    std::lock_guard<std::mutex> lk(q.mu);
    if (!q.tasks.empty()) {
      out = std::move(q.tasks.front());
      q.tasks.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::stop_token st, unsigned self) {
  while (!st.stop_requested()) {
    std::function<void()> task;
    if (try_pop_or_steal(task, self)) {
      pending_.fetch_sub(1, std::memory_order_acq_rel);
      task();
      continue;
    }
    std::unique_lock<std::mutex> lk(idle_mu_);
    idle_cv_.wait(lk, [&] {
      return st.stop_requested() || pending_.load(std::memory_order_acquire) > 0;
    });
  }
}

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

void ThreadPool::parallel_for(std::size_t n, std::size_t grain,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  grain = std::max<std::size_t>(1, grain);
  if (workers_.empty() || n <= grain) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Shared state owned by shared_ptr: helper tasks that fire after the
  // caller has already finished every chunk find an exhausted counter and
  // return without touching freed memory.
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
  for (std::size_t h = 0; h < helpers; ++h)
    push_task([state] {
      state->drain(state->next_chunk.fetch_add(1, std::memory_order_relaxed));
    });

  state->drain(0);  // the caller always participates — no idle-wait deadlock

  // Chunks may still be mid-flight on helpers; `fn` (and the caller's stack)
  // must stay alive until the last item completes.
  std::unique_lock<std::mutex> lk(state->mu);
  state->cv.wait(lk, [&] {
    return state->done_items.load(std::memory_order_acquire) == state->n;
  });
}

}  // namespace repro
