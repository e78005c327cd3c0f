#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <vector>

#include "serve/job.h"

namespace repro {

struct ServiceOptions;

/// How one job attempt ended. classify() derives it from the exception an
/// attempt threw; the dist layer carries it on the wire (dist/protocol.h),
/// so a remote attempt is settled by exactly the policy a local one is.
enum class AttemptOutcome : std::uint8_t {
  kDone = 0,      ///< completed; the attempt's result carries final metrics
  kDeadline = 1,  ///< FlowCancelled, stage deadline -> TIMED_OUT, no retry
  kKilled = 2,    ///< FlowCancelled, cooperative kill -> CHECKPOINTED
  kAudit = 3,     ///< AuditError -> quarantined, no retry
  kError = 4,     ///< any other exception -> retry while budget lasts
};

/// Classifies the exception an attempt threw (see AttemptOutcome) and
/// records it on the attempt's result: the message in `attempt.error` and,
/// for an AuditError, the failed stage and its findings.
AttemptOutcome classify(std::exception_ptr e, JobResult& attempt);

/// Deterministic backoff-with-jitter for the k-th retry (k >= 1) of a job:
///   base * 2^(k-1) * f,   f in [0.5, 1.0) derived from (seed, k)
/// via a splitmix64 mix. Jobs seeded differently (the lifecycle uses the
/// FNV-1a hash of the job id) retry at staggered times instead of
/// stampeding, and the sequence for a given (base, seed) is pinned — tests
/// and replayed chaos schedules observe the exact same delays every run.
double retry_backoff_with_jitter(double base, int retry_index,
                                 std::uint64_t seed);

/// Steady-clock seconds: the clock of every lifecycle timestamp, including
/// Job::ready_at.
double steady_seconds();

/// Job counters of one executor, cumulative over every batch it has run.
struct ServiceStats {
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t jobs_timed_out = 0;
  std::uint64_t jobs_interrupted = 0;
  std::uint64_t jobs_quarantined = 0;  ///< failed a stage audit; not retried
  std::uint64_t jobs_invalid = 0;
  std::uint64_t jobs_retried = 0;  ///< retry attempts performed
  std::uint64_t jobs_resumed = 0;  ///< jobs restarted from a checkpoint
  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoint_bytes = 0;
  double queue_latency_seconds_total = 0;
  double queue_latency_seconds_max = 0;

  std::string summary() const;  ///< one human-readable line
};

/// The executor-owned home of ServiceStats: every batch's JobLifecycle adds
/// to it, and stats() readers on other threads take a consistent copy.
class JobCounters {
 public:
  ServiceStats snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return s_;
  }

 private:
  friend class JobLifecycle;
  mutable std::mutex mu_;
  ServiceStats s_;
};

/// The job policy of one batch, shared by both executors: the in-process
/// FlowService (a thread pool calling run_attempts_locally) and the dist
/// Coordinator (socket workers, plus run_attempts_locally for quarantined
/// jobs and zero-worker degradation).
///
/// It validates the specs, holds each unfinished job's latest stage-boundary
/// snapshot bytes (the resume point of its next attempt, wherever that runs)
/// and mirrors them to <checkpoint_dir>/<id>.ckpt, settles every attempt
/// (state, error code, retry budget with jittered backoff, audit
/// quarantine), counts worker deaths per job, and keeps the counters.
///
/// Thread safety: different jobs may be driven from different threads at
/// once; one job is only ever driven by one thread at a time.
class JobLifecycle {
 public:
  struct Job {
    std::size_t index = 0;  ///< position in the batch and in its results
    const JobSpec* spec = nullptr;
    int attempt = 1;
    bool finished = false;
    bool local_only = false;  ///< quarantined from remote execution
    double ready_at = 0;      ///< retry backoff gate (steady-clock seconds)
    double first_start = -1;  ///< first attempt start, -1 = not started
    std::uint64_t backoff_seed = 0;
    int worker_deaths = 0;
    std::string resume;  ///< latest snapshot bytes ("" = run from scratch)
  };

  /// Validates `specs` (invalid ones are settled kJobInvalidSpec at once)
  /// and, with opt.resume, loads each job's checkpoint mirror. `counters`
  /// and `kill` belong to the executor and outlive the batch; `kill` is the
  /// cooperative shutdown flag, raised by stop_after_checkpoints too.
  /// Throws when the checkpoint directory cannot be created.
  JobLifecycle(const ServiceOptions& opt, const std::vector<JobSpec>& specs,
               JobCounters& counters, std::atomic<bool>& kill);

  std::vector<Job>& jobs() { return jobs_; }
  int unfinished() const { return unfinished_.load(); }
  /// True when `attempt` is the live attempt of unfinished job `index`;
  /// frames about any other attempt are stale.
  bool current(std::size_t index, int attempt) const;

  /// Marks the start of a job's first attempt (queue latency).
  void start(Job& j);
  /// Holds `bytes` as the job's resume point and mirrors them to disk.
  /// Throws SnapshotError when the mirror cannot be written; the bytes are
  /// then not kept.
  void checkpoint(Job& j, std::string&& bytes);
  /// checkpoint() for a snapshot a remote attempt streamed. Returns false
  /// when the mirror write failed: the attempt is then settled as kError at
  /// this boundary, with the result a local attempt has when its checkpoint
  /// sink throws, and the caller requeues the job unless it finished.
  bool checkpoint_remote(Job& j, std::string&& bytes);
  /// Settles one attempt. Copies the attempt's result into the job's (an
  /// error is kept from an earlier attempt when this one has none) and
  /// returns true once the job is finished; false means a retry is due
  /// after `ready_at`, with `attempt` advanced.
  bool settle(Job& j, AttemptOutcome outcome, JobResult attempt);
  /// A worker died holding the job's live attempt. The attempt is not
  /// settled (a death never burns the retry budget); returns true once
  /// `max_deaths` workers died on it and it is quarantined (local_only).
  bool worker_died(Job& j, int max_deaths);
  /// Runs attempts in this thread until the job is finished. Never throws:
  /// an attempt's exception settles that attempt (classify), and a failure
  /// in the settling itself (out of memory) marks the job FAILED.
  void run_attempts_locally(Job& j) noexcept;
  /// Reports every unfinished job CHECKPOINTED (the batch was shut down).
  void interrupt_unfinished();

  std::vector<JobResult> take_results() { return std::move(results_); }

 private:
  bool killed() const { return kill_.load(std::memory_order_relaxed); }
  void count(std::uint64_t ServiceStats::*field);

  const ServiceOptions& opt_;
  JobCounters& counters_;
  std::atomic<bool>& kill_;
  std::vector<Job> jobs_;
  std::vector<JobResult> results_;
  std::atomic<int> unfinished_{0};
  double batch_start_ = 0;
};

}  // namespace repro
