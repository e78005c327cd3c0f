#include "serve/lifecycle.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string_view>
#include <thread>
#include <unordered_set>

#include "audit/auditor.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/wire.h"
#include "util/cancel.h"
#include "util/log.h"

namespace repro {

double steady_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

AttemptOutcome classify(std::exception_ptr e, JobResult& attempt) {
  try {
    std::rethrow_exception(e);
  } catch (const FlowCancelled& c) {
    attempt.error = c.what();
    return c.killed() ? AttemptOutcome::kKilled : AttemptOutcome::kDeadline;
  } catch (const AuditError& a) {
    attempt.error = a.what();
    attempt.audit_stage = a.stage();
    attempt.audit_findings =
        static_cast<int>(a.report().count_at_least(AuditSeverity::kError));
    attempt.audit_jsonl = a.report().to_jsonl_lines();
    return AttemptOutcome::kAudit;
  } catch (const std::exception& x) {
    attempt.error = x.what();
  } catch (...) {
    attempt.error = "non-standard exception";
  }
  return AttemptOutcome::kError;
}

double retry_backoff_with_jitter(double base, int retry_index,
                                 std::uint64_t seed) {
  if (base <= 0 || retry_index < 1) return 0;
  // splitmix64 of (seed, retry_index): cheap, portable, and well-mixed even
  // for adjacent seeds/indices.
  std::uint64_t z =
      seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(retry_index);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  // Uniform in [0.5, 1.0): halving the floor keeps the expected doubling
  // cadence while decorrelating jobs that fail at the same instant.
  const double f = 0.5 + 0.5 * (static_cast<double>(z >> 11) * 0x1.0p-53);
  return base * std::ldexp(1.0, retry_index - 1) * f;
}

std::string ServiceStats::summary() const {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "jobs: %llu done, %llu failed (%llu quarantined), %llu timed "
                "out, %llu interrupted, %llu invalid | %llu retries, %llu "
                "resumed | %llu checkpoints (%llu bytes) | queue latency "
                "total %.3fs max %.3fs",
                static_cast<unsigned long long>(jobs_completed),
                static_cast<unsigned long long>(jobs_failed),
                static_cast<unsigned long long>(jobs_quarantined),
                static_cast<unsigned long long>(jobs_timed_out),
                static_cast<unsigned long long>(jobs_interrupted),
                static_cast<unsigned long long>(jobs_invalid),
                static_cast<unsigned long long>(jobs_retried),
                static_cast<unsigned long long>(jobs_resumed),
                static_cast<unsigned long long>(checkpoints_written),
                static_cast<unsigned long long>(checkpoint_bytes),
                queue_latency_seconds_total, queue_latency_seconds_max);
  return buf;
}

JobLifecycle::JobLifecycle(const ServiceOptions& opt,
                           const std::vector<JobSpec>& specs,
                           JobCounters& counters, std::atomic<bool>& kill)
    : opt_(opt),
      counters_(counters),
      kill_(kill),
      jobs_(specs.size()),
      results_(specs.size()) {
  if (!opt_.checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(opt_.checkpoint_dir), ec);
    if (ec)
      throw std::runtime_error("cannot create checkpoint dir " +
                               opt_.checkpoint_dir + ": " + ec.message());
  }
  std::unordered_set<std::string_view> ids;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Job& j = jobs_[i];
    JobResult& r = results_[i];
    j.index = i;
    j.spec = &specs[i];
    r.spec = specs[i];
    std::string error = validate_job_spec(specs[i]);
    if (error.empty() && !ids.insert(specs[i].id).second)
      error = "duplicate job id '" + specs[i].id + "'";
    if (!error.empty()) {
      r.state = JobState::kFailed;
      r.error_code = kJobInvalidSpec;
      r.error = std::move(error);
      j.finished = true;
      count(&ServiceStats::jobs_invalid);
      continue;
    }
    // Retry backoff jitter is seeded from the job id so simultaneous
    // retries of different jobs spread out deterministically.
    j.backoff_seed = fnv1a64(specs[i].id);
    const std::string mirror = opt_.checkpoint_dir + "/" + specs[i].id + ".ckpt";
    if (opt_.resume && !opt_.checkpoint_dir.empty() &&
        std::filesystem::exists(std::filesystem::path(mirror))) {
      try {
        j.resume = read_file_bytes(mirror);
      } catch (const SnapshotError& e) {
        LOG_WARN() << "job " << specs[i].id
                   << ": ignoring unreadable checkpoint: " << e.what();
      }
    }
    ++unfinished_;
  }
  batch_start_ = steady_seconds();
}

void JobLifecycle::count(std::uint64_t ServiceStats::*field) {
  std::lock_guard<std::mutex> lock(counters_.mu_);
  ++(counters_.s_.*field);
}

bool JobLifecycle::current(std::size_t index, int attempt) const {
  return index < jobs_.size() && !jobs_[index].finished &&
         jobs_[index].attempt == attempt;
}

void JobLifecycle::start(Job& j) {
  if (j.first_start >= 0) return;
  j.first_start = steady_seconds();
  const double queued = j.first_start - batch_start_;
  results_[j.index].queue_seconds = queued;
  std::lock_guard<std::mutex> lock(counters_.mu_);
  counters_.s_.queue_latency_seconds_total += queued;
  counters_.s_.queue_latency_seconds_max =
      std::max(counters_.s_.queue_latency_seconds_max, queued);
}

void JobLifecycle::checkpoint(Job& j, std::string&& bytes) {
  if (!opt_.checkpoint_dir.empty())
    write_file_atomic(opt_.checkpoint_dir + "/" + j.spec->id + ".ckpt", bytes);
  std::lock_guard<std::mutex> lock(counters_.mu_);
  ServiceStats& s = counters_.s_;
  ++s.checkpoints_written;
  s.checkpoint_bytes += bytes.size();
  j.resume = std::move(bytes);
  if (opt_.stop_after_checkpoints > 0 &&
      s.checkpoints_written >=
          static_cast<std::uint64_t>(opt_.stop_after_checkpoints))
    kill_.store(true, std::memory_order_relaxed);
}

bool JobLifecycle::checkpoint_remote(Job& j, std::string&& bytes) {
  try {
    checkpoint(j, std::move(bytes));
    return true;
  } catch (const SnapshotError&) {
    JobResult attempt;
    const AttemptOutcome outcome = classify(std::current_exception(), attempt);
    try {
      record_boundary(opt_, parse_snapshot(bytes), attempt);
    } catch (const SnapshotError&) {
      // Unparseable bytes cannot describe the boundary; the error stands.
    }
    settle(j, outcome, std::move(attempt));
    return false;
  }
}

bool JobLifecycle::settle(Job& j, AttemptOutcome outcome, JobResult attempt) {
  JobResult& r = results_[j.index];
  if (attempt.resumed) count(&ServiceStats::jobs_resumed);
  // This attempt's payload replaces the previous one; the job's identity
  // and queue latency carry over, and so does the last error when this
  // attempt has none (a retried-then-DONE job keeps its failure message).
  attempt.spec = std::move(r.spec);
  if (attempt.error.empty()) attempt.error = std::move(r.error);
  attempt.resumed = attempt.resumed || r.resumed;
  attempt.queue_seconds = r.queue_seconds;
  r = std::move(attempt);
  switch (outcome) {
    case AttemptOutcome::kDone:
      r.state = JobState::kDone;
      r.error_code = kJobOk;
      count(&ServiceStats::jobs_completed);
      break;
    case AttemptOutcome::kDeadline:
      // The pipeline is deterministic: a stage that hit its deadline once
      // hits it again, so timeouts are not retried.
      r.state = JobState::kTimedOut;
      r.error_code = kJobTimedOut;
      count(&ServiceStats::jobs_timed_out);
      break;
    case AttemptOutcome::kKilled:
      r.state = JobState::kCheckpointed;
      r.error_code = kJobInterrupted;
      count(&ServiceStats::jobs_interrupted);
      break;
    case AttemptOutcome::kAudit:
      // Deterministic invariant violation: retrying reproduces it bit for
      // bit, so quarantine at once and spend the budget elsewhere.
      r.state = JobState::kFailed;
      r.error_code = kJobAuditFailed;
      count(&ServiceStats::jobs_quarantined);
      count(&ServiceStats::jobs_failed);
      break;
    case AttemptOutcome::kError:
      if (j.attempt <= opt_.max_retries && !killed()) {
        count(&ServiceStats::jobs_retried);
        j.ready_at = steady_seconds() +
                     retry_backoff_with_jitter(opt_.retry_backoff_seconds,
                                               j.attempt, j.backoff_seed);
        ++j.attempt;
        return false;
      }
      r.state = JobState::kFailed;
      r.error_code = kJobFailed;
      count(&ServiceStats::jobs_failed);
      break;
  }
  j.finished = true;
  std::string().swap(j.resume);  // free the bytes, not just the length
  --unfinished_;
  r.attempts = j.attempt;
  if (j.first_start >= 0) r.run_seconds = steady_seconds() - j.first_start;
  return true;
}

bool JobLifecycle::worker_died(Job& j, int max_deaths) {
  if (++j.worker_deaths < max_deaths) return false;
  j.local_only = true;
  return true;
}

void JobLifecycle::run_attempts_locally(Job& j) noexcept {
  try {
    start(j);
    while (!j.finished) {
      while (!killed() && steady_seconds() < j.ready_at)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      JobResult attempt;
      AttemptOutcome outcome = AttemptOutcome::kDone;
      try {
        FlowAttemptRequest req;
        req.spec = j.spec;
        req.attempt = j.attempt;
        req.resume = j.resume;
        req.kill_flag = &kill_;
        req.on_checkpoint = [this, &j](const FlowSnapshot& snap) {
          checkpoint(j, serialize_snapshot(snap));
        };
        run_flow_attempt(opt_, req, attempt);
      } catch (...) {
        outcome = classify(std::current_exception(), attempt);
      }
      settle(j, outcome, std::move(attempt));
    }
  } catch (...) {
    // classify() turns whatever an attempt throws into an outcome, so only
    // the bookkeeping around attempts gets here: an allocation failure in
    // classify or settle. The job fails, without touching the heap, instead
    // of the exception ending the process (this runs on pool threads, where
    // it would reach std::terminate).
    if (!j.finished) {
      JobResult& r = results_[j.index];
      r.state = JobState::kFailed;
      r.error_code = kJobFailed;
      r.attempts = j.attempt;
      j.finished = true;
      --unfinished_;
      count(&ServiceStats::jobs_failed);
    }
  }
}

void JobLifecycle::interrupt_unfinished() {
  for (Job& j : jobs_) {
    if (j.finished) continue;
    JobResult latest = results_[j.index];  // the last attempt's payload
    latest.resumed = false;                // counted when it was settled
    if (latest.error.empty())
      latest.error = "service shut down before the job finished";
    settle(j, AttemptOutcome::kKilled, std::move(latest));
  }
}

}  // namespace repro
