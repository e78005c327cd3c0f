#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "flow/experiment.h"
#include "replicate/engine.h"
#include "serve/job.h"
#include "serve/lifecycle.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace repro {

/// Options for the flow service.
struct ServiceOptions {
  /// Jobs run at once, started in submission order (0 = hardware
  /// concurrency, 1 = sequential).
  int threads = 1;
  /// Default embedder threads inside each job's replication engine
  /// (results are bit-identical for every value; 1 avoids oversubscribing
  /// when many jobs run concurrently). JobSpec::engine_threads overrides.
  int engine_threads = 1;
  /// Default per-stage wall-clock timeout in seconds (0 = none).
  /// JobSpec::timeout_seconds overrides per job.
  double job_timeout_seconds = 0;
  /// Retries after a failed (not timed-out) attempt.
  int max_retries = 0;
  double retry_backoff_seconds = 0.05;

  /// Directory for stage-boundary snapshots ("" = checkpointing off).
  /// Created if missing.
  std::string checkpoint_dir;
  /// Pick up <checkpoint_dir>/<job-id>.ckpt files: completed stages are
  /// skipped and the job continues from the restored state, reproducing the
  /// straight-through run's results bit-for-bit.
  bool resume = false;

  /// Baseline flow configuration; per-job scale/seed/threads come from the
  /// JobSpec.
  FlowConfig base;

  /// Test/CI hook simulating a crash: request service shutdown (as
  /// request_shutdown does, in both executors) once this many checkpoints
  /// have been written (0 = off). Running jobs unwind at their next
  /// cancellation point and are reported CHECKPOINTED.
  int stop_after_checkpoints = 0;
};

/// "" = valid, else the reason a spec is rejected before scheduling.
std::string validate_job_spec(const JobSpec& spec);

/// One single-attempt execution request for run_flow_attempt. The job
/// lifecycle runs it in-process, a dist worker runs it with a frame-sending
/// checkpoint sink; both resume from the lifecycle's bytes. Same code, same
/// bits.
struct FlowAttemptRequest {
  const JobSpec* spec = nullptr;
  int attempt = 1;
  /// Serialized snapshot to resume from ("" = fresh run), read once before
  /// the first stage. Unreadable, mismatched or under-placed bytes are
  /// ignored (with a warning when unreadable) and the job starts afresh.
  std::string_view resume;
  /// Called after every completed stage boundary with the serializable job
  /// state. May be empty. Exceptions from the sink propagate (a worker uses
  /// this for deterministic kill-at-stage fault injection).
  std::function<void(const FlowSnapshot&)> on_checkpoint;
  /// Cooperative shutdown flag wired into every stage's CancelToken.
  const std::atomic<bool>* kill_flag = nullptr;
};

/// Runs one job attempt end to end (place -> replicate -> route), filling
/// `out` and throwing to report failure/cancellation: FlowCancelled on
/// deadline/kill, AuditError on invariant violations, std::runtime_error
/// otherwise (see classify in serve/lifecycle.h).
void run_flow_attempt(const ServiceOptions& opt, const FlowAttemptRequest& req,
                      JobResult& out);

/// The place stage of a flow job, shared with ECO sessions: generates `c` at
/// (cfg.scale, cfg.seed), sizes the grid and places the circuit with
/// cfg.placer, drawing the annealer seed from `rng`. Fills snap.nl, grid_n,
/// grid and pl. The placer's own audit batteries run at `audit`; `cancel`
/// may be null.
void place_job_circuit(const McncCircuit& c, const FlowConfig& cfg,
                       AuditLevel audit, const CancelToken* cancel, Rng& rng,
                       FlowSnapshot& snap);

/// The replicate stage of a flow job, shared with ECO sessions: runs the
/// engine on snap's netlist and placement, records its summary in
/// snap.engine, and throws std::runtime_error if the netlist comes out
/// invalid or the placement illegal. `cancel` may be null.
void replicate_job_circuit(EmbedVariant variant, int num_threads,
                           const CancelToken* cancel,
                           const LinearDelayModel& delay,
                           FlowSnapshot& snap);

/// Copies the job state a stage-boundary snapshot carries (stage, engine
/// summary, metrics, stage seconds, audit level and check count) into an
/// attempt's result. run_flow_attempt records every boundary this way
/// before handing the snapshot to its checkpoint sink, so a remote attempt
/// whose streamed checkpoint fails can be settled with the same result.
void record_boundary(const ServiceOptions& opt, const FlowSnapshot& snap,
                     JobResult& out);

/// Batch server for place -> replicate -> route jobs.
///
/// Each job runs the full pipeline with a deterministic snapshot written at
/// every stage boundary; per-stage deadlines cancel runaway stages at their
/// cooperative checkpoints (annealer temperatures, engine iterations, router
/// passes). A failing, hanging or timed-out job never takes the batch down:
/// it is reported FAILED/TIMED_OUT with a nonzero per-job error code and the
/// remaining jobs complete.
class FlowService {
 public:
  explicit FlowService(const ServiceOptions& opt) : opt_(opt) {}

  /// Runs all jobs; results are in input order. Does not throw on per-job
  /// errors (see JobResult::state / error_code). Throws on infrastructure
  /// errors only (e.g. the checkpoint directory cannot be created).
  std::vector<JobResult> run_batch(const std::vector<JobSpec>& specs);

  /// Cooperative shutdown (signal path): running jobs unwind at their next
  /// cancellation point and are reported CHECKPOINTED; queued jobs are not
  /// started. Safe to call from any thread, including before or between
  /// run_batch() calls — the request sticks and applies to the next batch.
  void request_shutdown();

  /// Cumulative over every batch this service has run.
  ServiceStats stats() const { return counters_.snapshot(); }

 private:
  ServiceOptions opt_;
  std::atomic<bool> shutdown_requested_{false};
  JobCounters counters_;
};

/// Service knobs from the environment, layered over `base`:
///   REPRO_SERVE_THREADS      concurrent jobs (integer >= 0)
///   REPRO_SERVE_JOB_TIMEOUT  per-stage timeout seconds (> 0)
///   REPRO_SERVE_MAX_RETRIES  retry budget (integer >= 0)
/// Malformed values fall back to the corresponding `base` field.
ServiceOptions service_options_from_env(ServiceOptions base = {});

/// JSONL bridge: parses one job line (unknown keys rejected; see
/// examples/flow_jobs.jsonl). Throws JsonlError.
JobSpec parse_job_line(const std::string& line);

/// Formats one result line. `stable` omits wall-clock-dependent fields
/// (seconds, attempts, resumed) so an interrupted-and-resumed batch is
/// byte-comparable with a straight-through one.
std::string format_result_line(const JobResult& r, bool stable);

}  // namespace repro
