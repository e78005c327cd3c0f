#include "serve/service.h"

#include "util/mem.h"
#include "util/stats.h"

#include <chrono>
#include <thread>

#include "gen/circuit_gen.h"
#include "replicate/engine.h"
#include "serve/jsonl.h"
#include "util/cancel.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace repro {

bool filename_safe(const std::string& id) {
  if (id.empty() || id.size() > 128) return false;
  for (char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    if (!ok) return false;
  }
  return true;
}

bool is_stage_name(const std::string& s) {
  return s == "place" || s == "replicate" || s == "route";
}

std::string validate_job_spec(const JobSpec& spec) {
  if (!filename_safe(spec.id))
    return "id must be a non-empty filename-safe string ([A-Za-z0-9._-])";
  if (!find_mcnc_circuit(spec.circuit))
    return "unknown circuit '" + spec.circuit + "'";
  if (!(spec.scale > 0)) return "scale must be > 0";
  EmbedVariant v;
  if (spec.variant != "none" && !parse_variant(spec.variant, &v))
    return "unknown variant '" + spec.variant + "'";
  PlacerBackend pb;
  if (!spec.placer.empty() && !parse_placer_backend(spec.placer, &pb))
    return "unknown placer '" + spec.placer + "'";
  if (spec.engine_threads < 0) return "engine_threads must be >= 0";
  if (spec.timeout_seconds < 0) return "timeout_seconds must be >= 0";
  auto stage_ok = [](const std::string& s) {
    return s.empty() || is_stage_name(s);
  };
  if (!stage_ok(spec.inject_fail_stage)) return "bad inject_fail stage";
  if (!stage_ok(spec.inject_hang_stage)) return "bad inject_hang stage";
  return "";
}

namespace {

void maybe_inject(const JobSpec& spec, const char* stage,
                  const CancelToken& token) {
  if (spec.inject_fail_stage == stage)
    throw std::runtime_error(std::string("injected failure in ") + stage);
  if (spec.inject_hang_stage == stage) {
    if (!token.has_deadline())
      throw std::runtime_error("inject_hang requires a stage timeout");
    // A hang that still honours cancellation points: spin until the stage
    // deadline (or a service shutdown) unwinds us.
    while (true) {
      token.check(stage);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

EngineSummary summarize(const EngineResult& r) {
  EngineSummary e;
  e.ran = true;
  e.initial_critical = r.initial_critical;
  e.final_critical = r.final_critical;
  e.initial_wirelength = r.initial_wirelength;
  e.final_wirelength = r.final_wirelength;
  e.initial_blocks = static_cast<std::int64_t>(r.initial_blocks);
  e.final_blocks = static_cast<std::int64_t>(r.final_blocks);
  e.total_replicated = r.total_replicated;
  e.total_unified = r.total_unified;
  e.iterations = static_cast<int>(r.history.size());
  e.ran_out_of_slots = r.ran_out_of_slots;
  e.reached_lower_bound = r.reached_lower_bound;
  e.lower_bound = r.lower_bound;
  e.region_truncations = r.region_truncations;
  return e;
}

}  // namespace

void place_job_circuit(const McncCircuit& c, const FlowConfig& cfg,
                       AuditLevel audit, const CancelToken* cancel, Rng& rng,
                       FlowSnapshot& snap) {
  snap.nl = std::make_unique<Netlist>(
      generate_circuit(spec_for(c, cfg.scale, cfg.seed)));
  snap.grid_n = FpgaGrid::min_grid_for(
      snap.nl->num_logic(),
      snap.nl->num_input_pads() + snap.nl->num_output_pads());
  snap.grid = std::make_unique<FpgaGrid>(snap.grid_n, snap.grid_io_rat);
  PlacerOptions popt;
  popt.backend = cfg.placer;
  popt.annealer = cfg.annealer;
  popt.annealer.seed = rng.next_u64();
  popt.annealer.cancel = cancel;
  popt.analytic = cfg.analytic;
  popt.audit = audit;
  popt.audit_seed = cfg.seed;
  snap.pl = std::make_unique<Placement>(
      place_circuit(*snap.nl, *snap.grid, cfg.delay, popt));
}

void replicate_job_circuit(EmbedVariant variant, int num_threads,
                           const CancelToken* cancel,
                           const LinearDelayModel& delay,
                           FlowSnapshot& snap) {
  EngineOptions eopt;
  eopt.variant = variant;
  eopt.num_threads = num_threads;
  eopt.cancel = cancel;
  snap.engine =
      summarize(run_replication_engine(*snap.nl, *snap.pl, delay, eopt));
  const std::string err = snap.nl->validate();
  if (!err.empty())
    throw std::runtime_error("netlist invalid after replication: " + err);
  if (!snap.pl->legal())
    throw std::runtime_error("placement illegal after replication: " +
                             snap.pl->check_legal());
}

void record_boundary(const ServiceOptions& opt, const FlowSnapshot& snap,
                     JobResult& out) {
  out.completed_stage = snap.stage;
  out.engine = snap.engine;
  out.has_metrics = snap.has_metrics;
  out.metrics = snap.metrics;
  out.place_seconds = snap.place_seconds;
  out.replicate_seconds = snap.replicate_seconds;
  out.route_seconds = snap.has_metrics ? snap.metrics.route_seconds : 0;
  if (opt.base.audit != AuditLevel::kOff)
    out.audit_level = audit_level_name(opt.base.audit);
  out.audit_checks = snap.audit_checks;
}

void run_flow_attempt(const ServiceOptions& opt, const FlowAttemptRequest& req,
                      JobResult& out) {
  const JobSpec& spec = *req.spec;
  const int attempt = req.attempt;
  FlowConfig cfg = opt.base;
  cfg.scale = spec.scale;
  cfg.seed = spec.seed;
  if (!spec.placer.empty())  // validated at submit; "" inherits the default
    parse_placer_backend(spec.placer, &cfg.placer);
  cfg.num_threads =
      spec.engine_threads > 0 ? spec.engine_threads : opt.engine_threads;

  const double timeout = spec.timeout_seconds > 0 ? spec.timeout_seconds
                                                  : opt.job_timeout_seconds;
  auto make_token = [&](CancelToken& token) {
    token.set_kill_flag(req.kill_flag);
    if (timeout > 0) token.set_deadline_after(timeout);
  };

  // Fresh state or resumed checkpoint (a mirror read back from disk, or the
  // latest boundary of an earlier attempt, possibly on another worker).
  FlowSnapshot snap;
  bool resumed = false;
  if (!req.resume.empty()) {
    FlowSnapshot loaded;
    try {
      loaded = parse_snapshot(req.resume);
    } catch (const SnapshotError& e) {
      // An unreadable checkpoint means a fresh run, never a dead job.
      LOG_WARN() << "job " << spec.id
                 << ": ignoring unreadable checkpoint: " << e.what();
    }
    // The checkpoint must describe the same work; a stale snapshot from a
    // previous batch with different parameters restarts from scratch.
    if (loaded.circuit == spec.circuit && loaded.variant == spec.variant &&
        loaded.cfg.placer == cfg.placer &&
        loaded.cfg.seed == spec.seed && loaded.cfg.scale == spec.scale &&
        loaded.stage >= FlowStage::kPlaced) {
      snap = std::move(loaded);
      snap.cfg.num_threads = cfg.num_threads;  // thread count never
                                               // changes results
      resumed = true;
    }
  }
  if (!resumed) {
    snap.job_id = spec.id;
    snap.circuit = spec.circuit;
    snap.variant = spec.variant;
    snap.stage = FlowStage::kInit;
    snap.cfg = cfg;
    snap.rng_state = Rng(spec.seed).state();
  }
  if (resumed && attempt == 1) out.resumed = true;

  // The job-level RNG stream position is part of the snapshot: stages that
  // draw from it (the annealer seed today) advance it, so a resumed run
  // continues the exact stream of the straight-through run.
  Rng rng;
  rng.set_state(snap.rng_state);

  // ---- invariant auditing (src/audit) -------------------------------------
  // cfg.audit is process-local (never serialized), so a resumed snapshot is
  // audited at the CURRENT service's level, not the writer's. The cumulative
  // check counter follows the same rule: restore it only when auditing is on
  // (it stands in for the skipped stages' audits, keeping the result line's
  // `audit_checks` byte-identical to an uninterrupted run), zero it when the
  // current service audits nothing.
  snap.cfg.audit = cfg.audit;
  if (cfg.audit == AuditLevel::kOff) snap.audit_checks = 0;
  record_boundary(opt, snap, out);
  // Pre-replication golden for the functional-equivalence check. Captured by
  // copy before the engine mutates the netlist; on resume it is regenerated
  // from the spec (generation is deterministic in (circuit, scale, seed)).
  std::unique_ptr<Netlist> golden;
  auto ensure_golden = [&]() {
    if (golden) return;
    const McncCircuit* c = find_mcnc_circuit(spec.circuit);
    golden = std::make_unique<Netlist>(
        generate_circuit(spec_for(*c, cfg.scale, cfg.seed)));
  };
  auto audit_after = [&](const std::string& stage, const Netlist* gold,
                         bool count = true) {
    if (cfg.audit == AuditLevel::kOff) return;
    AuditOptions aud;
    aud.level = cfg.audit;
    aud.seed = cfg.seed;
    Auditor auditor(aud);
    AuditReport rep = auditor.audit_stage(stage, *snap.nl, snap.pl.get(),
                                          &cfg.delay, gold, nullptr);
    // The defensive re-audit of a restored snapshot (count=false) still
    // throws on violations but stays out of the deterministic counters: an
    // uninterrupted run never performs it, and the restored snap.audit_checks
    // already accounts for the completed stages.
    if (count) {
      snap.audit_checks += rep.checks_run;
      out.audit_checks = snap.audit_checks;
    }
    if (!rep.clean()) throw AuditError(stage, std::move(rep));
  };

  // A resumed snapshot came from an untrusted file: re-audit the restored
  // state before building on it. Post-replication states are also checked
  // for functional equivalence against the regenerated golden.
  if (resumed && cfg.audit != AuditLevel::kOff) {
    const Netlist* gold = nullptr;
    if (snap.stage >= FlowStage::kReplicated && spec.variant != "none") {
      ensure_golden();
      gold = golden.get();
    }
    audit_after("resume", gold, /*count=*/false);
  }

  // ---- stage: place (generate + anneal) -----------------------------------
  if (snap.stage < FlowStage::kPlaced) {
    CancelToken token;
    make_token(token);
    maybe_inject(spec, "place", token);
    reset_peak_rss();
    const double t0 = steady_seconds();
    // Stage batteries inside place_circuit (place.analytic / place.polish)
    // run at the service's audit level; the job-level "place" battery below
    // still covers the final placement for every backend.
    place_job_circuit(*find_mcnc_circuit(spec.circuit), cfg, cfg.audit, &token,
                      rng, snap);
    snap.rng_state = rng.state();
    snap.place_seconds = steady_seconds() - t0;
    out.place_peak_rss_bytes = peak_rss_bytes();
    snap.stage = FlowStage::kPlaced;
    audit_after("place", nullptr);
    record_boundary(opt, snap, out);
    if (req.on_checkpoint) req.on_checkpoint(snap);
  }

  // ---- stage: replicate ---------------------------------------------------
  if (snap.stage < FlowStage::kReplicated) {
    CancelToken token;
    make_token(token);
    maybe_inject(spec, "replicate", token);
    reset_peak_rss();
    const double t0 = steady_seconds();
    if (spec.variant != "none") {
      if (cfg.audit != AuditLevel::kOff)
        golden = std::make_unique<Netlist>(*snap.nl);
      EmbedVariant variant = EmbedVariant::kRtEmbedding;
      parse_variant(spec.variant, &variant);  // validated at submit
      replicate_job_circuit(variant, cfg.num_threads, &token, cfg.delay, snap);
    }
    snap.rng_state = rng.state();
    snap.replicate_seconds = steady_seconds() - t0;
    out.replicate_peak_rss_bytes = peak_rss_bytes();
    snap.stage = FlowStage::kReplicated;
    audit_after("replicate", golden.get());
    record_boundary(opt, snap, out);
    if (req.on_checkpoint) req.on_checkpoint(snap);
  }

  // ---- stage: route -------------------------------------------------------
  if (snap.stage < FlowStage::kRouted) {
    CancelToken token;
    make_token(token);
    maybe_inject(spec, "route", token);
    reset_peak_rss();
    if (spec.route) {
      FlowConfig rcfg = cfg;
      rcfg.router.cancel = &token;
      // evaluate_routed runs the route-occupancy audits itself (it owns
      // the RoutingResult).
      snap.metrics = evaluate_routed(spec.circuit, *snap.nl, *snap.pl, rcfg);
      // Replication-stage observability piggybacks on the metrics record:
      // truncated embeddings must be visible in result lines, not just logs.
      snap.metrics.embed_region_truncations = snap.engine.region_truncations;
      snap.has_metrics = true;
    }
    snap.rng_state = rng.state();
    out.route_peak_rss_bytes = peak_rss_bytes();
    snap.stage = FlowStage::kRouted;
    record_boundary(opt, snap, out);
    if (req.on_checkpoint) req.on_checkpoint(snap);
  }
  out.arena_bytes = arena_counters().total_bytes();
}

std::vector<JobResult> FlowService::run_batch(
    const std::vector<JobSpec>& specs) {
  ThreadPool pool(opt_.threads > 0 ? static_cast<unsigned>(opt_.threads)
                                   : ThreadPool::hardware_threads());
  JobLifecycle lifecycle(opt_, specs, counters_, shutdown_requested_);
  std::vector<JobLifecycle::Job*> todo;
  for (JobLifecycle::Job& j : lifecycle.jobs())
    if (!j.finished) todo.push_back(&j);
  // One job per chunk: the calling thread and every pool worker claim jobs
  // in submission order, so `threads` jobs run at once.
  // run_attempts_locally never throws (see its contract), so no exception
  // can leave a pool worker.
  pool.parallel_for(todo.size(), 1, [&](std::size_t k) {
    lifecycle.run_attempts_locally(*todo[k]);
  });
  return lifecycle.take_results();
}

void FlowService::request_shutdown() {
  shutdown_requested_.store(true, std::memory_order_relaxed);
}

ServiceOptions service_options_from_env(ServiceOptions base) {
  base.threads =
      static_cast<int>(env_long("REPRO_SERVE_THREADS", base.threads, 0));
  base.job_timeout_seconds =
      env_double("REPRO_SERVE_JOB_TIMEOUT", base.job_timeout_seconds, 0.0);
  base.max_retries = static_cast<int>(
      env_long("REPRO_SERVE_MAX_RETRIES", base.max_retries, 0));
  return base;
}

JobSpec parse_job_line(const std::string& line) {
  const auto obj = parse_jsonl_object(line);
  JobSpec spec;
  for (const auto& [key, v] : obj) {
    if (key == "id") spec.id = json_string(v, key);
    else if (key == "circuit") spec.circuit = json_string(v, key);
    else if (key == "scale") spec.scale = json_number(v, key);
    else if (key == "seed") spec.seed = json_u64(v, key);
    else if (key == "variant") spec.variant = json_string(v, key);
    else if (key == "placer") spec.placer = json_string(v, key);
    else if (key == "route") spec.route = json_bool(v, key);
    else if (key == "engine_threads") spec.engine_threads = json_i32(v, key);
    else if (key == "timeout_seconds") spec.timeout_seconds = json_number(v, key);
    else if (key == "inject_fail") spec.inject_fail_stage = json_string(v, key);
    else if (key == "inject_hang") spec.inject_hang_stage = json_string(v, key);
    else throw JsonlError("unknown job key \"" + key + "\"");
  }
  return spec;
}

std::string format_result_line(const JobResult& r, bool stable) {
  JsonlWriter w;
  w.field("id", r.spec.id);
  w.field("circuit", r.spec.circuit);
  w.field("variant", r.spec.variant);
  // Backend field appears only when the job asked for a non-default backend,
  // so annealer batches stay byte-identical to pre-placer output.
  if (!r.spec.placer.empty() && r.spec.placer != "annealer")
    w.field("placer", r.spec.placer);
  w.field("seed", static_cast<std::uint64_t>(r.spec.seed));
  w.field("scale", r.spec.scale);
  w.field("state", job_state_name(r.state));
  w.field("error_code", r.error_code);
  if (!r.error.empty()) w.field("error", r.error);
  w.field("completed_stage", flow_stage_name(r.completed_stage));
  // Audit fields appear only when auditing ran, so audit-off batches stay
  // byte-identical to pre-audit output.
  if (!r.audit_level.empty()) {
    w.field("audit_level", r.audit_level);
    w.field("audit_checks", r.audit_checks);
    if (!r.audit_stage.empty()) {
      w.field("audit_stage", r.audit_stage);
      w.field("audit_findings", r.audit_findings);
    }
  }
  if (r.engine.ran) {
    w.field("initial_critical_ns", r.engine.initial_critical);
    w.field("final_critical_ns", r.engine.final_critical);
    w.field("replicated", r.engine.total_replicated);
    w.field("unified", r.engine.total_unified);
    w.field("engine_iterations", r.engine.iterations);
  }
  if (r.has_metrics) {
    const CircuitMetrics& m = r.metrics;
    w.field("crit_winf_ns", m.crit_winf);
    w.field("crit_wls_ns", m.crit_wls);
    w.field("wirelength", static_cast<std::int64_t>(m.wirelength));
    w.field("wmin", m.wmin);
    w.field("luts", static_cast<std::uint64_t>(m.luts));
    w.field("ios", static_cast<std::uint64_t>(m.ios));
    w.field("blocks", static_cast<std::uint64_t>(m.blocks));
    w.field("fpga_n", m.fpga_n);
    w.field("density", m.density);
    w.field("route_nodes_expanded", m.route_nodes_expanded);
    w.field("route_passes", m.route_passes);
    // Appears only when the max_region_points guard actually fired, so
    // guard-off batches stay byte-identical to pre-counter output.
    if (m.embed_region_truncations > 0)
      w.field("region_truncations", m.embed_region_truncations);
  }
  if (!stable) {
    w.field("attempts", r.attempts);
    w.field("resumed", r.resumed);
    w.field("queue_seconds", r.queue_seconds);
    w.field("run_seconds", r.run_seconds);
    w.field("place_seconds", r.place_seconds);
    w.field("replicate_seconds", r.replicate_seconds);
    w.field("route_seconds", r.route_seconds);
    w.field("place_peak_rss_bytes", r.place_peak_rss_bytes);
    w.field("replicate_peak_rss_bytes", r.replicate_peak_rss_bytes);
    w.field("route_peak_rss_bytes", r.route_peak_rss_bytes);
    w.field("arena_bytes", r.arena_bytes);
  }
  return w.take();
}

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued: return "QUEUED";
    case JobState::kRunning: return "RUNNING";
    case JobState::kCheckpointed: return "CHECKPOINTED";
    case JobState::kDone: return "DONE";
    case JobState::kFailed: return "FAILED";
    case JobState::kTimedOut: return "TIMED_OUT";
  }
  return "?";
}

}  // namespace repro
