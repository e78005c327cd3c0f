#include "dist/protocol.h"

#include "serve/wire.h"

namespace repro {
namespace {

void save_spec(const JobSpec& s, ByteWriter& w) {
  w.str(s.id);
  w.str(s.circuit);
  w.f64(s.scale);
  w.u64(s.seed);
  w.str(s.variant);
  w.str(s.placer);
  w.boolean(s.route);
  w.i32(s.engine_threads);
  w.f64(s.timeout_seconds);
  w.str(s.inject_fail_stage);
  w.str(s.inject_hang_stage);
}

JobSpec load_spec(ByteReader& r) {
  JobSpec s;
  s.id = r.str();
  s.circuit = r.str();
  s.scale = r.f64_finite("spec.scale");
  s.seed = r.u64();
  s.variant = r.str();
  s.placer = r.str();
  s.route = r.boolean();
  s.engine_threads = r.i32();
  s.timeout_seconds = r.f64_finite("spec.timeout_seconds");
  s.inject_fail_stage = r.str();
  s.inject_hang_stage = r.str();
  return s;
}

/// Wraps a decoder body so any ByteReader truncation/corruption surfaces as
/// FrameError("<kind>: ...") and the connection is dropped at the caller.
template <typename Fn>
auto decode(const char* kind, const std::string& payload, Fn fn)
    -> decltype(fn(std::declval<ByteReader&>())) {
  ByteReader r(payload);
  try {
    auto msg = fn(r);
    if (!r.exhausted())
      throw WireError("trailing bytes after message");
    return msg;
  } catch (const WireError& e) {
    throw FrameError(std::string(kind) + ": " + e.what());
  }
}

}  // namespace

std::string encode_hello(const HelloMsg& m) {
  ByteWriter w;
  w.u32(m.protocol_version);
  w.u64(m.pid);
  return w.take();
}

HelloMsg decode_hello(const std::string& payload) {
  return decode("hello", payload, [](ByteReader& r) {
    HelloMsg m;
    m.protocol_version = r.u32();
    m.pid = r.u64();
    return m;
  });
}

std::string encode_hello_ack(const HelloAckMsg& m) {
  ByteWriter w;
  w.u32(m.worker_id);
  return w.take();
}

HelloAckMsg decode_hello_ack(const std::string& payload) {
  return decode("hello_ack", payload, [](ByteReader& r) {
    HelloAckMsg m;
    m.worker_id = r.u32();
    return m;
  });
}

std::string encode_heartbeat(const HeartbeatMsg& m) {
  ByteWriter w;
  w.u64(m.seq);
  return w.take();
}

HeartbeatMsg decode_heartbeat(const std::string& payload) {
  return decode("heartbeat", payload, [](ByteReader& r) {
    HeartbeatMsg m;
    m.seq = r.u64();
    return m;
  });
}

std::string encode_assign(const AssignMsg& m) {
  ByteWriter w;
  w.u32(m.job_index);
  w.u32(m.attempt);
  save_spec(m.spec, w);
  w.str(m.snapshot);
  return w.take();
}

AssignMsg decode_assign(const std::string& payload) {
  return decode("assign", payload, [](ByteReader& r) {
    AssignMsg m;
    m.job_index = r.u32();
    m.attempt = r.u32();
    m.spec = load_spec(r);
    m.snapshot = r.str();
    return m;
  });
}

std::string encode_checkpoint(const CheckpointMsg& m) {
  ByteWriter w;
  w.u32(m.job_index);
  w.u8(m.stage);
  w.str(m.snapshot);
  return w.take();
}

CheckpointMsg decode_checkpoint(const std::string& payload) {
  return decode("checkpoint", payload, [](ByteReader& r) {
    CheckpointMsg m;
    m.job_index = r.u32();
    m.stage = r.u8();
    m.snapshot = r.str();
    return m;
  });
}

std::string encode_result(const ResultMsg& m) {
  ByteWriter w;
  w.u32(m.job_index);
  w.u32(m.attempt);
  w.u8(static_cast<std::uint8_t>(m.outcome));
  w.str(m.error);
  w.u8(m.completed_stage);
  w.boolean(m.resumed);
  wire_save_engine(m.engine, w);
  w.boolean(m.has_metrics);
  if (m.has_metrics) wire_save_metrics(m.metrics, w);
  w.str(m.audit_level);
  w.i32(m.audit_checks);
  w.str(m.audit_stage);
  w.i32(m.audit_findings);
  w.str(m.audit_jsonl);
  w.f64(m.place_seconds);
  w.f64(m.replicate_seconds);
  w.f64(m.route_seconds);
  w.u64(m.place_peak_rss_bytes);
  w.u64(m.replicate_peak_rss_bytes);
  w.u64(m.route_peak_rss_bytes);
  w.u64(m.arena_bytes);
  return w.take();
}

ResultMsg decode_result(const std::string& payload) {
  return decode("result", payload, [](ByteReader& r) {
    ResultMsg m;
    m.job_index = r.u32();
    m.attempt = r.u32();
    const std::uint8_t outcome = r.u8();
    if (outcome > static_cast<std::uint8_t>(AttemptOutcome::kError))
      throw WireError("bad outcome " + std::to_string(outcome));
    m.outcome = static_cast<AttemptOutcome>(outcome);
    m.error = r.str();
    m.completed_stage = r.u8();
    if (m.completed_stage > static_cast<std::uint8_t>(FlowStage::kRouted))
      throw WireError("bad stage " + std::to_string(m.completed_stage));
    m.resumed = r.boolean();
    m.engine = wire_load_engine(r);
    m.has_metrics = r.boolean();
    if (m.has_metrics) m.metrics = wire_load_metrics(r);
    m.audit_level = r.str();
    m.audit_checks = r.i32();
    m.audit_stage = r.str();
    m.audit_findings = r.i32();
    m.audit_jsonl = r.str();
    m.place_seconds = r.f64_finite("result.place_seconds");
    m.replicate_seconds = r.f64_finite("result.replicate_seconds");
    m.route_seconds = r.f64_finite("result.route_seconds");
    m.place_peak_rss_bytes = r.u64();
    m.replicate_peak_rss_bytes = r.u64();
    m.route_peak_rss_bytes = r.u64();
    m.arena_bytes = r.u64();
    return m;
  });
}

void apply_result_payload(const ResultMsg& m, JobResult& r) {
  r.error = m.error;
  r.completed_stage = static_cast<FlowStage>(m.completed_stage);
  r.resumed = m.resumed;
  r.engine = m.engine;
  r.has_metrics = m.has_metrics;
  r.metrics = m.metrics;
  r.audit_level = m.audit_level;
  r.audit_checks = m.audit_checks;
  r.audit_stage = m.audit_stage;
  r.audit_findings = m.audit_findings;
  r.audit_jsonl = m.audit_jsonl;
  r.place_seconds = m.place_seconds;
  r.replicate_seconds = m.replicate_seconds;
  r.route_seconds = m.route_seconds;
  r.place_peak_rss_bytes = m.place_peak_rss_bytes;
  r.replicate_peak_rss_bytes = m.replicate_peak_rss_bytes;
  r.route_peak_rss_bytes = m.route_peak_rss_bytes;
  r.arena_bytes = m.arena_bytes;
}

ResultMsg result_msg_from(const JobResult& r, std::uint32_t job_index,
                          std::uint32_t attempt, AttemptOutcome outcome) {
  ResultMsg m;
  m.job_index = job_index;
  m.attempt = attempt;
  m.outcome = outcome;
  m.error = r.error;
  m.completed_stage = static_cast<std::uint8_t>(r.completed_stage);
  m.resumed = r.resumed;
  m.engine = r.engine;
  m.has_metrics = r.has_metrics;
  m.metrics = r.metrics;
  m.audit_level = r.audit_level;
  m.audit_checks = r.audit_checks;
  m.audit_stage = r.audit_stage;
  m.audit_findings = r.audit_findings;
  m.audit_jsonl = r.audit_jsonl;
  m.place_seconds = r.place_seconds;
  m.replicate_seconds = r.replicate_seconds;
  m.route_seconds = r.route_seconds;
  m.place_peak_rss_bytes = r.place_peak_rss_bytes;
  m.replicate_peak_rss_bytes = r.replicate_peak_rss_bytes;
  m.route_peak_rss_bytes = r.route_peak_rss_bytes;
  m.arena_bytes = r.arena_bytes;
  return m;
}

}  // namespace repro
