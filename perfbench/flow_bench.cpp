// End-to-end flow benchmark (see README.md next to this file).
//
// Runs one workload of generate -> place -> replicate -> route from the
// outside, through the library's public entry points only, and prints its
// metrics as the last stdout line (one JSON object). One process per
// workload: ru_maxrss is a process-lifetime high-water mark.
//
//   flow_bench --workload lex3_serial|lex3_parallel|route_fullsize|serve_batch
//              [--seed N] [--gen-seed N] [--seconds S] [--trace 0|1]
//              [--out-dir DIR]
//
// --gen-seed (default 7) generates the circuits; at 7 the routed quality is
// also compared with the pinned seed-commit values. --seed drives only what
// does not change the computed work: the random-simulation stimulus of the
// equivalence check.
// --trace 1 adds one traced flow (spans around every layer call, counter
// deltas per stage) and the probe calls, writes a Chrome trace-event file
// plus a self-time summary to --out-dir, and reports the per-layer metrics.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "audit/auditor.h"
#include "embed/embedder.h"
#include "embed/embedding_graph.h"
#include "flow/experiment.h"
#include "gen/circuit_gen.h"
#include "netlist/sim.h"
#include "place/legalizer.h"
#include "place/placer.h"
#include "replicate/engine.h"
#include "replicate/extraction.h"
#include "replicate/replication_tree.h"
#include "route/router.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "timing/monotone.h"
#include "timing/spt.h"
#include "timing/timing_graph.h"
#include "util/mem.h"
#include "util/rng.h"
#include "util/stats.h"

namespace repro {
namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

std::string fmt_g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

// ---- command line ------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t gen_seed = 7;
  double seconds = 18;
  bool trace = false;
  int threads = 1;  // service / parallel-engine threads: min(4, hardware)
  std::string out_dir = ".bench_build/out";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "flow_bench: %s\nusage: flow_bench --workload "
               "lex3_serial|lex3_parallel|route_fullsize|serve_batch "
               "[--seed N] [--gen-seed N] [--seconds S] [--trace 0|1] "
               "[--out-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--gen-seed") {
      a.gen_seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      a.trace = v != "0";
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      usage("unknown option '" + k + "'");
    }
    if (end && *end != '\0') usage("bad value '" + v + "' for " + k);
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  const unsigned hw = std::thread::hardware_concurrency();
  a.threads = static_cast<int>(std::min(4u, std::max(1u, hw)));
  return a;
}

// ---- tracing -------------------------------------------------------------------
//
// Spans are recorded by this program around its calls into each layer (no
// instrumentation inside the program), kept in memory and written when the
// run ends. A span named `module.call` carries start, end, parent span and
// job id; counter deltas read at the same boundary travel as span args.

struct Span {
  std::string name;
  std::string job;
  int parent = -1;
  int tid = 0;
  double t0 = 0;
  double t1 = 0;
  bool reconstructed = false;  // rebuilt from JobResult timings (serve jobs)
  std::vector<std::pair<std::string, double>> args;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(now_s()) {}

  bool on() const { return on_; }

  int begin(const std::string& name, const std::string& job) {
    if (!on_) return -1;
    Span s;
    s.name = name;
    s.job = job;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.t0 = now_s();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].t1 = now_s();
    stack_.pop_back();
  }
  void arg(int id, const std::string& key, double v) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].args.emplace_back(key, v);
  }
  /// A span whose times were measured elsewhere (serve jobs run inside the
  /// service's own worker threads, out of reach of this program's spans).
  int add(const std::string& name, const std::string& job, int parent, int tid,
          double t0, double t1) {
    if (!on_) return -1;
    Span s;
    s.name = name;
    s.job = job;
    s.parent = parent;
    s.tid = tid;
    s.t0 = t0;
    s.t1 = t1;
    s.reconstructed = true;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }

  void write_chrome(const std::string& path) const {
    std::ofstream f(path);
    f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string cat = s.name.substr(0, s.name.find('.'));
      f << (i ? ",\n" : "\n") << "{\"name\":" << json_str(s.name)
        << ",\"cat\":" << json_str(cat) << ",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.tid << ",\"ts\":" << fmt_g((s.t0 - origin_) * 1e6)
        << ",\"dur\":" << fmt_g((s.t1 - s.t0) * 1e6) << ",\"args\":{\"span\":" << i
        << ",\"parent\":" << s.parent << ",\"job\":" << json_str(s.job)
        << ",\"reconstructed\":" << (s.reconstructed ? "true" : "false");
      for (const auto& [k, v] : s.args) f << "," << json_str(k) << ":" << fmt_g(v);
      f << "}}";
    }
    f << "\n]}\n";
  }

  struct SelfTime {
    int count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  /// Per span name: calls, total time, and self time (a span's duration
  /// minus the part of it its direct children cover).
  std::map<std::string, SelfTime> self_times() const {
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span& s : spans_)
      if (s.parent >= 0)
        kids[static_cast<std::size_t>(s.parent)].emplace_back(s.t0, s.t1);
    std::map<std::string, SelfTime> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto iv = kids[i];
      std::sort(iv.begin(), iv.end());
      double covered = 0;
      double cur_lo = 0, cur_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.t0);
        hi = std::min(hi, s.t1);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      SelfTime& st = out[s.name];
      ++st.count;
      st.total_s += s.t1 - s.t0;
      st.self_s += (s.t1 - s.t0) - covered;
    }
    return out;
  }

 private:
  bool on_;
  double origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const std::string& name, const std::string& job = "")
      : t_(t), id_(t.begin(name, job)), t0_(now_s()) {}
  ~ScopedSpan() { t_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }
  double elapsed() const { return now_s() - t0_; }

 private:
  Tracer& t_;
  int id_;
  double t0_;
};

// ---- process-global counters, read as deltas around one stage -------------------

using Metrics = std::map<std::string, double>;

void reset_counters() {
  timing_counters().reset();
  arena_counters().reset();
}

/// What a stage added to the counters since reset_counters(), keyed by
/// per-layer metric name.
Metrics read_counters() {
  const TimingCounters& tc = timing_counters();
  const ArenaCounters& ac = arena_counters();
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"timing.graph_builds", d(tc.graph_builds)},
      {"timing.full_sta_passes", d(tc.full_sta_passes)},
      {"timing.incremental_updates", d(tc.incremental_updates)},
      {"timing.nodes_reevaluated", d(tc.nodes_reevaluated)},
      {"timing.edges_redelayed", d(tc.edges_redelayed)},
      {"embed.arena_bytes", d(ac.embed_scratch_bytes)},
      {"util.arena_growths", d(ac.scratch_growths)},
      {"util.arena_reuses", d(ac.scratch_reuses)},
  };
}

/// Wraps one stage of a traced flow: resets the global counters before it,
/// attaches their deltas to the stage span after it and adds them to
/// `total` (the arena size is a high-water mark, so it takes the maximum).
template <class F>
void counted_stage(Tracer& t, const std::string& name, const std::string& job,
                   Metrics* total, F&& f) {
  const bool count = t.on() && total;
  if (count) reset_counters();
  ScopedSpan sp(t, name, job);
  f();
  if (!count) return;
  for (const auto& [k, v] : read_counters()) {
    t.arg(sp.id(), k, v);
    double& acc = (*total)[k];
    acc = k == "embed.arena_bytes" ? std::max(acc, v) : acc + v;
  }
}

double ru_maxrss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Samples the resident set while a batch runs. The flow service resets the
/// kernel's peak-RSS watermark before each stage, so ru_maxrss alone would
/// report only the peak since the last reset.
class RssSampler {
 public:
  RssSampler()
      : th_([this] {
          while (!stop_.load(std::memory_order_relaxed)) {
            const std::uint64_t b = current_rss_bytes();
            if (b > max_.load(std::memory_order_relaxed))
              max_.store(b, std::memory_order_relaxed);
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
        }) {}
  ~RssSampler() { stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (th_.joinable()) th_.join();
  }
  /// Peak since the previous call (or since the sampler started).
  double take_max_mib() {
    return static_cast<double>(max_.exchange(0, std::memory_order_relaxed)) /
           (1024.0 * 1024.0);
  }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> max_{0};
  std::thread th_;  // declared last: the thread reads the members above
};

// ---- workloads -------------------------------------------------------------------

const McncCircuit& circuit_named(const std::string& name) {
  for (const McncCircuit& m : mcnc_suite())
    if (name == m.name) return m;
  throw std::runtime_error("unknown circuit " + name);
}

bool engine_variant(const std::string& name, EmbedVariant* v) {
  if (name == "rt") *v = EmbedVariant::kRtEmbedding;
  else if (name == "lex3") *v = EmbedVariant::kLex3;
  else return false;
  return true;
}

/// One flow job as the benchmark sees it.
struct JobDef {
  std::string id;
  std::string circuit;
  double scale = 0;
  std::string variant;  // none | rt | lex3
  int engine_threads = 1;
};

/// What one finished job reported (the flow's own outputs, before checks).
struct JobOutcome {
  std::string id;
  std::string key;  // pinned_key()
  bool done = false;
  std::string error;
  CircuitMetrics m;
  bool engine_ran = false;
  int iterations = 0;
  int replicated = 0;
  int unified = 0;
  std::uint64_t region_truncations = 0;
  std::uint64_t spec_launched = 0, spec_hits = 0, spec_discarded = 0;
  double engine_final_critical = 0;
  double engine_lower_bound = 0;
  double latency_s = 0;  // submit -> result
  double place_s = 0, replicate_s = 0, route_s = 0;
  std::uint64_t place_work_units = 0;
  int audit_checks = 0;
};

/// Deterministic outputs compared across repeats of one job and against the
/// pinned seed-commit values.
struct Quality {
  double crit_winf = 0;
  double crit_wls = 0;
  int wmin = 0;
  std::int64_t wirelength = 0;
  int iterations = 0;
  bool operator==(const Quality&) const = default;
};

Quality quality_of(const JobOutcome& o) {
  return Quality{o.m.crit_winf, o.m.crit_wls, o.m.wmin, o.m.wirelength,
                 o.iterations};
}

/// Routed quality of the seed commit at --gen-seed 7 (RelWithDebInfo, gcc
/// 12.2; identical at every thread count), keyed by pinned_key(). A change
/// that moves any of these changed the flow's results, not just its speed.
/// Serve jobs are keyed apart: the service derives its annealer seed from
/// the job seed, so they differ from a direct flow on the same circuit.
const std::map<std::string, Quality>& pinned_quality() {
  static const std::map<std::string, Quality> m = {
      {"apex2@0.15/lex3", {109.1, 109.1, 6, 2728, 40}},
      {"apex2@1/none", {330.1, 330.1, 13, 37582, 0}},
      {"serve:frisc@0.112/none", {69.8, 69.8, 8, 5186, 0}},
      {"serve:frisc@0.018/rt", {19.7, 19.7, 4, 432, 42}},
      {"serve:frisc@0.013/lex3", {19.8, 19.8, 4, 331, 84}},
      {"serve:ex1010@0.087/none", {123.1, 123.1, 7, 3715, 0}},
      {"serve:ex1010@0.014/rt", {24.6, 24.6, 4, 337, 17}},
      {"serve:ex1010@0.01/lex3", {12.6, 12.6, 3, 230, 19}},
      {"serve:bigkey@0.141/none", {58.1, 58.1, 6, 3153, 0}},
      {"serve:bigkey@0.022/rt", {22.8, 22.8, 3, 274, 42}},
      {"serve:bigkey@0.017/lex3", {14.6, 14.6, 3, 203, 43}},
      {"serve:s38417@0.062/none", {62.3, 62.3, 8, 5249, 0}},
      {"serve:s38417@0.01/rt", {20.3, 20.3, 4, 405, 40}},
      {"serve:s38417@0.007/lex3", {23.3, 23.3, 4, 337, 83}},
      {"serve:elliptic@0.111/none", {68.3, 68.3, 9, 5504, 0}},
      {"serve:elliptic@0.017/rt", {25.3, 25.3, 4, 488, 40}},
      {"serve:elliptic@0.013/lex3", {21.8, 21.8, 4, 324, 45}},
      {"serve:ex5p@0.376/none", {140.6, 140.6, 7, 4509, 0}},
      {"serve:ex5p@0.06/rt", {23.6, 23.6, 4, 389, 33}},
      {"serve:ex5p@0.046/lex3", {30.1, 30.1, 4, 312, 33}},
      {"serve:diffeq@0.267/none", {82.3, 82.3, 8, 5264, 0}},
      {"serve:diffeq@0.043/rt", {25.3, 25.3, 4, 500, 40}},
      {"serve:diffeq@0.033/lex3", {20.3, 20.3, 4, 314, 40}},
      {"serve:seq@0.228/none", {100.6, 100.6, 7, 4401, 0}},
      {"serve:seq@0.036/rt", {31.6, 31.6, 4, 394, 40}},
      {"serve:seq@0.028/lex3", {27.1, 27.1, 4, 279, 40}},
  };
  return m;
}

/// A placed circuit. The placement points into the grid and the netlist, so
/// all three live on the heap and move together.
struct Circuit {
  std::unique_ptr<const FpgaGrid> grid;
  std::unique_ptr<Netlist> nl;
  std::unique_ptr<Placement> pl;
};

FlowConfig flow_config() {
  // Library defaults, deliberately not config_from_env(): REPRO_* variables
  // in the caller's environment must not change what is measured.
  return FlowConfig{};
}

/// The flow's place step: a copy of `golden` on its minimum square array,
/// placed by the annealer seeded as replicate_tool seeds it.
Circuit place(const Netlist& golden, std::uint64_t gen_seed, PlacerStats* stats) {
  const FlowConfig cfg = flow_config();
  Circuit c;
  c.nl = std::make_unique<Netlist>(golden);
  c.grid = std::make_unique<const FpgaGrid>(FpgaGrid::min_grid_for(
      c.nl->num_logic(), c.nl->num_input_pads() + c.nl->num_output_pads()));
  PlacerOptions popt;
  popt.backend = cfg.placer;
  popt.annealer = cfg.annealer;
  popt.annealer.seed = gen_seed;
  popt.analytic = cfg.analytic;
  c.pl = std::make_unique<Placement>(
      place_circuit(*c.nl, *c.grid, cfg.delay, popt, stats));
  return c;
}

/// Checks that hold for every job at every seed; returns "" or the failure.
std::string check_job(const Netlist& golden, const Circuit& fin,
                      const JobOutcome& o, std::uint64_t stimulus_seed,
                      double* final_lb) {
  if (!o.done) return "job did not finish: " + o.error;
  const FlowConfig cfg = flow_config();
  if (std::string e = fin.nl->validate(); !e.empty()) return "netlist invalid: " + e;
  if (std::string e = fin.pl->check_legal(); !e.empty())
    return "placement illegal: " + e;
  std::string why;
  if (!functionally_equivalent(golden, *fin.nl, 64, stimulus_seed, &why))
    return "not equivalent to the pre-replication netlist: " + why;
  TimingGraph tg(*fin.nl, *fin.pl, cfg.delay);
  const double lb = monotone_lower_bound(tg);
  *final_lb = lb;
  const double tol = 1e-9 * std::max(1.0, lb);
  if (tg.critical_delay() < lb - tol)
    return "final critical path " + fmt_g(tg.critical_delay()) +
           " below the monotone lower bound " + fmt_g(lb);
  if (o.m.crit_winf < lb - tol || o.m.crit_wls < lb - tol)
    return "routed critical path below the monotone lower bound";
  if (o.engine_ran && o.engine_final_critical < o.engine_lower_bound - tol)
    return "engine final_critical below its lower bound";
  RouterOptions ls = cfg.router;
  ls.channel_width = static_cast<int>(std::ceil(1.2 * o.m.wmin));
  const RoutingResult r = route(*fin.nl, *fin.pl, ls);
  if (r.unrouted_connections != 0 || !r.success)
    return "re-route at W_ls=" + std::to_string(ls.channel_width) + " left " +
           std::to_string(r.unrouted_connections) + " unrouted connection(s)" +
           (r.success ? "" : " or overuse");
  return "";
}

std::string pinned_key(const JobDef& j, bool serve) {
  std::ostringstream k;
  k << (serve ? "serve:" : "") << j.circuit << "@" << j.scale << "/" << j.variant;
  return k.str();
}

/// "" when the job matches its pinned seed-commit quality.
std::string check_pinned(const std::string& key, const Quality& q) {
  const auto it = pinned_quality().find(key);
  if (it == pinned_quality().end()) return key + ": no pinned quality";
  const Quality& p = it->second;
  if (std::fabs(q.crit_winf - p.crit_winf) < 1e-6 &&
      std::fabs(q.crit_wls - p.crit_wls) < 1e-6 && q.wmin == p.wmin &&
      q.wirelength == p.wirelength && q.iterations == p.iterations)
    return "";
  std::ostringstream e;
  e << key << ": W_inf " << q.crit_winf << " W_ls " << q.crit_wls << " W_min "
    << q.wmin << " wl " << q.wirelength << " iters " << q.iterations
    << " differ from pinned " << p.crit_winf << " / " << p.crit_wls << " / "
    << p.wmin << " / " << p.wirelength << " / " << p.iterations;
  return e.str();
}

// Per-layer metrics: every name is always reported (0 where the layer does
// not run on this workload), in this order.
const std::vector<std::pair<const char*, const char*>>& layer_metric_units() {
  static const std::vector<std::pair<const char*, const char*>> v = {
      {"gen.s", "s"},
      {"place.s", "s"},
      {"place.work_units", "count"},
      {"place.legalize_s", "s"},
      {"timing.incremental_updates", "count"},
      {"timing.nodes_reevaluated", "count"},
      {"timing.edges_redelayed", "count"},
      {"timing.full_sta_passes", "count"},
      {"timing.graph_builds", "count"},
      {"timing.sta_s", "s"},
      {"timing.spt_s", "s"},
      {"timing.monotone_s", "s"},
      {"replicate.s", "s"},
      {"replicate.share_of_place_route", "ratio"},
      {"replicate.iterations", "count"},
      {"replicate.replicated", "count"},
      {"replicate.unified", "count"},
      {"replicate.region_truncations", "count"},
      {"replicate.spec_launched", "count"},
      {"replicate.spec_hits", "count"},
      {"replicate.spec_discarded", "count"},
      {"replicate.spec_hit_ratio", "ratio"},
      {"replicate.tree_s", "s"},
      {"replicate.extract_s", "s"},
      {"replicate.unify_s", "s"},
      {"embed.run_s", "s"},
      {"embed.labels_created", "count"},
      {"embed.labels_per_s", "1/s"},
      {"embed.arena_bytes", "bytes"},
      {"util.arena_growths", "count"},
      {"util.arena_reuses", "count"},
      {"route.s", "s"},
      {"route.nodes_expanded", "count"},
      {"route.passes", "count"},
      {"route.wmin_search_s", "s"},
      {"route.wmin_probes", "count"},
      {"route.wmin_nodes_expanded", "count"},
      {"route.heap_pushes", "count"},
      {"audit.checks", "count"},
      {"audit.stage_s", "s"},
      {"serve.queue_wait_s", "s"},
      {"serve.busy_s", "s"},
      {"serve.concurrency", "ratio"},
      {"serve.checkpoints", "count"},
      {"serve.checkpoint_bytes", "bytes"},
      {"serve.retries", "count"},
      {"trace.overhead_s", "s"},
  };
  return v;
}

/// Layer metrics that come straight from the jobs' own outputs.
void add_job_layers(const std::vector<JobOutcome>& jobs, Metrics& L) {
  double place = 0, repl = 0, rt = 0;
  for (const JobOutcome& o : jobs) {
    place += o.place_s;
    repl += o.replicate_s;
    rt += o.route_s;
    L["place.work_units"] += static_cast<double>(o.place_work_units);
    L["replicate.iterations"] += o.iterations;
    L["replicate.replicated"] += o.replicated;
    L["replicate.unified"] += o.unified;
    L["replicate.region_truncations"] += static_cast<double>(o.region_truncations);
    L["replicate.spec_launched"] += static_cast<double>(o.spec_launched);
    L["replicate.spec_hits"] += static_cast<double>(o.spec_hits);
    L["replicate.spec_discarded"] += static_cast<double>(o.spec_discarded);
    L["route.nodes_expanded"] += static_cast<double>(o.m.route_nodes_expanded);
    L["route.passes"] += static_cast<double>(o.m.route_passes);
    L["audit.checks"] += o.audit_checks;
  }
  L["place.s"] = place;
  L["replicate.s"] = repl;
  L["route.s"] = rt;
  L["replicate.share_of_place_route"] = place + rt > 0 ? repl / (place + rt) : 0;
  L["replicate.spec_hit_ratio"] =
      L["replicate.spec_launched"] > 0
          ? L["replicate.spec_hits"] / L["replicate.spec_launched"]
          : 0;
}

/// Everything a workload run produces, before it is printed.
struct RunReport {
  std::vector<double> setup_s;
  std::vector<double> flow_s;          // one per flow (or batch) measured
  std::vector<double> job_latency_s;   // one per job measured
  double busy_flow_s = 0;              // summed wall time of all flows
  std::size_t jobs_ok = 0;             // jobs that passed every check
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  double peak_rss_mib = 0;
  std::vector<JobOutcome> last;        // outcomes of the last flow (or batch)
  std::vector<double> final_lb;        // monotone bound per job of `last`
  Metrics layers;                      // per-layer metrics (trace mode)
};

void fail(RunReport& rep, const std::string& what) {
  rep.failures.push_back(what);
  std::fprintf(stdout, "CHECK FAILED: %s\n", what.c_str());
}

// ---- single-circuit workloads ------------------------------------------------

/// generate -> place -> (replicate) -> route for one circuit. `t` records the
/// stage spans; `counters` (trace mode) collects per-stage counter deltas.
JobOutcome run_flow(const JobDef& j, const Netlist& golden, std::uint64_t gen_seed,
                    Tracer& t, Metrics* counters, Circuit* out) {
  const FlowConfig cfg = flow_config();
  JobOutcome o;
  o.id = j.id;
  o.key = pinned_key(j, false);
  Circuit c;
  const double t0 = now_s();
  ScopedSpan flow(t, "bench.flow", j.id);
  counted_stage(t, "place.place_circuit", j.id, counters, [&] {
    PlacerStats ps;
    c = place(golden, gen_seed, &ps);
    o.place_s = now_s() - t0;
    o.place_work_units = ps.work_units();
  });
  EmbedVariant v;
  if (engine_variant(j.variant, &v)) {
    counted_stage(t, "replicate.run_replication_engine", j.id, counters, [&] {
      EngineOptions eo;
      eo.variant = v;
      eo.num_threads = j.engine_threads;
      const double r0 = now_s();
      const EngineResult r = run_replication_engine(*c.nl, *c.pl, cfg.delay, eo);
      o.replicate_s = now_s() - r0;
      o.engine_ran = true;
      o.iterations = static_cast<int>(r.history.size());
      o.replicated = r.total_replicated;
      o.unified = r.total_unified;
      o.region_truncations = r.region_truncations;
      o.spec_launched = r.speculations_launched;
      o.spec_hits = r.speculation_hits;
      o.spec_discarded = r.speculations_discarded;
      o.engine_final_critical = r.final_critical;
      o.engine_lower_bound = r.lower_bound;
    });
  }
  counted_stage(t, "route.evaluate_routed", j.id, counters, [&] {
    o.m = evaluate_routed(j.circuit, *c.nl, *c.pl, cfg);
    o.route_s = o.m.route_seconds;
  });
  o.latency_s = now_s() - t0;
  o.done = true;
  *out = std::move(c);
  return o;
}

/// Set-up is repeated and its median reported: one set-up takes well under
/// 10 ms, and the host's speed drifts over seconds, so a single burst of
/// repeats reads the machine's state of the moment. The repeats are spread
/// over the run instead: a burst before the first flow (after untimed
/// warm-up repeats) and one after every flow or batch.
constexpr double kSetupWarmupSeconds = 0.25;
constexpr int kSetupRepeats = 16;  // per burst

template <class F>
void measure_setup(std::vector<double>& out, F&& setup, bool warm_up) {
  const double warm_start = now_s();
  while (warm_up && now_s() - warm_start < kSetupWarmupSeconds) setup();
  for (int k = 0; k < kSetupRepeats; ++k) {
    const double t0 = now_s();
    setup();
    out.push_back(now_s() - t0);
  }
}

/// Repeats `once` (which returns its own wall time), then `after`, while
/// another repeat still fits in the time budget; at least one.
template <class F, class G>
void measure_loop(double seconds, std::vector<double>& durations, F&& once,
                  G&& after) {
  const double start = now_s();
  do {
    durations.push_back(once());
    after();
  } while (now_s() - start + median(durations) <= seconds);
}

Netlist generate(const JobDef& j, std::uint64_t gen_seed) {
  return generate_circuit(spec_for(circuit_named(j.circuit), j.scale, gen_seed));
}

/// STA and the monotone lower bound on the circuit; returns the graph.
std::unique_ptr<TimingGraph> probe_sta(const Circuit& c, const JobDef& j, Tracer& t,
                                       Metrics& L) {
  const FlowConfig cfg = flow_config();
  std::unique_ptr<TimingGraph> tg;
  {
    ScopedSpan sp(t, "timing.sta", j.id);
    tg = std::make_unique<TimingGraph>(*c.nl, *c.pl, cfg.delay);
    L["timing.sta_s"] = sp.elapsed();
  }
  ScopedSpan sp(t, "timing.monotone_lower_bound", j.id);
  const double lb = monotone_lower_bound(*tg);
  L["timing.monotone_s"] = sp.elapsed();
  t.arg(sp.id(), "lower_bound_ns", lb);
  return tg;
}

/// Direct calls into the replication-side layers on the workload's placed,
/// pre-replication circuit, mirroring one engine iteration on the K most
/// critical end points: STA, monotone bound, epsilon-SPT, replication tree,
/// fanin-tree embedding (the engine's lex order, label cap and region), then
/// extraction, postprocess unification and legalization of the most critical
/// sink's fastest embedding.
void probe_replication(Circuit c, const JobDef& j, Tracer& t, Metrics& L) {
  constexpr int kSinks = 3;
  const FlowConfig cfg = flow_config();
  EngineOptions eopt;
  engine_variant(j.variant, &eopt.variant);
  const Netlist& nl = *c.nl;
  const Placement& pl = *c.pl;
  const LinearDelayModel& dm = cfg.delay;

  std::unique_ptr<TimingGraph> tg = probe_sta(c, j, t, L);
  std::vector<TimingNodeId> sinks = tg->sinks();
  std::stable_sort(sinks.begin(), sinks.end(), [&](TimingNodeId a, TimingNodeId b) {
    return tg->arrival(a) > tg->arrival(b);
  });
  if (sinks.size() > kSinks) sinks.resize(kSinks);

  EmbedOptions eo;
  eo.lex_order = eopt.variant == EmbedVariant::kLex3 ? 3 : 1;
  eo.max_labels = eopt.max_labels;
  EmbedScratch scratch;
  double labels = 0;
  bool have_pick = false;
  ReplicationTree pick_rt;
  EmbeddingGraph pick_graph;
  TreeEmbedding pick_emb;
  for (TimingNodeId sink : sinks) {
    Spt spt;
    {
      ScopedSpan sp(t, "timing.extract_eps_spt", j.id);
      spt = extract_eps_spt(*tg, sink, 0.0);
      L["timing.spt_s"] += sp.elapsed();
    }
    ReplicationTree rt;
    {
      ScopedSpan sp(t, "replicate.build_replication_tree", j.id);
      rt = build_replication_tree(*tg, spt);
      L["replicate.tree_s"] += sp.elapsed();
    }
    if (rt.num_internal() == 0 ||
        rt.num_internal() > static_cast<std::size_t>(eopt.max_tree_internal))
      continue;
    // Region, graph and placement cost as the engine builds them.
    const int n = pl.grid().n();
    Rect region;
    for (TreeNodeId tn_id : rt.tree.post_order()) {
      const FaninTreeNode& tn = rt.tree.node(tn_id);
      if (tn.is_leaf() || tn_id == rt.tree.root())
        region.include(Point{std::clamp(tn.fixed_loc.x, 1, n),
                             std::clamp(tn.fixed_loc.y, 1, n)});
    }
    region = region.inflated(eopt.region_margin, n, n);
    region.xmin = std::max(region.xmin, 1);
    region.ymin = std::max(region.ymin, 1);
    EmbeddingGraph graph = EmbeddingGraph::make_grid(
        region, eopt.wire_cost_per_unit, dm.wire_delay_per_unit);
    for (TreeNodeId tn_id : rt.tree.post_order()) {
      const FaninTreeNode& tn = rt.tree.node(tn_id);
      if (!tn.is_leaf() && tn_id != rt.tree.root()) continue;
      const Point p = tn.fixed_loc;
      if (graph.vertex_at(p).valid()) continue;
      const Point q{std::clamp(p.x, region.xmin, region.xmax),
                    std::clamp(p.y, region.ymin, region.ymax)};
      const EmbedVertexId pv = graph.add_vertex(p);
      const int d = manhattan(p, q);
      graph.add_bidi_edge(pv, graph.vertex_at(q), eopt.wire_cost_per_unit * d,
                          dm.wire_delay_per_unit * d);
    }
    auto pcost = [&](TreeNodeId i, EmbedVertexId v) -> double {
      const Point p = graph.point(v);
      if (i == rt.tree.root()) {
        if (p == pl.location(rt.root_info.cell)) return 0.0;
        if (!pl.grid().is_logic(p)) return 1e9;
        return eopt.occupancy_cost * pl.occupancy(p);
      }
      if (!pl.grid().is_logic(p)) return 1e9;
      const FaninTreeNode& tn = rt.tree.node(i);
      for (CellId occ : pl.cells_at(p))
        if (nl.cell_alive(occ) && nl.equivalent(occ, tn.cell)) return 0.0;
      const double base = eopt.occupancy_cost * pl.occupancy(p);
      if (nl.net(nl.cell(tn.cell).output).sinks.size() <= 1) return base;
      return base + eopt.replication_cost;
    };
    FaninTreeEmbedder emb(rt.tree, graph, pcost, eo, &scratch);
    bool ok = false;
    {
      ScopedSpan sp(t, "embed.run", j.id);
      ok = emb.run();
      L["embed.run_s"] += sp.elapsed();
      t.arg(sp.id(), "labels_created", static_cast<double>(emb.labels_created()));
      t.arg(sp.id(), "tree_internal", static_cast<double>(rt.num_internal()));
    }
    labels += static_cast<double>(emb.labels_created());
    if (ok && !have_pick && emb.pick_fastest() >= 0) {
      pick_emb = emb.extract(emb.pick_fastest());
      pick_rt = std::move(rt);
      pick_graph = std::move(graph);
      have_pick = true;
    }
  }
  L["embed.labels_created"] = labels;
  L["embed.labels_per_s"] = L["embed.run_s"] > 0 ? labels / L["embed.run_s"] : 0;
  tg.reset();  // the edits below invalidate it
  if (!have_pick) return;
  {
    ScopedSpan sp(t, "replicate.apply_embedding", j.id);
    apply_embedding(*c.nl, *c.pl, pick_rt, pick_emb, pick_graph);
    L["replicate.extract_s"] = sp.elapsed();
  }
  {
    ScopedSpan sp(t, "replicate.postprocess_unification", j.id);
    postprocess_unification(*c.nl, *c.pl, dm, eopt.aggressive_unification);
    L["replicate.unify_s"] = sp.elapsed();
  }
  {
    ScopedSpan sp(t, "place.legalize_timing_driven", j.id);
    legalize_timing_driven(*c.nl, *c.pl, dm, eopt.legalizer);
    L["place.legalize_s"] = sp.elapsed();
  }
}

/// The router's two entry points on the final placement.
void probe_route(const Circuit& fin, const JobDef& j, Tracer& t, Metrics& L) {
  const FlowConfig cfg = flow_config();
  {
    ScopedSpan sp(t, "route.find_min_channel_width", j.id);
    WminSearchStats ws;
    find_min_channel_width(*fin.nl, *fin.pl, cfg.router, &ws);
    L["route.wmin_search_s"] = sp.elapsed();
    L["route.wmin_probes"] = static_cast<double>(ws.probes.size());
    L["route.wmin_nodes_expanded"] = static_cast<double>(ws.nodes_expanded);
  }
  {
    ScopedSpan sp(t, "route.route", j.id);
    RouterOptions inf = cfg.router;
    inf.channel_width = 0;
    const RoutingResult r = route(*fin.nl, *fin.pl, inf);
    L["route.heap_pushes"] = static_cast<double>(r.heap_pushes);
  }
}

void run_single(const Args& a, const JobDef& j, RunReport& rep, Tracer& t) {
  // Set-up: circuit generation and option construction, several times.
  std::unique_ptr<Netlist> golden;
  auto setup = [&] { golden = std::make_unique<Netlist>(generate(j, a.gen_seed)); };
  measure_setup(rep.setup_s, setup, true);

  // Untraced measurement.
  Tracer off(false);
  Circuit fin;
  std::vector<JobOutcome> outs;
  measure_loop(
      a.seconds, rep.flow_s,
      [&] {
        outs.push_back(run_flow(j, *golden, a.gen_seed, off, nullptr, &fin));
        return outs.back().latency_s;
      },
      [&] { measure_setup(rep.setup_s, setup, false); });
  rep.peak_rss_mib = ru_maxrss_mib();

  // Output checks, outside the timed region: the last flow in full, the
  // earlier repeats by their deterministic quality.
  rep.attempted = outs.size();
  const Quality q = quality_of(outs.back());
  for (std::size_t k = 0; k + 1 < outs.size(); ++k) {
    if (!(quality_of(outs[k]) == q)) {
      ++rep.failed;
      fail(rep, j.id + ": repeat " + std::to_string(k) + " differs from the last");
    }
  }
  double lb = 0;
  if (std::string e = check_job(*golden, fin, outs.back(), a.seed, &lb);
      !e.empty()) {
    ++rep.failed;
    fail(rep, j.id + ": " + e);
  }
  if (a.gen_seed == 7) {
    if (std::string e = check_pinned(outs.back().key, q); !e.empty()) fail(rep, e);
  }
  for (const double d : rep.flow_s) rep.busy_flow_s += d;
  rep.jobs_ok = rep.attempted - rep.failed;
  rep.job_latency_s = rep.flow_s;
  rep.last = {outs.back()};
  rep.final_lb = {lb};

  if (!t.on()) return;
  // Traced run: one more flow with spans and per-stage counter deltas, then
  // the probe calls. Neither feeds the end-to-end metrics.
  Metrics& L = rep.layers;
  {
    ScopedSpan sp(t, "gen.generate_circuit", j.id);
    generate(j, a.gen_seed);
    L["gen.s"] = sp.elapsed();
  }
  Circuit traced;
  const JobOutcome o = run_flow(j, *golden, a.gen_seed, t, &L, &traced);
  add_job_layers({o}, L);
  L["trace.overhead_s"] = o.latency_s - median(rep.flow_s);
  if (!(quality_of(o) == q)) fail(rep, j.id + ": traced flow differs from untraced");

  ScopedSpan probes(t, "bench.probes", j.id);
  if (j.variant != "none") {
    // The pre-replication placement, re-created deterministically.
    Circuit placed;
    {
      ScopedSpan sp(t, "place.place_circuit", j.id);
      placed = place(*golden, a.gen_seed, nullptr);
    }
    probe_replication(std::move(placed), j, t, L);
  } else {
    probe_sta(traced, j, t, L);
  }
  probe_route(traced, j, t, L);
}

// ---- serve_batch -----------------------------------------------------------------

/// Seeded draw of the batch from the MCNC-20 list: eight distinct circuits,
/// each as a none, an rt and a lex3 job (24 jobs, variants in turn). Each job
/// is scaled to the largest scale (on a 0.001 grid) whose array fits a
/// per-variant side: the embedder's time and memory grow with the array, and
/// I/O-heavy circuits get large arrays at few LUTs. Many small jobs keep the
/// batch makespan and the median job latency from hinging on where one long
/// job lands in the schedule.
std::vector<JobDef> serve_mix(std::uint64_t gen_seed) {
  constexpr std::size_t kCircuits = 8;
  const std::vector<McncCircuit>& suite = mcnc_suite();
  std::vector<std::size_t> idx(suite.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  Rng rng(gen_seed * 0x9E3779B97F4A7C15ULL + 0x5E12);
  for (std::size_t k = 0; k < kCircuits; ++k)
    std::swap(idx[k], idx[k + rng.next_below(idx.size() - k)]);
  const char* variants[3] = {"none", "rt", "lex3"};
  const int max_side[3] = {20, 8, 7};
  std::vector<JobDef> jobs;
  for (std::size_t k = 0; k < 3 * kCircuits; ++k) {
    const McncCircuit& c = suite[idx[k / 3]];
    JobDef j;
    j.circuit = c.name;
    j.variant = variants[k % 3];
    for (int milli = 1000; milli >= 5; --milli) {
      j.scale = milli / 1000.0;
      const CircuitSpec sp = spec_for(c, j.scale, gen_seed);
      const int n = FpgaGrid::min_grid_for(
          static_cast<std::size_t>(sp.num_logic),
          static_cast<std::size_t>(sp.num_inputs + sp.num_outputs));
      if (n <= max_side[k % 3]) break;
    }
    j.id = "j" + std::to_string(k) + "-" + j.circuit + "-" + j.variant;
    jobs.push_back(j);
  }
  return jobs;
}

void run_serve(const Args& a, RunReport& rep, Tracer& t) {
  const std::vector<JobDef> mix = serve_mix(a.gen_seed);
  const std::filesystem::path ckpt =
      std::filesystem::path(a.out_dir) / ("ckpt-" + std::to_string(::getpid()));

  std::vector<JobSpec> specs;
  std::vector<Netlist> goldens;
  std::unique_ptr<FlowService> svc;
  auto setup = [&] {
    specs.clear();
    goldens.clear();
    for (const JobDef& j : mix) {
      JobSpec s;
      s.id = j.id;
      s.circuit = j.circuit;
      s.scale = j.scale;
      s.seed = a.gen_seed;
      s.variant = j.variant;
      s.route = true;
      s.engine_threads = 1;
      specs.push_back(s);
      goldens.push_back(generate(j, a.gen_seed));
    }
    // Closed loop: the whole batch is submitted at once, in draw order (as
    // flow_server --jobs does).
    ServiceOptions so;
    so.threads = a.threads;  // the user-facing setting; see README.md
    so.engine_threads = 1;
    so.checkpoint_dir = ckpt.string();
    so.base.audit = AuditLevel::kStage;
    svc = std::make_unique<FlowService>(so);
  };
  measure_setup(rep.setup_s, setup, true);

  auto run_batch = [&](std::vector<JobResult>& results, Tracer& tr) {
    ScopedSpan sp(tr, "serve.run_batch");
    const double t0 = now_s();
    results = svc->run_batch(specs);
    const double wall = now_s() - t0;
    // Per-job spans rebuilt from the service's own timings: submit is the
    // batch start, the job starts after its queue wait.
    for (std::size_t i = 0; i < results.size(); ++i) {
      const JobResult& r = results[i];
      const double js = t0 + r.queue_seconds;
      const int tid = static_cast<int>(i) + 1;
      const int job = tr.add("serve.job", r.spec.id, sp.id(), tid, js, js + r.run_seconds);
      double s = js;
      const std::pair<const char*, double> stages[3] = {
          {"place.place_circuit", r.place_seconds},
          {"replicate.run_replication_engine", r.replicate_seconds},
          {"route.evaluate_routed", r.route_seconds}};
      for (const auto& [name, d] : stages) {
        if (d <= 0) continue;
        tr.add(name, r.spec.id, job, tid, s, s + d);
        s += d;
      }
    }
    return wall;
  };

  auto outcome_of = [](const JobResult& r) {
    JobOutcome o;
    o.id = r.spec.id;
    o.done = r.state == JobState::kDone && r.has_metrics;
    o.error = r.error.empty() ? job_state_name(r.state) : r.error;
    o.m = r.metrics;
    o.engine_ran = r.engine.ran;
    o.iterations = r.engine.iterations;
    o.replicated = r.engine.total_replicated;
    o.unified = r.engine.total_unified;
    o.region_truncations = r.engine.region_truncations;
    o.engine_final_critical = r.engine.final_critical;
    o.engine_lower_bound = r.engine.lower_bound;
    o.latency_s = r.queue_seconds + r.run_seconds;
    o.place_s = r.place_seconds;
    o.replicate_s = r.replicate_seconds;
    o.route_s = r.route_seconds;
    o.audit_checks = r.audit_checks;
    return o;
  };

  Tracer off(false);
  // One untimed batch first: a serving process pays thread start-up, cold
  // caches and first-touch page faults once, not on every batch.
  {
    std::vector<JobResult> warm;
    run_batch(warm, off);
  }
  std::vector<std::vector<JobResult>> batches;
  std::vector<double> batch_rss;
  {
    RssSampler sampler;
    measure_loop(
        a.seconds, rep.flow_s,
        [&] {
          batches.emplace_back();
          const double wall = run_batch(batches.back(), off);
          batch_rss.push_back(sampler.take_max_mib());
          return wall;
        },
        [&] { measure_setup(rep.setup_s, setup, false); });
  }
  std::printf("batch peak rss (MiB):");
  for (const double r : batch_rss) std::printf(" %.1f", r);
  std::printf("\n");
  // Which jobs overlap, and so a batch's peak, varies from batch to batch;
  // the median batch is the steady figure.
  rep.peak_rss_mib = median(batch_rss);

  // Checks: every job of every batch must be DONE and equal to the same job
  // of the last batch; the last batch's jobs are checked in full from their
  // final (routed) checkpoints.
  std::map<std::string, std::size_t> pos;  // job id -> index in mix
  for (std::size_t i = 0; i < mix.size(); ++i) pos[mix[i].id] = i;
  const std::vector<JobResult>& last = batches.back();
  for (const auto& b : batches) {
    for (std::size_t i = 0; i < b.size(); ++i) {
      ++rep.attempted;
      const JobOutcome o = outcome_of(b[i]);
      rep.job_latency_s.push_back(o.latency_s);
      if (!o.done) {
        ++rep.failed;
        fail(rep, b[i].spec.id + ": " + o.error);
      } else if (&b != &last && !(quality_of(o) == quality_of(outcome_of(last[i])))) {
        ++rep.failed;
        fail(rep, b[i].spec.id + ": repeat differs from the last batch");
      }
    }
  }
  for (const JobResult& r : last) {
    JobOutcome o = outcome_of(r);
    o.key = pinned_key(mix[pos.at(r.spec.id)], true);
    rep.last.push_back(o);
    rep.final_lb.push_back(0);
    if (!o.done) continue;  // counted above
    std::string err;
    try {
      FlowSnapshot snap = read_snapshot_file((ckpt / (r.spec.id + ".ckpt")).string());
      if (snap.stage != FlowStage::kRouted || !snap.nl || !snap.pl) {
        err = "final checkpoint is not at the routed stage";
      } else {
        Circuit fin;
        fin.grid = std::move(snap.grid);
        fin.nl = std::move(snap.nl);
        fin.pl = std::move(snap.pl);
        err = check_job(goldens[pos.at(r.spec.id)], fin, o, a.seed,
                        &rep.final_lb.back());
      }
    } catch (const std::exception& e) {
      err = std::string("cannot read final checkpoint: ") + e.what();
    }
    if (!err.empty()) {
      ++rep.failed;
      fail(rep, r.spec.id + ": " + err);
    }
    if (a.gen_seed == 7) {
      if (std::string e = check_pinned(rep.last.back().key, quality_of(o)); !e.empty())
        fail(rep, e);
    }
  }
  rep.jobs_ok = rep.attempted - rep.failed;
  rep.busy_flow_s = sum(rep.flow_s);

  if (t.on()) {
    Metrics& L = rep.layers;
    {
      ScopedSpan sp(t, "gen.generate_circuit");
      for (const JobDef& j : mix) generate(j, a.gen_seed);
      L["gen.s"] = sp.elapsed();
    }
    // Concurrent jobs share the process-global counters, so they are read
    // per batch only.
    const ServiceStats before = svc->stats();
    std::vector<JobResult> traced;
    reset_counters();
    const double wall = run_batch(traced, t);
    for (const auto& [k, v] : read_counters()) L[k] = v;
    const ServiceStats after = svc->stats();
    std::vector<JobOutcome> outs;
    std::vector<double> waits;
    double busy = 0;
    for (const JobResult& r : traced) {
      outs.push_back(outcome_of(r));
      waits.push_back(r.queue_seconds);
      busy += r.run_seconds;
    }
    add_job_layers(outs, L);
    L["serve.queue_wait_s"] = median(waits);
    L["serve.busy_s"] = busy;
    L["serve.concurrency"] = busy / wall;
    L["serve.checkpoints"] =
        static_cast<double>(after.checkpoints_written - before.checkpoints_written);
    L["serve.checkpoint_bytes"] =
        static_cast<double>(after.checkpoint_bytes - before.checkpoint_bytes);
    L["serve.retries"] = static_cast<double>(after.jobs_retried - before.jobs_retried);
    L["trace.overhead_s"] = wall - median(rep.flow_s);

    // Probe: one stage-level audit battery on the first engine job's final
    // circuit (the service runs these batteries inside its jobs).
    const FlowConfig cfg = flow_config();
    for (std::size_t i = 0; i < mix.size(); ++i) {
      if (mix[i].variant == "none") continue;
      const FlowSnapshot snap =
          read_snapshot_file((ckpt / (mix[i].id + ".ckpt")).string());
      const Auditor auditor{AuditOptions{}};
      ScopedSpan sp(t, "audit.audit_stage", mix[i].id);
      const AuditReport r = auditor.audit_stage("replicate", *snap.nl, snap.pl.get(),
                                                &cfg.delay, &goldens[i]);
      L["audit.stage_s"] = sp.elapsed();
      t.arg(sp.id(), "checks_run", r.checks_run);
      break;
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(ckpt, ec);
}

// ---- report ------------------------------------------------------------------------

void print_report(const Args& a, const RunReport& rep, const Tracer& t) {
  std::vector<double> winf_ratio, wls_ratio;
  double wl = 0, wmin = 0;
  for (std::size_t i = 0; i < rep.last.size(); ++i) {
    const JobOutcome& o = rep.last[i];
    wl += static_cast<double>(o.m.wirelength);
    wmin += o.m.wmin;
    if (rep.final_lb[i] > 0) {
      winf_ratio.push_back(o.m.crit_winf / rep.final_lb[i]);
      wls_ratio.push_back(o.m.crit_wls / rep.final_lb[i]);
    }
    std::printf("job %s [%s]: crit_winf_ns %.2f ns | crit_wls_ns %.2f ns | wmin %d tracks "
                "| wirelength %lld segments | monotone bound %.2f ns | iterations %d "
                "| place %.3f s, replicate %.3f s, route %.3f s, latency %.3f s\n",
                o.id.c_str(), o.key.c_str(), o.m.crit_winf, o.m.crit_wls, o.m.wmin,
                static_cast<long long>(o.m.wirelength), rep.final_lb[i], o.iterations,
                o.place_s, o.replicate_s, o.route_s, o.latency_s);
  }

  struct M {
    std::string name;
    double v;
    const char* unit;
  };
  std::vector<M> ms;
  if (!a.trace) {
    ms = {
        {"setup_s", median(rep.setup_s), "s"},
        {"flow_s", median(rep.flow_s), "s"},
        {"jobs_per_s", rep.busy_flow_s > 0 ? rep.jobs_ok / rep.busy_flow_s : 0, "jobs/s"},
        {"job_p50_s", median(rep.job_latency_s), "s"},
        {"peak_rss_mib", rep.peak_rss_mib, "MiB"},
        {"wirelength", wl, "segments"},
        {"wmin", wmin, "tracks"},
        {"crit_winf_over_lb", geomean_of(winf_ratio), "ratio"},
        {"crit_wls_over_lb", geomean_of(wls_ratio), "ratio"},
    };
    std::printf("samples: %zu flow(s), %zu job latencies, %zu set-ups; flow_s:",
                rep.flow_s.size(), rep.job_latency_s.size(), rep.setup_s.size());
    for (const double d : rep.flow_s) std::printf(" %.3f", d);
    std::printf("\n");
  } else {
    for (const auto& [name, unit] : layer_metric_units()) {
      const auto it = rep.layers.find(name);
      ms.push_back({name, it == rep.layers.end() ? 0.0 : it->second, unit});
    }
    std::filesystem::create_directories(a.out_dir);
    const std::string base = a.out_dir + "/" + a.workload + "-g" +
                             std::to_string(a.gen_seed) + "-s" + std::to_string(a.seed);
    t.write_chrome(base + ".trace.json");
    std::ofstream sf(base + ".selftime.json");
    sf << "{";
    bool first = true;
    std::printf("%-36s %6s %12s %12s\n", "span", "calls", "total_s", "self_s");
    for (const auto& [name, st] : t.self_times()) {
      std::printf("%-36s %6d %12.6f %12.6f\n", name.c_str(), st.count, st.total_s,
                  st.self_s);
      sf << (first ? "" : ",") << "\n  " << json_str(name) << ":{\"calls\":" << st.count
         << ",\"total_s\":" << fmt_g(st.total_s) << ",\"self_s\":" << fmt_g(st.self_s)
         << "}";
      first = false;
    }
    sf << "\n}\n";
    std::printf("trace: %s.trace.json (%zu spans), self time: %s.selftime.json\n",
                base.c_str(), t.spans().size(), base.c_str());
  }
  for (const M& m : ms) std::printf("%-32s %.6g %s\n", m.name.c_str(), m.v, m.unit);

  const bool correct = rep.failures.empty();
  std::string line = "{\"correct\":" + std::string(correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(rep.attempted) +
                     ",\"failed\":" + std::to_string(rep.failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < ms.size(); ++i)
    line += (i ? "," : "") + json_str(ms[i].name) + ":{\"value\":" + fmt_g(ms[i].v) +
            ",\"unit\":" + json_str(ms[i].unit) + "}";
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int run(const Args& a) {
  RunReport rep;
  Tracer t(a.trace);
  if (a.workload == "lex3_serial" || a.workload == "lex3_parallel" ||
      a.workload == "route_fullsize") {
    JobDef j;
    j.circuit = "apex2";
    if (a.workload == "route_fullsize") {
      j.scale = 1.0;
      j.variant = "none";
    } else {
      j.scale = 0.15;
      j.variant = "lex3";
      j.engine_threads = a.workload == "lex3_parallel" ? a.threads : 1;
    }
    j.id = a.workload;
    run_single(a, j, rep, t);
  } else if (a.workload == "serve_batch") {
    run_serve(a, rep, t);
  } else {
    usage("unknown workload '" + a.workload + "'");
  }
  print_report(a, rep, t);
  return rep.failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace repro

int main(int argc, char** argv) {
  const repro::Args a = repro::parse_args(argc, argv);
  try {
    return repro::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flow_bench: %s\n", e.what());
    return 2;
  }
}
