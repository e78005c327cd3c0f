// Scale benchmark: the embedding-region guard (DESIGN.md §9) across the full
// generate -> place -> replicate -> route pipeline.
//
// Two configurations run the same circuits end to end:
//   baseline  no embedding-region guard (max_region_points = 0): a
//             chip-spanning tree pays a chip-sized DP.
//   arena     the defaults plus the region guard at 4096 points.
//
// Both use the generation-stamped flat scratch arenas and the incrementally
// maintained net bounding boxes, the only implementations there are. The
// committed BENCH_scale.json predates this: its `baseline` rows also ran the
// unordered_map SPT/monotone paths and the per-move bbox recompute, and its
// `legacy` rows (the map layouts with the guard on, bit-identical to
// `arena`) came from a configuration that no longer exists.
//
// The benchmark records per-stage wall time and peak RSS for a sweep of
// sizes, with the arena configuration extended beyond the largest size the
// baseline can afford, and emits BENCH_scale.json.
//
// Gates:
//   full run    aggregate place+replicate speedup of arena over baseline
//               >= 2x at the largest common size.
//   --smoke     smallest size only. With --reference <committed
//               BENCH_scale.json>, the measured speedup must stay within
//               10% of the committed smoke_gate speedup and the arena
//               config's arena high-water bytes within 10% of the committed
//               value. Both are machine-insensitive: the speedup is a ratio
//               (a slower machine shifts both configs equally) and
//               arena_bytes is allocator accounting, not kernel RSS
//               (DESIGN.md §9: RSS is telemetry, never a pinned number).

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gen/circuit_gen.h"
#include "place/annealer.h"
#include "replicate/engine.h"
#include "route/router.h"
#include "util/mem.h"
#include "util/stats.h"

namespace repro {
namespace {

// ---- fingerprints (FNV-1a 64) ---------------------------------------------

std::uint64_t fnv_init() { return 1469598103934665603ull; }
void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
}

std::uint64_t netlist_fingerprint(const Netlist& nl) {
  std::uint64_t h = fnv_init();
  for (CellId c : nl.live_cell_ids()) {
    const Cell& cell = nl.cell(c);
    mix(h, static_cast<std::uint64_t>(cell.kind));
    mix(h, cell.function);
    mix(h, cell.registered ? 1 : 0);
    mix(h, cell.output.valid() ? cell.output.value() : static_cast<std::uint64_t>(-7));
    for (NetId n : cell.inputs)
      mix(h, n.valid() ? n.value() : static_cast<std::uint64_t>(-7));
  }
  for (NetId n : nl.live_net_ids()) {
    const Net& net = nl.net(n);
    mix(h, net.driver.value());
    for (const Sink& s : net.sinks) {
      mix(h, s.cell.value());
      mix(h, static_cast<std::uint64_t>(s.pin));
    }
  }
  return h;
}

std::uint64_t placement_fingerprint(const Netlist& nl, const Placement& pl) {
  std::uint64_t h = fnv_init();
  for (CellId c : nl.live_cell_ids()) {
    Point p = pl.location(c);
    mix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(p.x)));
    mix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(p.y)));
  }
  return h;
}

// ---- bench ----------------------------------------------------------------

struct Config {
  const char* name;
  int region_points;      ///< EngineOptions::max_region_points
};
constexpr int kRegionGuard = 4096;
constexpr Config kConfigs[] = {{"baseline", 0}, {"arena", kRegionGuard}};

struct StageResult {
  double seconds = 0;
  std::uint64_t peak_rss = 0;
};

struct ConfigResult {
  std::string config;
  StageResult place, replicate, route;
  double final_critical = 0;
  double routed_delay = 0;
  std::int64_t wirelength = 0;
  std::uint64_t netlist_fp = 0;
  std::uint64_t placement_fp = 0;
  std::uint64_t history_fp = 0;
  std::uint64_t arena_bytes = 0;
  std::uint64_t scratch_reuses = 0;
  std::uint64_t scratch_growths = 0;
  double toggled_seconds() const { return place.seconds + replicate.seconds; }
};

struct SizeResult {
  int num_logic = 0;
  std::size_t cells = 0;
  double gen_seconds = 0;
  std::uint64_t gen_peak_rss = 0;
  std::vector<ConfigResult> configs;
};

/// The clma profile scaled to the requested LUT count keeps Table I's
/// density/I-O shape at every size (the generator's structural tests pin the
/// same profile at >= 1e5 cells).
CircuitSpec spec_for_size(int num_logic, std::uint64_t seed) {
  const McncCircuit& clma = mcnc_suite().back();
  return spec_for(clma, static_cast<double>(num_logic) / clma.luts, seed);
}

ConfigResult run_config(const Netlist& gen_nl, const FpgaGrid& grid,
                        const Config& c, std::uint64_t seed) {
  const LinearDelayModel dm;
  ConfigResult out;
  out.config = c.name;
  arena_counters().reset();

  Netlist nl = gen_nl;

  // ---- place
  reset_peak_rss();
  double t0 = bench::now_seconds();
  AnnealerOptions aopt;
  aopt.inner_num = 0.1;  // bench knob: keeps 1e5-cell anneals in minutes
  aopt.seed = seed * 977 + 13;
  Placement pl = anneal_placement(nl, grid, dm, aopt);
  out.place.seconds = bench::now_seconds() - t0;
  out.place.peak_rss = peak_rss_bytes();

  // ---- replicate
  reset_peak_rss();
  t0 = bench::now_seconds();
  EngineOptions eopt;
  eopt.variant = EmbedVariant::kLex3;
  eopt.max_iterations = 4;  // bench knob: bounded optimization effort
  eopt.max_stagnant_iterations = 4;
  // Bench knobs (same for every config): modest trees and short Pareto
  // lists bound the embedding DP per call. The region guard is what the
  // configs compare, so it is off in the baseline.
  eopt.max_tree_internal = 64;
  eopt.max_labels = 8;
  eopt.max_region_points = c.region_points;
  eopt.num_threads = 1;
  EngineResult r = run_replication_engine(nl, pl, dm, eopt);
  out.replicate.seconds = bench::now_seconds() - t0;
  out.replicate.peak_rss = peak_rss_bytes();
  out.final_critical = r.final_critical;
  out.history_fp = fnv_init();
  for (const IterationStats& it : r.history) {
    std::uint64_t bits;
    std::memcpy(&bits, &it.critical_delay, sizeof(bits));
    mix(out.history_fp, static_cast<std::uint64_t>(it.iteration));
    mix(out.history_fp, bits);
    mix(out.history_fp, static_cast<std::uint64_t>(it.replicated_cum));
    mix(out.history_fp, static_cast<std::uint64_t>(it.unified_cum));
  }

  // ---- route (W_inf; identical code in both configs, timed for the
  // end-to-end trajectory)
  reset_peak_rss();
  t0 = bench::now_seconds();
  RouterOptions ropt;
  RoutingResult rr = route(nl, pl, ropt);
  out.route.seconds = bench::now_seconds() - t0;
  out.route.peak_rss = peak_rss_bytes();
  out.routed_delay = routed_critical_delay(nl, pl, dm, rr);
  out.wirelength = rr.total_wirelength;

  out.netlist_fp = netlist_fingerprint(nl);
  out.placement_fp = placement_fingerprint(nl, pl);
  const ArenaCounters& ac = arena_counters();
  out.arena_bytes = ac.total_bytes();
  out.scratch_reuses = ac.scratch_reuses.load();
  out.scratch_growths = ac.scratch_growths.load();
  return out;
}

const ConfigResult* find_config(const SizeResult& sr, const char* name) {
  for (const ConfigResult& c : sr.configs)
    if (c.config == name) return &c;
  return nullptr;
}

/// Minimal token scan for `"key": <number>` in a committed JSON file.
bool json_number_after(const std::string& text, const char* key, double* out) {
  std::string needle = std::string("\"") + key + "\":";
  auto pos = text.find(needle);
  if (pos == std::string::npos) return false;
  return std::sscanf(text.c_str() + pos + needle.size(), " %lf", out) == 1;
}

}  // namespace
}  // namespace repro

int main(int argc, char** argv) {
  using namespace repro;
  bool smoke = false;
  std::string reference;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--smoke")) {
      smoke = true;
    } else if (!std::strcmp(argv[i], "--reference") && i + 1 < argc) {
      reference = argv[++i];
    } else {
      std::fprintf(stderr, "usage: microbench_scale [--smoke] [--reference BENCH_scale.json]\n");
      return 2;
    }
  }

  const std::uint64_t seed = 7;
  // Sizes both configs run; the arena config alone extends the trajectory.
  const std::vector<int> common_sizes =
      smoke ? std::vector<int>{2000} : std::vector<int>{2000, 10000, 30000};
  const std::vector<int> arena_only_sizes =
      smoke ? std::vector<int>{} : std::vector<int>{100000};

  std::vector<SizeResult> results;
  int failures = 0;

  auto run_size = [&](int num_logic, bool with_baseline) {
    SizeResult sr;
    sr.num_logic = num_logic;
    reset_peak_rss();
    const double t0 = bench::now_seconds();
    Netlist nl = generate_circuit(spec_for_size(num_logic, seed));
    sr.gen_seconds = bench::now_seconds() - t0;
    sr.gen_peak_rss = peak_rss_bytes();
    sr.cells = nl.num_live_cells();
    FpgaGrid grid(FpgaGrid::min_grid_for(
        nl.num_logic(), nl.num_input_pads() + nl.num_output_pads()));
    for (const Config& c : kConfigs) {
      if (c.region_points == 0 && !with_baseline) continue;
      sr.configs.push_back(run_config(nl, grid, c, seed));
      const ConfigResult& cr = sr.configs.back();
      std::printf(
          "n=%6d cells=%6zu %-8s place=%7.2fs repl=%7.2fs route=%7.2fs "
          "rss=%5.0f/%5.0f/%5.0f MiB crit=%.4f wl=%lld nl_fp=%016llx\n",
          num_logic, sr.cells, cr.config.c_str(), cr.place.seconds,
          cr.replicate.seconds, cr.route.seconds,
          cr.place.peak_rss / 1048576.0, cr.replicate.peak_rss / 1048576.0,
          cr.route.peak_rss / 1048576.0, cr.final_critical,
          static_cast<long long>(cr.wirelength),
          static_cast<unsigned long long>(cr.netlist_fp));
      std::fflush(stdout);
    }
    results.push_back(std::move(sr));
  };

  for (int n : common_sizes) run_size(n, true);
  for (int n : arena_only_sizes) run_size(n, false);

  // Aggregate gate: place+replicate speedup at the largest common size (the
  // toggled stages; gen and route run identical code in both configs).
  const SizeResult& largest = results[common_sizes.size() - 1];
  const ConfigResult* lbase = find_config(largest, "baseline");
  const ConfigResult* larena = find_config(largest, "arena");
  const double speedup = lbase->toggled_seconds() /
                         std::max(larena->toggled_seconds(), 1e-9);
  std::printf("largest common size %d: place+replicate %.2fs -> %.2fs (%.2fx)\n",
              largest.num_logic, lbase->toggled_seconds(),
              larena->toggled_seconds(), speedup);
  if (!smoke && speedup < 2.0) {
    std::fprintf(stderr, "FAIL: aggregate speedup %.2fx < 2x at n=%d\n", speedup,
                 largest.num_logic);
    ++failures;
  }

  // Smoke-size values for the CI regression gate (always from the smallest
  // size, which both full and smoke runs execute).
  const SizeResult& smallest = results[0];
  const ConfigResult* sarena = find_config(smallest, "arena");
  const double smoke_speedup = find_config(smallest, "baseline")->toggled_seconds() /
                               std::max(sarena->toggled_seconds(), 1e-9);
  // Peak RSS is machine/allocator-dependent telemetry (DESIGN.md §9), so the
  // memory gate pins the arena high-water counters instead: deterministic
  // byte accounting of every arena/scratch allocation in the run.
  const std::uint64_t smoke_arena = sarena->arena_bytes;

  if (!reference.empty()) {
    FILE* f = std::fopen(reference.c_str(), "rb");
    if (!f) {
      std::fprintf(stderr, "FAIL: cannot read reference %s\n", reference.c_str());
      ++failures;
    } else {
      std::string text;
      char buf[4096];
      for (std::size_t got; (got = std::fread(buf, 1, sizeof(buf), f)) > 0;)
        text.append(buf, got);
      std::fclose(f);
      double ref_speedup = 0, ref_arena = 0;
      if (!json_number_after(text, "smoke_speedup", &ref_speedup) ||
          !json_number_after(text, "smoke_arena_bytes", &ref_arena)) {
        std::fprintf(stderr, "FAIL: reference %s lacks smoke_gate fields\n",
                     reference.c_str());
        ++failures;
      } else {
        // Ratios, not seconds: a slower machine shifts both configs equally.
        if (smoke_speedup < ref_speedup / 1.1) {
          std::fprintf(stderr,
                       "FAIL: smoke speedup %.2fx fell >10%% below committed "
                       "%.2fx — the arena layout regressed\n",
                       smoke_speedup, ref_speedup);
          ++failures;
        }
        if (static_cast<double>(smoke_arena) > ref_arena * 1.1) {
          std::fprintf(stderr,
                       "FAIL: smoke arena high-water %.1f MiB exceeds "
                       "committed %.1f MiB by >10%%\n",
                       smoke_arena / 1048576.0, ref_arena / 1048576.0);
          ++failures;
        }
        std::printf("smoke gate vs %s: speedup %.2fx (committed %.2fx), "
                    "arena %.1f MiB (committed %.1f MiB)\n",
                    reference.c_str(), smoke_speedup, ref_speedup,
                    smoke_arena / 1048576.0, ref_arena / 1048576.0);
      }
    }
  }

  FILE* out = std::fopen("BENCH_scale.json", "w");
  if (!out) {
    std::fprintf(stderr, "cannot open BENCH_scale.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  bench::emit_summary(out, "scale", speedup);
  std::fprintf(out,
               "  \"benchmark\": \"scale\",\n  \"smoke\": %s,\n"
               "  \"largest_common_size\": %d,\n"
               "  \"aggregate_place_replicate_speedup\": %.2f,\n"
               "  \"smoke_gate\": {\"smoke_speedup\": %.2f, "
               "\"smoke_arena_bytes\": %llu},\n"
               "  \"note\": \"baseline = no embedding-region guard "
               "(max_region_points=0); rss/seconds are machine-dependent "
               "telemetry, the CI gate compares the speedup ratio and "
               "deterministic arena high-water bytes\",\n  \"sizes\": [\n",
               smoke ? "true" : "false", largest.num_logic, speedup,
               smoke_speedup, static_cast<unsigned long long>(smoke_arena));
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SizeResult& sr = results[i];
    std::fprintf(out,
                 "    {\"num_logic\": %d, \"cells\": %zu, "
                 "\"gen_seconds\": %.3f, \"gen_peak_rss_bytes\": %llu, "
                 "\"configs\": [\n",
                 sr.num_logic, sr.cells, sr.gen_seconds,
                 static_cast<unsigned long long>(sr.gen_peak_rss));
    for (std::size_t j = 0; j < sr.configs.size(); ++j) {
      const ConfigResult& c = sr.configs[j];
      std::fprintf(
          out,
          "      {\"config\": \"%s\",\n"
          "       \"place_seconds\": %.3f, \"replicate_seconds\": %.3f, "
          "\"route_seconds\": %.3f,\n"
          "       \"place_peak_rss_bytes\": %llu, "
          "\"replicate_peak_rss_bytes\": %llu, \"route_peak_rss_bytes\": %llu,\n"
          "       \"arena_bytes\": %llu, \"scratch_reuses\": %llu, "
          "\"scratch_growths\": %llu,\n"
          "       \"final_critical_ns\": %.6f, \"routed_delay_ns\": %.6f, "
          "\"wirelength\": %lld,\n"
          "       \"netlist_fp\": \"%016llx\", \"placement_fp\": \"%016llx\", "
          "\"history_fp\": \"%016llx\"}%s\n",
          c.config.c_str(), c.place.seconds, c.replicate.seconds,
          c.route.seconds, static_cast<unsigned long long>(c.place.peak_rss),
          static_cast<unsigned long long>(c.replicate.peak_rss),
          static_cast<unsigned long long>(c.route.peak_rss),
          static_cast<unsigned long long>(c.arena_bytes),
          static_cast<unsigned long long>(c.scratch_reuses),
          static_cast<unsigned long long>(c.scratch_growths), c.final_critical,
          c.routed_delay, static_cast<long long>(c.wirelength),
          static_cast<unsigned long long>(c.netlist_fp),
          static_cast<unsigned long long>(c.placement_fp),
          static_cast<unsigned long long>(c.history_fp),
          j + 1 < sr.configs.size() ? "," : "");
    }
    std::fprintf(out, "    ]}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);

  if (failures) {
    std::fprintf(stderr, "%d gate failure(s)\n", failures);
    return 1;
  }
  std::printf("all gates passed\n");
  return 0;
}
