// Microbenchmark: the PathFinder router's work counters
// (docs/ALGORITHMS.md §12).
//
// Routes placed generated circuits with the default router (A* expansion,
// incremental rip-up, warm-started W_min search, stall abort) and records
// hardware-independent work: maze nodes expanded and heap operations during
// the W_min binary search and at the low-stress width. Every route runs
// with the occupancy self-check on. Gates:
//   - plausible counters (some expansion; heap pushes >= pops)
//   - bit-identical results across two runs (determinism)
// --smoke runs the smallest circuit only so CI stays fast.
//
// Emits BENCH_router.json in the working directory. The committed copy at
// the repository root predates this form: its baseline/astar/incr columns
// and its expansion-reduction headline came from router configurations
// that no longer exist.

#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.h"
#include "gen/circuit_gen.h"
#include "place/annealer.h"
#include "route/router.h"
#include "timing/timing_graph.h"
#include "util/rng.h"

namespace repro {
namespace {

RouterOptions bench_options() {
  RouterOptions opt;
  opt.self_check = true;
  return opt;
}

struct Fixture {
  Netlist nl;
  FpgaGrid grid;
  LinearDelayModel dm;
  Placement pl;

  static Netlist make(int num_logic, std::uint64_t seed) {
    CircuitSpec spec;
    spec.num_logic = num_logic;
    spec.num_inputs = 8;
    spec.num_outputs = 8;
    spec.registered_fraction = 0.2;
    spec.depth = 6;
    spec.seed = seed;
    return generate_circuit(spec);
  }

  Fixture(int num_logic, std::uint64_t seed)
      : nl(make(num_logic, seed)),
        grid(FpgaGrid::min_grid_for(nl.num_logic(),
                                    nl.num_input_pads() + nl.num_output_pads())),
        pl([&] {
          Rng rng(seed * 3 + 1);
          return random_placement(nl, grid, rng);
        }()) {}
};

struct CircuitResult {
  int num_logic = 0;
  std::uint64_t seed = 0;
  int wmin = 0;
  std::uint64_t wmin_expansions = 0;
  std::uint64_t wmin_pushes = 0;
  std::uint64_t wmin_pops = 0;
  int wmin_probes = 0;
  std::int64_t inf_wirelength = 0;
  std::int64_t ls_wirelength = 0;
  double inf_delay = 0;
  double ls_delay = 0;
  std::uint64_t ls_expansions = 0;
  int ls_passes = 0;
};

CircuitResult run_circuit(const Fixture& f) {
  const RouterOptions opt = bench_options();
  CircuitResult out;

  RoutingResult inf = route(f.nl, f.pl, opt);
  out.inf_wirelength = inf.total_wirelength;
  out.inf_delay = routed_critical_delay(f.nl, f.pl, f.dm, inf);

  WminSearchStats ws;
  out.wmin = find_min_channel_width(f.nl, f.pl, opt, &ws);
  out.wmin_expansions = ws.nodes_expanded;
  out.wmin_pushes = ws.heap_pushes;
  out.wmin_pops = ws.heap_pops;
  out.wmin_probes = static_cast<int>(ws.probes.size());

  RouterOptions ls = opt;
  ls.channel_width = (out.wmin * 12 + 9) / 10;  // ceil(1.2 * wmin)
  RoutingResult rls = route(f.nl, f.pl, ls);
  out.ls_wirelength = rls.total_wirelength;
  out.ls_delay = routed_critical_delay(f.nl, f.pl, f.dm, rls);
  out.ls_expansions = rls.nodes_expanded;
  out.ls_passes = rls.iterations;
  return out;
}

/// Determinism gate: a second run must produce bit-identical results (same
/// W_min, identical connection lengths and pass stats at the low-stress
/// width).
bool check_deterministic(const Fixture& f) {
  const RouterOptions opt = bench_options();
  WminSearchStats ws1, ws2;
  const int w1 = find_min_channel_width(f.nl, f.pl, opt, &ws1);
  const int w2 = find_min_channel_width(f.nl, f.pl, opt, &ws2);
  if (w1 != w2 || ws1.nodes_expanded != ws2.nodes_expanded) return false;
  RouterOptions ls = opt;
  ls.channel_width = (w1 * 12 + 9) / 10;
  RoutingResult a = route(f.nl, f.pl, ls);
  RoutingResult b = route(f.nl, f.pl, ls);
  return a.success == b.success && a.total_wirelength == b.total_wirelength &&
         a.connection_length == b.connection_length && a.pass_stats == b.pass_stats;
}

}  // namespace
}  // namespace repro

int main(int argc, char** argv) {
  using namespace repro;
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (!std::strcmp(argv[i], "--smoke")) smoke = true;

  const std::vector<int> sizes = smoke ? std::vector<int>{60}
                                       : std::vector<int>{60, 120, 200};
  const std::vector<std::uint64_t> seeds =
      smoke ? std::vector<std::uint64_t>{1} : std::vector<std::uint64_t>{1, 2};

  std::vector<CircuitResult> results;
  int failures = 0;
  std::uint64_t total_exp = 0;
  for (int num_logic : sizes) {
    for (std::uint64_t seed : seeds) {
      Fixture f(num_logic, seed);
      CircuitResult c = run_circuit(f);
      c.num_logic = num_logic;
      c.seed = seed;
      total_exp += c.wmin_expansions;
      std::printf("n=%3d s=%llu wmin=%d wmin_exp=%llu probes=%d "
                  "inf_wl=%lld ls_wl=%lld inf_d=%.3f ls_d=%.3f\n",
                  num_logic, static_cast<unsigned long long>(seed), c.wmin,
                  static_cast<unsigned long long>(c.wmin_expansions),
                  c.wmin_probes, static_cast<long long>(c.inf_wirelength),
                  static_cast<long long>(c.ls_wirelength), c.inf_delay,
                  c.ls_delay);
      if (c.wmin_expansions == 0 || c.wmin_pushes < c.wmin_pops) {
        std::fprintf(stderr, "FAIL n=%d s=%llu: implausible counters "
                     "(exp=%llu pushes=%llu pops=%llu)\n",
                     num_logic, static_cast<unsigned long long>(seed),
                     static_cast<unsigned long long>(c.wmin_expansions),
                     static_cast<unsigned long long>(c.wmin_pushes),
                     static_cast<unsigned long long>(c.wmin_pops));
        ++failures;
      }
      if (!check_deterministic(f)) {
        std::fprintf(stderr, "FAIL n=%d s=%llu: non-deterministic routing\n",
                     num_logic, static_cast<unsigned long long>(seed));
        ++failures;
      }
      results.push_back(c);
    }
  }
  std::printf("W_min search expansions: %llu over %zu circuits\n",
              static_cast<unsigned long long>(total_exp), results.size());

  FILE* out = std::fopen("BENCH_router.json", "w");
  if (!out) {
    std::fprintf(stderr, "cannot open BENCH_router.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  // One configuration, so no ratio to report: the headline is 1.0.
  bench::emit_summary(out, "router", 1.0);
  std::fprintf(out,
               "  \"benchmark\": \"router\",\n  \"smoke\": %s,\n"
               "  \"wmin_nodes_expanded_total\": %llu,\n"
               "  \"note\": \"all counters are hardware-independent work "
               "(maze nodes expanded, heap ops) of the default router\",\n"
               "  \"circuits\": [\n",
               smoke ? "true" : "false",
               static_cast<unsigned long long>(total_exp));
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CircuitResult& c = results[i];
    std::fprintf(
        out,
        "    {\"num_logic\": %d, \"seed\": %llu, \"wmin\": %d, "
        "\"wmin_probes\": %d,\n"
        "     \"wmin_nodes_expanded\": %llu, \"wmin_heap_pushes\": %llu, "
        "\"wmin_heap_pops\": %llu,\n"
        "     \"inf_wirelength\": %lld, \"inf_delay\": %.6f,\n"
        "     \"ls_wirelength\": %lld, \"ls_delay\": %.6f, "
        "\"ls_nodes_expanded\": %llu, \"ls_passes\": %d}%s\n",
        c.num_logic, static_cast<unsigned long long>(c.seed), c.wmin,
        c.wmin_probes, static_cast<unsigned long long>(c.wmin_expansions),
        static_cast<unsigned long long>(c.wmin_pushes),
        static_cast<unsigned long long>(c.wmin_pops),
        static_cast<long long>(c.inf_wirelength), c.inf_delay,
        static_cast<long long>(c.ls_wirelength), c.ls_delay,
        static_cast<unsigned long long>(c.ls_expansions), c.ls_passes,
        i + 1 < results.size() ? "," : "");
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
