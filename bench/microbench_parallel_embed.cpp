// Microbenchmark: replication-engine wall clock vs thread count for the
// subtree-parallel embedder (docs/ALGORITHMS.md §11).
//
// For each circuit size the engine runs the SAME bounded optimization at
// 1/2/4 threads. The final critical path (bitwise), the iteration count and
// the replicated/unified totals are cross-checked against the 1-thread run:
// the trajectory is thread-count-invariant by design, so any divergence is a
// bug, not noise. Emits BENCH_parallel_embed.json in the working directory.
//
// Scaling caveat: wall-clock speedup requires hardware parallelism. The JSON
// records hardware_threads so a run on fewer cores than threads is
// recognizable.

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "gen/circuit_gen.h"
#include "place/annealer.h"
#include "replicate/engine.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace repro {
namespace {

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

struct Fixture {
  Netlist nl;
  FpgaGrid grid;
  LinearDelayModel dm;
  Placement pl;

  static Netlist make(int num_logic, std::uint64_t seed) {
    CircuitSpec spec;
    spec.num_logic = num_logic;
    spec.num_inputs = 16;
    spec.num_outputs = 16;
    spec.registered_fraction = 0.25;
    spec.depth = 9;
    spec.seed = seed;
    return generate_circuit(spec);
  }

  Fixture(int num_logic, std::uint64_t seed)
      : nl(make(num_logic, seed)),
        grid(FpgaGrid::min_grid_for(nl.num_logic() + 64,
                                    nl.num_input_pads() + nl.num_output_pads())),
        pl([&] {
          Rng rng(seed * 31 + 5);
          return random_placement(nl, grid, rng);
        }()) {}
};

struct ThreadResult {
  int threads = 0;
  double seconds = 0;
  double speedup = 0;
  double final_critical = 0;
  std::size_t iterations = 0;
  int replicated = 0;
  int unified = 0;

  bool same_trajectory(const ThreadResult& o) const {
    return final_critical == o.final_critical && iterations == o.iterations &&
           replicated == o.replicated && unified == o.unified;
  }
};

struct SizeResult {
  int num_logic = 0;
  std::vector<ThreadResult> per_thread;
};

}  // namespace
}  // namespace repro

int main() {
  using namespace repro;
  const unsigned hw = ThreadPool::hardware_threads();
  std::printf("hardware threads: %u\n", hw);

  const int sizes[] = {200, 800, 3200};
  const int threads_list[] = {1, 2, 4};
  std::vector<SizeResult> results;

  for (int num_logic : sizes) {
    SizeResult sr;
    sr.num_logic = num_logic;
    for (int threads : threads_list) {
      // Fresh fixture per run: the engine mutates its inputs, and an
      // identical starting state is what makes the criticals comparable.
      Fixture f(num_logic, 17);
      EngineOptions opt;
      opt.variant = EmbedVariant::kLex3;
      opt.max_iterations = num_logic >= 3200 ? 30 : 60;
      opt.num_threads = threads;

      const double t0 = now_seconds();
      EngineResult r = run_replication_engine(f.nl, f.pl, f.dm, opt);
      ThreadResult tr;
      tr.threads = threads;
      tr.seconds = now_seconds() - t0;
      tr.final_critical = r.final_critical;
      tr.iterations = r.history.size();
      tr.replicated = r.total_replicated;
      tr.unified = r.total_unified;
      sr.per_thread.push_back(tr);

      // Determinism cross-check against the 1-thread run.
      const ThreadResult& serial = sr.per_thread.front();
      if (!tr.same_trajectory(serial)) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION n=%d threads=%d: crit %a vs %a, "
                     "iters %zu vs %zu, replicated %d vs %d, unified %d vs %d\n",
                     num_logic, threads, tr.final_critical, serial.final_critical,
                     tr.iterations, serial.iterations, tr.replicated,
                     serial.replicated, tr.unified, serial.unified);
        return 1;
      }
    }
    for (ThreadResult& tr : sr.per_thread)
      tr.speedup = sr.per_thread.front().seconds / tr.seconds;
    for (const ThreadResult& tr : sr.per_thread)
      std::printf("n=%5d t=%d  %7.2fs  (%.2fx)  crit=%a  iters=%zu  replicated=%d "
                  "unified=%d\n",
                  sr.num_logic, tr.threads, tr.seconds, tr.speedup, tr.final_critical,
                  tr.iterations, tr.replicated, tr.unified);
    results.push_back(sr);
  }

  FILE* out = std::fopen("BENCH_parallel_embed.json", "w");
  if (!out) {
    std::fprintf(stderr, "cannot open BENCH_parallel_embed.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  bench::emit_summary(out, "parallel_embed",
                      results.back().per_thread.back().speedup);
  std::fprintf(out,
               "  \"benchmark\": \"parallel_embed\",\n"
               "  \"hardware_threads\": %u,\n"
               "  \"note\": \"engine wall time at 1/2/4 threads; trajectory "
               "(final critical path, iterations, replicated/unified) is "
               "bit-identical across thread counts by design; speedup needs "
               "hardware_threads >= threads\",\n"
               "  \"sizes\": [\n",
               hw);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SizeResult& sr = results[i];
    std::fprintf(out, "    {\"num_logic\": %d, \"runs\": [\n", sr.num_logic);
    for (std::size_t j = 0; j < sr.per_thread.size(); ++j) {
      const ThreadResult& tr = sr.per_thread[j];
      std::fprintf(out,
                   "      {\"threads\": %d, \"seconds\": %.3f, \"speedup\": "
                   "%.2f, \"final_critical\": %.6f,\n"
                   "       \"iterations\": %zu, \"replicated\": %d, "
                   "\"unified\": %d}%s\n",
                   tr.threads, tr.seconds, tr.speedup, tr.final_critical,
                   tr.iterations, tr.replicated, tr.unified,
                   j + 1 < sr.per_thread.size() ? "," : "");
    }
    std::fprintf(out, "    ]}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  return 0;
}
