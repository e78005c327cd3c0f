// Subtree-parallel embedding (docs/ALGORITHMS.md §11).
//
// The hard guarantee under test: the optimization trajectory is BIT-IDENTICAL
// for every thread count. num_threads=1 must reproduce the serial engine
// exactly (hard-coded hexfloat goldens below were captured from the serial
// engine before the thread pool existed), and any other thread count must
// reproduce the num_threads=1 run: the embedder's tables do not depend on
// which thread solved which subtree.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "embed/embedder.h"
#include "embed/embedding_graph.h"
#include "embed/fanin_tree.h"
#include "gen/circuit_gen.h"
#include "netlist/sim.h"
#include "place/annealer.h"
#include "replicate/engine.h"
#include "timing/timing_graph.h"
#include "util/thread_pool.h"

namespace repro {
namespace {

// ---- thread pool unit tests -------------------------------------------------

TEST(ThreadPool, SubmitReturnsResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  EXPECT_EQ(pool.num_workers(), 3u);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 32; ++i) futs.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 32; ++i) EXPECT_EQ(futs[i].get(), i * i);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_workers(), 0u);
  auto fut = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  for (unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(hits.size(), 7,
                      [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
  }
}

TEST(ThreadPool, ParallelForInsidePoolTaskDoesNotDeadlock) {
  // The embedder nests parallel_for calls (join columns inside sibling
  // subtrees); the caller participates in its own chunk loop, so this must
  // complete even when every worker is busy.
  ThreadPool pool(2);
  std::vector<std::future<long>> futs;
  for (int t = 0; t < 4; ++t) {
    futs.push_back(pool.submit([&pool] {
      std::atomic<long> sum{0};
      pool.parallel_for(100, 3, [&](std::size_t i) {
        sum.fetch_add(static_cast<long>(i));
      });
      return sum.load();
    }));
  }
  for (auto& f : futs) EXPECT_EQ(f.get(), 100L * 99 / 2);
}

// ---- embedder DP-level parallelism ------------------------------------------

/// A reconvergent 7-node tree over a 12x12 grid, with a placement cost that
/// varies per vertex so the tradeoff curve is nontrivial.
struct DpFixture {
  EmbeddingGraph graph =
      EmbeddingGraph::make_grid(Rect{0, 0, 11, 11}, 1.0, 1.0);
  FaninTree tree;

  DpFixture() {
    TreeNodeId a = tree.add_leaf("a", {0, 0}, 0.3, true);
    TreeNodeId b = tree.add_leaf("b", {11, 0}, 0.1, true);
    TreeNodeId c = tree.add_leaf("c", {0, 11}, 0.2, true);
    TreeNodeId d = tree.add_leaf("d", {5, 5}, 0.0, false);
    TreeNodeId g1 = tree.add_gate("g1", {a, b}, 1.0);
    TreeNodeId g2 = tree.add_gate("g2", {c, d}, 1.0);
    TreeNodeId g3 = tree.add_gate("g3", {g1, g2, d}, 1.0);
    tree.set_root(g3, {11, 11});
  }

  static double pcost(const EmbeddingGraph& g, TreeNodeId i, EmbedVertexId j) {
    Point p = g.point(j);
    return 0.25 * ((p.x * 7 + p.y * 13 + i.index() * 3) % 11);
  }
};

TEST(ParallelEmbedder, JoinColumnsBitIdenticalForAnyPoolSize) {
  DpFixture fx;
  auto pc = [&](TreeNodeId i, EmbedVertexId j) {
    return DpFixture::pcost(fx.graph, i, j);
  };

  EmbedOptions serial;
  serial.lex_order = 3;
  FaninTreeEmbedder se(fx.tree, fx.graph, pc, serial);
  ASSERT_TRUE(se.run());

  for (unsigned threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    EmbedOptions par = serial;
    par.pool = &pool;
    par.parallel_min_vertices = 1;  // force the chunked path on this grid
    FaninTreeEmbedder pe(fx.tree, fx.graph, pc, par);
    ASSERT_TRUE(pe.run());

    ASSERT_EQ(se.tradeoff().size(), pe.tradeoff().size()) << threads;
    for (std::size_t k = 0; k < se.tradeoff().size(); ++k) {
      const RootSolution& x = se.tradeoff()[k];
      const RootSolution& y = pe.tradeoff()[k];
      EXPECT_EQ(x.vertex, y.vertex);
      EXPECT_EQ(x.label_index, y.label_index);  // same table layout, not just
                                                // same values
      EXPECT_EQ(x.cost, y.cost);                // bitwise
      EXPECT_EQ(x.delay.lex_compare(y.delay), 0);
    }
    EXPECT_EQ(se.labels_created(), pe.labels_created());
    // Extraction walks provenance (including rebased spill indices).
    auto es = se.extract(0);
    auto ep = pe.extract(0);
    ASSERT_EQ(es.size(), ep.size());
    EXPECT_TRUE(es == ep);
  }
}

/// A bushy five-level tree over a 14x14 grid: gates with one to four
/// children (so joins of more than two children spill their provenance),
/// leaves with varied arrivals, and a mix of real inputs and terminators.
struct BushyFixture {
  EmbeddingGraph graph = EmbeddingGraph::make_grid(Rect{0, 0, 13, 13}, 1.0, 1.0);
  FaninTree tree;

  BushyFixture() {
    auto leaf = [&](const char* name, Point p, double arrival) {
      return tree.add_leaf(name, p, arrival, arrival < 0.5);
    };
    TreeNodeId l[12] = {
        leaf("l0", {0, 0}, 0.0),   leaf("l1", {3, 0}, 0.7),   leaf("l2", {0, 4}, 1.3),
        leaf("l3", {5, 2}, 0.2),   leaf("l4", {13, 0}, 2.1),  leaf("l5", {9, 3}, 0.0),
        leaf("l6", {13, 6}, 0.9),  leaf("l7", {0, 13}, 1.7),  leaf("l8", {4, 9}, 0.4),
        leaf("l9", {2, 11}, 3.0),  leaf("l10", {7, 7}, 0.6), leaf("l11", {10, 12}, 1.1)};
    TreeNodeId a1 = tree.add_gate("a1", {l[0], l[1], l[2], l[3]}, 1.0);
    TreeNodeId a2 = tree.add_gate("a2", {l[4]}, 0.5);
    TreeNodeId a3 = tree.add_gate("a3", {l[5], l[6]}, 1.0);
    TreeNodeId a4 = tree.add_gate("a4", {l[7], l[8], l[9]}, 1.5);
    TreeNodeId b1 = tree.add_gate("b1", {a1, a2, l[10]}, 1.0);
    TreeNodeId b2 = tree.add_gate("b2", {a3, a4}, 1.0);
    TreeNodeId c1 = tree.add_gate("c1", {b1, b2, l[11]}, 1.0);
    tree.set_root(tree.add_gate("r", {c1}, 1.0), {12, 12});
  }
};

/// Every observable result of two runs, bitwise: the trade-off curve with
/// its label indices, the label counters and the extraction of every entry.
void expect_identical_embedders(const FaninTreeEmbedder& x, const FaninTreeEmbedder& y) {
  EXPECT_EQ(x.labels_created(), y.labels_created());
  EXPECT_EQ(x.labels_evicted(), y.labels_evicted());
  ASSERT_EQ(x.tradeoff().size(), y.tradeoff().size());
  for (std::size_t k = 0; k < x.tradeoff().size(); ++k) {
    const RootSolution& a = x.tradeoff()[k];
    const RootSolution& b = y.tradeoff()[k];
    EXPECT_EQ(a.vertex, b.vertex) << "entry " << k;
    EXPECT_EQ(a.label_index, b.label_index) << "entry " << k;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.cost), std::bit_cast<std::uint64_t>(b.cost))
        << "entry " << k;
    ASSERT_EQ(a.delay.n, b.delay.n) << "entry " << k;
    for (int d = 0; d < a.delay.n; ++d)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.delay.v[d]),
                std::bit_cast<std::uint64_t>(b.delay.v[d]))
          << "entry " << k << " delay " << d;
    EXPECT_TRUE(x.extract(static_cast<int>(k)) == y.extract(static_cast<int>(k)))
        << "entry " << k;
  }
}

TEST(ParallelEmbedder, SubtreesBitIdenticalForAnyPoolSize) {
  BushyFixture fx;
  struct Config {
    const char* name;
    EmbedOptions eo;
  };
  std::vector<Config> configs;
  auto add = [&](const char* name, auto&& set) {
    EmbedOptions eo;
    set(eo);
    configs.push_back({name, eo});
  };
  add("rt", [](EmbedOptions&) {});
  add("lex3", [](EmbedOptions& eo) { eo.lex_order = 3; });
  add("lex_mc", [](EmbedOptions& eo) { eo.lex_mc = true; });
  add("max_labels_3", [](EmbedOptions& eo) {
    eo.lex_order = 2;
    eo.max_labels = 3;
  });
  add("relocatable_root", [](EmbedOptions& eo) {
    eo.lex_order = 3;
    eo.relocatable_root = true;
  });
  add("overlap_avoidance", [](EmbedOptions& eo) {
    eo.overlap_avoidance = true;
    eo.branch_capacity = 2;
  });

  // The placement cost records which threads call it: two or more prove
  // that sibling subtrees (or join columns) really ran on the pool.
  std::mutex mu;
  std::set<std::thread::id> callers;
  auto pc = [&](TreeNodeId i, EmbedVertexId j) {
    {
      std::lock_guard<std::mutex> lk(mu);
      callers.insert(std::this_thread::get_id());
    }
    return DpFixture::pcost(fx.graph, i, j);
  };

  std::vector<std::unique_ptr<FaninTreeEmbedder>> serial;
  for (const Config& c : configs) {
    SCOPED_TRACE(c.name);
    serial.push_back(std::make_unique<FaninTreeEmbedder>(fx.tree, fx.graph, pc, c.eo));
    ASSERT_TRUE(serial.back()->run());
    if (c.eo.max_labels > 0) {
      EXPECT_GT(serial.back()->labels_evicted(), 0u);  // the cap really bites
    }
  }
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    callers.clear();
    for (std::size_t k = 0; k < configs.size(); ++k) {
      SCOPED_TRACE(configs[k].name);
      EmbedOptions par = configs[k].eo;
      par.pool = &pool;
      FaninTreeEmbedder pe(fx.tree, fx.graph, pc, par);
      ASSERT_TRUE(pe.run());
      expect_identical_embedders(*serial[k], pe);
    }
    if (threads >= 2) {
      EXPECT_GE(callers.size(), 2u);
    }
  }
}

TEST(ParallelEmbedder, SharedSubtreeIsSolvedPerOccurrence) {
  // A hand-built DAG: s feeds both p1 and p2. The embedder solves s once per
  // parent, exactly as if the tree held two copies of it, at any pool size.
  const EmbeddingGraph graph = EmbeddingGraph::make_grid(Rect{0, 0, 11, 11}, 1.0, 1.0);
  auto build = [](FaninTree& t, bool shared) {
    TreeNodeId a = t.add_leaf("a", {0, 0}, 0.4, true);
    TreeNodeId b = t.add_leaf("b", {11, 0}, 0.0, true);
    TreeNodeId c = t.add_leaf("c", {0, 11}, 1.0, false);
    TreeNodeId d = t.add_leaf("d", {6, 9}, 0.2, true);
    TreeNodeId s1 = t.add_gate("s", {a, b}, 1.0);
    TreeNodeId s2 = shared ? s1 : t.add_gate("s_copy", {a, b}, 1.0);
    TreeNodeId p1 = t.add_gate("p1", {s1, c}, 1.0);
    TreeNodeId p2 = t.add_gate("p2", {s2, d}, 1.0);
    t.set_root(t.add_gate("r", {p1, p2}, 1.0), {11, 11});
  };
  FaninTree dag;
  FaninTree copied;
  build(dag, true);
  build(copied, false);
  auto pc = [&](TreeNodeId, EmbedVertexId j) {
    const Point p = graph.point(j);
    return 0.5 * ((p.x * 5 + p.y * 3) % 7);
  };
  EmbedOptions eo;
  eo.lex_order = 3;
  FaninTreeEmbedder reference(copied, graph, pc, eo);
  ASSERT_TRUE(reference.run());
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    EmbedOptions par = eo;
    par.pool = &pool;
    FaninTreeEmbedder e(dag, graph, pc, par);
    ASSERT_TRUE(e.run());
    EXPECT_EQ(e.labels_created(), reference.labels_created());
    ASSERT_EQ(e.tradeoff().size(), reference.tradeoff().size());
    for (std::size_t k = 0; k < e.tradeoff().size(); ++k) {
      EXPECT_EQ(e.tradeoff()[k].vertex, reference.tradeoff()[k].vertex);
      EXPECT_EQ(e.tradeoff()[k].label_index, reference.tradeoff()[k].label_index);
      EXPECT_EQ(e.tradeoff()[k].cost, reference.tradeoff()[k].cost);
      EXPECT_EQ(e.tradeoff()[k].delay.lex_compare(reference.tradeoff()[k].delay), 0);
    }
  }
}

TEST(ParallelEmbedder, LeafOutsideGraphFailsOnPool) {
  BushyFixture fx;
  FaninTree tree = fx.tree;
  tree.node_mutable(tree.leaves().back()).fixed_loc = Point{40, 40};
  ThreadPool pool(4);
  EmbedOptions eo;
  eo.pool = &pool;
  FaninTreeEmbedder e(tree, fx.graph, nullptr, eo);
  EXPECT_FALSE(e.run());
  EXPECT_TRUE(e.tradeoff().empty());
}

TEST(ParallelEmbedder, ScratchReuseAcrossRunsIsClean) {
  DpFixture fx;
  auto pc = [&](TreeNodeId i, EmbedVertexId j) {
    return DpFixture::pcost(fx.graph, i, j);
  };
  EmbedOptions eo;
  eo.lex_order = 2;
  EmbedScratch scratch;
  std::vector<double> first;
  for (int round = 0; round < 3; ++round) {
    FaninTreeEmbedder e(fx.tree, fx.graph, pc, eo, &scratch);
    ASSERT_TRUE(e.run());
    std::vector<double> costs;
    for (const RootSolution& rs : e.tradeoff()) costs.push_back(rs.cost);
    if (round == 0)
      first = costs;
    else
      EXPECT_EQ(costs, first) << "round " << round;
  }
}

TEST(ParallelEmbedder, ScratchReusedAcrossSizesMatchesFreshEmbedder) {
  // One scratch serves a big, a small, then a big run again, with different
  // trees, graphs and lex orders. Every run must equal a scratch-less
  // embedder bit for bit: stale pool offsets or live lists would show here.
  DpFixture big;
  FaninTree small_tree;
  {
    TreeNodeId a = small_tree.add_leaf("a", {0, 0}, 0.5, true);
    TreeNodeId b = small_tree.add_leaf("b", {3, 1}, 0.0, true);
    TreeNodeId g = small_tree.add_gate("g", {a, b}, 1.0);
    small_tree.set_root(small_tree.add_gate("r", {g}, 1.0), {3, 3});
  }
  const EmbeddingGraph small_graph =
      EmbeddingGraph::make_grid(Rect{0, 0, 3, 3}, 1.0, 1.0);

  struct Run {
    const FaninTree& tree;
    const EmbeddingGraph& graph;
    int lex_order;
    int max_labels;
  };
  const Run runs[] = {{big.tree, big.graph, 3, 0},
                      {small_tree, small_graph, 1, 0},
                      {big.tree, big.graph, 2, 3}};
  EmbedScratch scratch;
  for (const Run& run : runs) {
    SCOPED_TRACE(run.graph.num_vertices());
    auto pc = [&](TreeNodeId i, EmbedVertexId j) {
      return DpFixture::pcost(run.graph, i, j);
    };
    EmbedOptions eo;
    eo.lex_order = run.lex_order;
    eo.max_labels = run.max_labels;
    FaninTreeEmbedder fresh(run.tree, run.graph, pc, eo);
    ASSERT_TRUE(fresh.run());
    FaninTreeEmbedder reused(run.tree, run.graph, pc, eo, &scratch);
    ASSERT_TRUE(reused.run());

    EXPECT_EQ(fresh.labels_created(), reused.labels_created());
    EXPECT_EQ(fresh.labels_evicted(), reused.labels_evicted());
    ASSERT_EQ(fresh.tradeoff().size(), reused.tradeoff().size());
    for (std::size_t k = 0; k < fresh.tradeoff().size(); ++k) {
      const RootSolution& x = fresh.tradeoff()[k];
      const RootSolution& y = reused.tradeoff()[k];
      EXPECT_EQ(x.vertex, y.vertex);
      EXPECT_EQ(x.label_index, y.label_index);
      EXPECT_EQ(x.cost, y.cost);
      ASSERT_EQ(x.delay.n, y.delay.n);
      for (int d = 0; d < x.delay.n; ++d) EXPECT_EQ(x.delay.v[d], y.delay.v[d]);
      EXPECT_TRUE(fresh.extract(static_cast<int>(k)) ==
                  reused.extract(static_cast<int>(k)))
          << "tradeoff entry " << k;
    }
  }
}

// ---- engine trajectory determinism ------------------------------------------

struct ParallelHarness {
  Netlist nl;
  FpgaGrid grid;
  LinearDelayModel dm;  // must precede pl: the annealer reads it
  Placement pl;
  Netlist golden;

  static Netlist make(std::uint64_t seed) {
    CircuitSpec spec;
    spec.num_logic = 120;
    spec.num_inputs = 10;
    spec.num_outputs = 10;
    spec.registered_fraction = 0.25;
    spec.depth = 8;
    spec.seed = seed;
    return generate_circuit(spec);
  }

  explicit ParallelHarness(std::uint64_t seed, int slack = 12)
      : nl(make(seed)),
        grid(FpgaGrid::min_grid_for(nl.num_logic() + slack,
                                    nl.num_input_pads() + nl.num_output_pads())),
        pl([&] {
          AnnealerOptions opt;
          opt.inner_num = 0.5;
          opt.seed = seed;
          return anneal_placement(nl, grid, dm, opt);
        }()),
        golden(nl) {}
};

EngineResult run_at(ParallelHarness& h, int threads, int max_iterations = 40) {
  EngineOptions opt;
  opt.variant = EmbedVariant::kLex3;
  opt.max_iterations = max_iterations;
  opt.num_threads = threads;
  return run_replication_engine(h.nl, h.pl, h.dm, opt);
}

void expect_identical_runs(const ParallelHarness& a, const EngineResult& ra,
                           const ParallelHarness& b, const EngineResult& rb,
                           const char* what) {
  SCOPED_TRACE(what);
  // Scalar results, bitwise.
  EXPECT_EQ(ra.final_critical, rb.final_critical);
  EXPECT_EQ(ra.final_wirelength, rb.final_wirelength);
  EXPECT_EQ(ra.final_blocks, rb.final_blocks);
  EXPECT_EQ(ra.total_replicated, rb.total_replicated);
  EXPECT_EQ(ra.total_unified, rb.total_unified);
  EXPECT_EQ(ra.ran_out_of_slots, rb.ran_out_of_slots);
  EXPECT_EQ(ra.reached_lower_bound, rb.reached_lower_bound);
  // Full per-iteration history: the engines walked the same trajectory, not
  // just arrived at the same endpoint.
  ASSERT_EQ(ra.history.size(), rb.history.size());
  for (std::size_t i = 0; i < ra.history.size(); ++i) {
    const IterationStats& x = ra.history[i];
    const IterationStats& y = rb.history[i];
    EXPECT_EQ(x.critical_delay, y.critical_delay) << "iter " << i;
    EXPECT_EQ(x.epsilon, y.epsilon) << "iter " << i;
    EXPECT_EQ(x.tree_internal, y.tree_internal) << "iter " << i;
    EXPECT_EQ(x.replicated_cum, y.replicated_cum) << "iter " << i;
    EXPECT_EQ(x.unified_cum, y.unified_cum) << "iter " << i;
    EXPECT_EQ(x.improved, y.improved) << "iter " << i;
    EXPECT_EQ(x.ff_relocation, y.ff_relocation) << "iter " << i;
  }
  // Final netlist/placement state.
  ASSERT_EQ(a.nl.num_live_cells(), b.nl.num_live_cells());
  for (CellId c : a.nl.live_cells()) {
    ASSERT_TRUE(b.nl.cell_alive(c));
    EXPECT_EQ(a.nl.cell(c).name, b.nl.cell(c).name);
    EXPECT_EQ(a.pl.location(c), b.pl.location(c));
  }
  // Same critical path node sequence.
  TimingGraph ta(a.nl, a.pl, a.dm);
  TimingGraph tb(b.nl, b.pl, b.dm);
  EXPECT_EQ(ta.critical_delay(), tb.critical_delay());
  EXPECT_EQ(ta.critical_path(), tb.critical_path());
}

TEST(ParallelEngine, SerialMatchesPrePrGoldens) {
  // Hexfloat trajectories captured from the serial engine BEFORE the thread
  // pool / speculation machinery existed (same toolchain and flags). Any
  // drift here means the refactor changed the serial algorithm.
  struct Golden {
    std::uint64_t seed;
    double final_critical;
    double final_wirelength;
    std::size_t final_blocks;
    std::size_t iters;
    int replicated;
    int unified;
  };
  const Golden goldens[] = {
      {21, 0x1.7666666666666p+5, 0x1.11eec710cb296p+10, 150, 40, 13, 3},
      {22, 0x1.2e66666666666p+5, 0x1.efb03e425aee7p+9, 145, 40, 13, 8},
      {23, 0x1.d666666666666p+5, 0x1.e4436113404e8p+9, 146, 40, 11, 5},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(g.seed);
    ParallelHarness h(g.seed);
    EngineResult r = run_at(h, /*threads=*/1);
    EXPECT_EQ(r.final_critical, g.final_critical);
    EXPECT_EQ(r.final_wirelength, g.final_wirelength);
    EXPECT_EQ(r.final_blocks, g.final_blocks);
    EXPECT_EQ(r.history.size(), g.iters);
    EXPECT_EQ(r.total_replicated, g.replicated);
    EXPECT_EQ(r.total_unified, g.unified);
    EXPECT_EQ(r.num_threads_used, 1);
    EXPECT_EQ(r.speculations_launched, 0u);  // no workers, no speculation
  }
}

TEST(ParallelEngine, TrajectoryIdenticalAcrossThreadCounts) {
  ParallelHarness base(22);
  EngineResult rbase = run_at(base, /*threads=*/1);
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE(threads);
    ParallelHarness h(22);
    EngineResult r = run_at(h, threads);
    expect_identical_runs(base, rbase, h, r, "threads vs serial");
    EXPECT_EQ(r.num_threads_used, threads);
    // Function and legality preserved under concurrency.
    EXPECT_TRUE(h.pl.legal()) << h.pl.check_legal();
    EXPECT_TRUE(h.nl.validate().empty()) << h.nl.validate();
    EXPECT_TRUE(functionally_equivalent(h.golden, h.nl, 64, 1234));
  }
}

TEST(ParallelEngine, RollbackAtFourThreadsLeavesStateUntouched) {
  // Dense fixture: almost no spare slots, so legalization fails and the
  // engine exercises the rollback path (which must restore bit-exact
  // state). The serial run is the oracle.
  ParallelHarness base(31, /*slack=*/0);
  EngineResult rbase = run_at(base, /*threads=*/1, /*max_iterations=*/30);
  for (int threads : {4}) {
    SCOPED_TRACE(threads);
    ParallelHarness h(31, /*slack=*/0);
    EngineResult r = run_at(h, threads, /*max_iterations=*/30);
    expect_identical_runs(base, rbase, h, r, "dense fixture");
    EXPECT_TRUE(h.pl.legal()) << h.pl.check_legal();
    EXPECT_TRUE(functionally_equivalent(h.golden, h.nl, 64, 99));
  }
}

}  // namespace
}  // namespace repro
