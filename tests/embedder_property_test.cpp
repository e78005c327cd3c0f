// Property tests: the DP embedder must produce exactly the Pareto front that
// exhaustive enumeration of all internal-node placements produces, for both
// the 2-D (cost, max-arrival) objective and the Lex-N objectives, on random
// trees over full grids (where graph distance = Manhattan distance) and over
// irregular graphs with random directed edge weights and blocked vertices
// (where the brute force measures all-pairs shortest paths).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <vector>

#include "embed/embedder.h"
#include "embed/embedding_graph.h"
#include "embed/fanin_tree.h"
#include "util/rng.h"

namespace repro {
namespace {

struct RandomCase {
  FaninTree tree;
  std::vector<TreeNodeId> internals;  // excluding root
  TreeNodeId root;
  Rect region;
  std::vector<std::vector<double>> pcost;  // [tree node][vertex]
};

/// Random tree with `num_internal` movable gates over a small grid.
RandomCase make_case(Rng& rng, int num_internal, int w, int h) {
  RandomCase rc;
  rc.region = Rect{0, 0, w - 1, h - 1};
  auto rand_point = [&] {
    return Point{rng.next_int(0, w - 1), rng.next_int(0, h - 1)};
  };

  // Build bottom-up: maintain a pool of subtree roots, join random subsets.
  std::vector<TreeNodeId> pool;
  const int num_leaves = num_internal + 1 + rng.next_int(0, 2);
  for (int i = 0; i < num_leaves; ++i)
    pool.push_back(rc.tree.add_leaf("l" + std::to_string(i), rand_point(),
                                    rng.next_double() * 4.0, true));
  for (int i = 0; i < num_internal; ++i) {
    const int arity =
        std::min<int>(static_cast<int>(pool.size()), 1 + rng.next_int(1, 2));
    std::vector<TreeNodeId> kids;
    for (int k = 0; k < arity; ++k) {
      std::size_t pick = rng.next_below(pool.size());
      kids.push_back(pool[pick]);
      pool.erase(pool.begin() + static_cast<long>(pick));
    }
    TreeNodeId gate = rc.tree.add_gate("g" + std::to_string(i), std::move(kids),
                                       rng.next_double() * 2.0);
    rc.internals.push_back(gate);
    pool.push_back(gate);
  }
  rc.root = rc.tree.add_gate("root", pool, 1.0);
  rc.tree.set_root(rc.root, rand_point());

  rc.pcost.resize(rc.tree.size());
  for (std::size_t n = 0; n < rc.tree.size(); ++n) {
    rc.pcost[n].resize(static_cast<std::size_t>(w) * h);
    for (auto& v : rc.pcost[n]) v = rng.next_int(0, 3);
  }
  return rc;
}

struct BruteSolution {
  double cost;
  DelayVec delay;
};

/// Wire cost (= wire delay) of the shortest path from one vertex to another;
/// +infinity when unreachable.
using DistanceFn = std::function<double(EmbedVertexId from, EmbedVertexId to)>;

/// Grid-graph shortest path: Manhattan distance.
DistanceFn manhattan_distance(const EmbeddingGraph& g) {
  return [&g](EmbedVertexId a, EmbedVertexId b) {
    return static_cast<double>(manhattan(g.point(a), g.point(b)));
  };
}

/// Exhaustive evaluation over all placements of the internal nodes (root
/// fixed). Combinations with an unreachable wire are skipped.
std::vector<BruteSolution> brute_force(const RandomCase& rc, const EmbeddingGraph& g,
                                       int lex, const DistanceFn& dist) {
  std::vector<BruteSolution> all;
  const std::size_t nv = g.num_vertices();
  std::vector<std::size_t> assign(rc.internals.size(), 0);

  auto vertex_of = [&](TreeNodeId n) -> EmbedVertexId {
    for (std::size_t k = 0; k < rc.internals.size(); ++k)
      if (rc.internals[k] == n)
        return EmbedVertexId(static_cast<EmbedVertexId::value_type>(assign[k]));
    if (n == rc.root) return g.vertex_at(rc.tree.node(n).fixed_loc);
    return g.vertex_at(rc.tree.node(n).fixed_loc);
  };

  // Recursive evaluation: returns (cost, top-lex delay multiset) of subtree.
  auto eval = [&](auto&& self, TreeNodeId n) -> std::pair<double, DelayVec> {
    const FaninTreeNode& node = rc.tree.node(n);
    if (node.is_leaf()) return {0.0, DelayVec::single(node.leaf_arrival)};
    EmbedVertexId me = vertex_of(n);
    double cost = rc.pcost[n.index()][me.index()];
    DelayVec merged;
    for (TreeNodeId c : node.children) {
      auto [ccost, cdelay] = self(self, c);
      const double wire = dist(vertex_of(c), me);
      cost += ccost + wire;
      cdelay.shift(wire);
      merged = merged.merged_with(cdelay, lex);
    }
    merged.shift(node.gate_delay);
    return {cost, merged};
  };

  while (true) {
    auto [cost, delay] = eval(eval, rc.root);
    if (cost < std::numeric_limits<double>::infinity())
      all.push_back(BruteSolution{cost, delay});
    // Advance the mixed-radix counter.
    std::size_t k = 0;
    while (k < assign.size() && ++assign[k] == nv) assign[k++] = 0;
    if (k == assign.size()) break;
  }
  return all;
}

/// Pareto filter matching the embedder's dominance (cost vs lex delay).
std::vector<BruteSolution> pareto(std::vector<BruteSolution> all) {
  std::sort(all.begin(), all.end(), [](const BruteSolution& a, const BruteSolution& b) {
    if (a.cost != b.cost) return a.cost < b.cost;
    return a.delay.lex_compare(b.delay) < 0;
  });
  std::vector<BruteSolution> front;
  for (const auto& s : all) {
    bool dominated = false;
    for (const auto& f : front)
      if (f.cost <= s.cost + 1e-9 && f.delay.lex_compare(s.delay) <= 0) {
        dominated = true;
        break;
      }
    if (!dominated) front.push_back(s);
  }
  return front;
}

class EmbedderVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(EmbedderVsBruteForce, ParetoFrontsMatch2D) {
  Rng rng(1000 + GetParam());
  const int w = 3 + static_cast<int>(rng.next_below(2));
  const int h = 3;
  RandomCase rc = make_case(rng, 1 + static_cast<int>(rng.next_below(3)), w, h);
  EmbeddingGraph g = EmbeddingGraph::make_grid(rc.region, 1.0, 1.0);

  FaninTreeEmbedder e(
      rc.tree, g,
      [&rc](TreeNodeId i, EmbedVertexId j) { return rc.pcost[i.index()][j.index()]; },
      EmbedOptions{});
  ASSERT_TRUE(e.run());
  auto front = pareto(brute_force(rc, g, 1, manhattan_distance(g)));

  ASSERT_EQ(e.tradeoff().size(), front.size()) << "Pareto front size mismatch";
  for (std::size_t k = 0; k < front.size(); ++k) {
    EXPECT_NEAR(e.tradeoff()[k].cost, front[k].cost, 1e-9);
    EXPECT_NEAR(e.tradeoff()[k].delay.primary(), front[k].delay.primary(), 1e-9);
  }
}

TEST_P(EmbedderVsBruteForce, ParetoFrontsMatchLex3) {
  Rng rng(9000 + GetParam());
  RandomCase rc = make_case(rng, 1 + static_cast<int>(rng.next_below(2)), 3, 3);
  EmbeddingGraph g = EmbeddingGraph::make_grid(rc.region, 1.0, 1.0);

  EmbedOptions opt;
  opt.lex_order = 3;
  FaninTreeEmbedder e(
      rc.tree, g,
      [&rc](TreeNodeId i, EmbedVertexId j) { return rc.pcost[i.index()][j.index()]; },
      opt);
  ASSERT_TRUE(e.run());
  auto front = pareto(brute_force(rc, g, 3, manhattan_distance(g)));

  ASSERT_EQ(e.tradeoff().size(), front.size());
  for (std::size_t k = 0; k < front.size(); ++k) {
    EXPECT_NEAR(e.tradeoff()[k].cost, front[k].cost, 1e-9);
    EXPECT_EQ(e.tradeoff()[k].delay.lex_compare(front[k].delay), 0)
        << "lex delay vector mismatch at front position " << k;
  }
}

TEST_P(EmbedderVsBruteForce, ExtractionIsConsistentWithSignature) {
  // Re-evaluate the extracted placement by hand; its cost/delay must equal
  // the solution signature (the reconstruction invariant).
  Rng rng(5000 + GetParam());
  RandomCase rc = make_case(rng, 1 + static_cast<int>(rng.next_below(3)), 4, 3);
  EmbeddingGraph g = EmbeddingGraph::make_grid(rc.region, 1.0, 1.0);

  FaninTreeEmbedder e(
      rc.tree, g,
      [&rc](TreeNodeId i, EmbedVertexId j) { return rc.pcost[i.index()][j.index()]; },
      EmbedOptions{});
  ASSERT_TRUE(e.run());

  for (std::size_t k = 0; k < e.tradeoff().size(); ++k) {
    auto emb = e.extract(static_cast<int>(k));
    // Recompute delay/cost from the embedding.
    auto eval = [&](auto&& self, TreeNodeId n) -> std::pair<double, double> {
      const FaninTreeNode& node = rc.tree.node(n);
      if (node.is_leaf()) return {0.0, node.leaf_arrival};
      Point mp = g.point(emb.at(n));
      double cost = rc.pcost[n.index()][emb.at(n).index()];
      double arr = 0;
      for (TreeNodeId c : node.children) {
        auto [ccost, carr] = self(self, c);
        Point cp = g.point(emb.at(c));
        cost += ccost + manhattan(cp, mp);
        arr = std::max(arr, carr + manhattan(cp, mp));
      }
      return {cost, arr + node.gate_delay};
    };
    auto [cost, arr] = eval(eval, rc.root);
    // The reconstructed embedding can only be as good or better than the
    // label (wires in the label may route longer than Manhattan only if
    // detours were priced in; on a full grid they never are).
    EXPECT_NEAR(cost, e.tradeoff()[k].cost, 1e-9);
    EXPECT_NEAR(arr, e.tradeoff()[k].delay.primary(), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EmbedderVsBruteForce, ::testing::Range(0, 12));

// ---- irregular graphs -------------------------------------------------------

/// A w x h point set with a few blocked points, 4-neighbour edges whose
/// weight (cost = delay) is drawn independently per direction, and a few
/// long one-way shortcuts. Weights and arrivals are multiples of 1/4, so
/// path sums are exact in any association order.
struct IrregularCase {
  RandomCase rc;
  EmbeddingGraph graph;
  std::vector<double> dist;  // [from * V + to], all-pairs shortest paths
};

IrregularCase make_irregular_case(Rng& rng, int num_internal, int w, int h) {
  IrregularCase ic;
  // cost = delay on every edge.
  auto add_edge = [&](EmbedVertexId u, EmbedVertexId v) {
    const double weight = 0.25 * rng.next_int(1, 12);
    if (u != v) ic.graph.add_edge(u, v, weight, weight);
  };
  std::vector<Point> open;
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      if (rng.next_below(5) != 0) open.push_back(Point{x, y});
  for (Point p : open) ic.graph.add_vertex(p);
  for (Point p : open)
    for (Point q : {Point{p.x + 1, p.y}, Point{p.x, p.y + 1}}) {
      const EmbedVertexId u = ic.graph.vertex_at(p);
      const EmbedVertexId v = ic.graph.vertex_at(q);
      if (!v.valid()) continue;
      add_edge(u, v);
      add_edge(v, u);
    }
  const std::size_t nv = ic.graph.num_vertices();
  auto rand_vertex = [&] {
    return EmbedVertexId(static_cast<EmbedVertexId::value_type>(rng.next_below(nv)));
  };
  for (int k = 0; k < 3; ++k) add_edge(rand_vertex(), rand_vertex());

  // Floyd-Warshall over the directed edges.
  ic.dist.assign(nv * nv, std::numeric_limits<double>::infinity());
  auto d = [&](std::size_t u, std::size_t v) -> double& { return ic.dist[u * nv + v]; };
  for (std::size_t u = 0; u < nv; ++u) {
    d(u, u) = 0;
    for (const EmbeddingGraph::Edge& e :
         ic.graph.edges_from(EmbedVertexId(static_cast<EmbedVertexId::value_type>(u))))
      d(u, e.to.index()) = std::min(d(u, e.to.index()), e.cost);
  }
  for (std::size_t k = 0; k < nv; ++k)
    for (std::size_t u = 0; u < nv; ++u)
      for (std::size_t v = 0; v < nv; ++v) d(u, v) = std::min(d(u, v), d(u, k) + d(k, v));

  // Random tree over the open points (leaves and root never blocked).
  RandomCase& rc = ic.rc;
  auto rand_open = [&] { return open[rng.next_below(open.size())]; };
  std::vector<TreeNodeId> pool;
  const int num_leaves = num_internal + 1 + rng.next_int(0, 2);
  for (int i = 0; i < num_leaves; ++i)
    pool.push_back(rc.tree.add_leaf("l" + std::to_string(i), rand_open(),
                                    0.25 * rng.next_int(0, 16), true));
  for (int i = 0; i < num_internal; ++i) {
    const int arity =
        std::min<int>(static_cast<int>(pool.size()), 1 + rng.next_int(1, 2));
    std::vector<TreeNodeId> kids;
    for (int k = 0; k < arity; ++k) {
      std::size_t pick = rng.next_below(pool.size());
      kids.push_back(pool[pick]);
      pool.erase(pool.begin() + static_cast<long>(pick));
    }
    TreeNodeId gate = rc.tree.add_gate("g" + std::to_string(i), std::move(kids),
                                       0.25 * rng.next_int(0, 8));
    rc.internals.push_back(gate);
    pool.push_back(gate);
  }
  rc.root = rc.tree.add_gate("root", pool, 1.0);
  rc.tree.set_root(rc.root, rand_open());
  rc.pcost.resize(rc.tree.size());
  for (auto& per_vertex : rc.pcost) {
    per_vertex.resize(nv);
    for (auto& v : per_vertex) v = rng.next_int(0, 3);
  }
  return ic;
}

class EmbedderVsBruteForceIrregular : public ::testing::TestWithParam<int> {
 protected:
  /// Runs the embedder and the brute force at `lex` and compares the fronts
  /// exactly (every weight is dyadic, so sums carry no rounding).
  static void check(const IrregularCase& ic, int lex) {
    const RandomCase& rc = ic.rc;
    EmbedOptions opt;
    opt.lex_order = lex;
    FaninTreeEmbedder e(
        rc.tree, ic.graph,
        [&rc](TreeNodeId i, EmbedVertexId j) { return rc.pcost[i.index()][j.index()]; },
        opt);
    const bool ok = e.run();
    auto front = pareto(brute_force(rc, ic.graph, lex, [&ic](EmbedVertexId a, EmbedVertexId b) {
      return ic.dist[a.index() * ic.graph.num_vertices() + b.index()];
    }));
    ASSERT_EQ(ok, !front.empty());
    ASSERT_EQ(e.tradeoff().size(), front.size()) << "Pareto front size mismatch";
    for (std::size_t k = 0; k < front.size(); ++k) {
      EXPECT_EQ(e.tradeoff()[k].cost, front[k].cost) << "front position " << k;
      EXPECT_EQ(e.tradeoff()[k].delay.lex_compare(front[k].delay), 0)
          << "delay mismatch at front position " << k;
    }
  }
};

TEST_P(EmbedderVsBruteForceIrregular, ParetoFrontsMatch2D) {
  Rng rng(20000 + GetParam());
  check(make_irregular_case(rng, 1 + static_cast<int>(rng.next_below(3)), 4, 3), 1);
}

TEST_P(EmbedderVsBruteForceIrregular, ParetoFrontsMatchLex3) {
  Rng rng(30000 + GetParam());
  check(make_irregular_case(rng, 1 + static_cast<int>(rng.next_below(2)), 4, 3), 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EmbedderVsBruteForceIrregular, ::testing::Range(0, 12));

}  // namespace
}  // namespace repro
