#include <gtest/gtest.h>

#include <algorithm>

#include "gen/circuit_gen.h"
#include "place/placement.h"
#include "reference_timing.h"
#include "test_helpers.h"
#include "timing/spt.h"
#include "timing/timing_graph.h"

namespace repro {
namespace {

using testing::TinyPlaced;

class SptFixture : public ::testing::Test {
 protected:
  TinyPlaced t;
  TimingGraph tg{t.nl, *t.pl, t.dm};
};

TEST_F(SptFixture, ZeroEpsilonKeepsOnlySlowestSpine) {
  // Critical sink po0: arrival 9.0. Both g1 and g2 paths tie at 9.0, so with
  // eps = 0 the SPT contains po0, g3 and BOTH tied branches.
  Spt spt = extract_eps_spt(tg, tg.sink_node(t.po0), 0.0);
  EXPECT_EQ(spt.root, tg.sink_node(t.po0));
  EXPECT_TRUE(spt.contains(tg.out_node(t.g3)));
  EXPECT_TRUE(spt.contains(tg.out_node(t.g1)));
  EXPECT_TRUE(spt.contains(tg.out_node(t.g2)));
  EXPECT_TRUE(spt.contains(tg.out_node(t.pi0)));
  EXPECT_TRUE(spt.contains(tg.out_node(t.pi1)));
  // The flip-flop Q is not in po0's fanin cone.
  EXPECT_FALSE(spt.contains(tg.out_node(t.r)));
}

TEST_F(SptFixture, ParentPointsTowardRoot) {
  Spt spt = extract_eps_spt(tg, tg.sink_node(t.po0), 0.0);
  EXPECT_EQ(spt.parent(tg.out_node(t.g3)), tg.sink_node(t.po0));
  EXPECT_EQ(spt.parent(tg.out_node(t.g1)), tg.out_node(t.g3));
  EXPECT_EQ(spt.parent(tg.out_node(t.pi0)), tg.out_node(t.g1));
  EXPECT_FALSE(spt.parent(spt.root).valid());
}

TEST_F(SptFixture, ParentPinsMatchNetlist) {
  Spt spt = extract_eps_spt(tg, tg.sink_node(t.po0), 0.0);
  // g1 drives pin 0 of g3; g2 drives pin 1.
  EXPECT_EQ(spt.parent_pin(tg.out_node(t.g1)), 0);
  EXPECT_EQ(spt.parent_pin(tg.out_node(t.g2)), 1);
}

TEST_F(SptFixture, DistToRootIsTreePathDelay) {
  Spt spt = extract_eps_spt(tg, tg.sink_node(t.po0), 0.0);
  // g3 -> po0: wire 3 + pad 0.5.
  EXPECT_DOUBLE_EQ(spt.dist_to_root(tg.out_node(t.g3)), 3.5);
  // g1 -> g3 -> po0: (2 + 1) + 3.5.
  EXPECT_DOUBLE_EQ(spt.dist_to_root(tg.out_node(t.g1)), 6.5);
}

TEST_F(SptFixture, NodesOrderedParentsFirst) {
  Spt spt = extract_eps_spt(tg, tg.sink_node(t.po0), 2.0);
  std::unordered_map<TimingNodeId, std::size_t> pos;
  for (std::size_t i = 0; i < spt.nodes.size(); ++i) pos[spt.nodes[i]] = i;
  for (TimingNodeId n : spt.nodes) {
    if (n == spt.root) continue;
    EXPECT_LT(pos.at(spt.parent(n)), pos.at(n));
  }
}

TEST_F(SptFixture, EpsilonWidensTheTree) {
  // Make the two branches asymmetric: shorten the pi1 -> g2 -> g3 branch so
  // its slowest path is 8.0 vs the critical 9.0, dropping it off the
  // eps = 0 tree.
  t.pl->place(t.pi1, {0, 2});
  t.pl->place(t.g2, {1, 2});
  tg.run_sta();
  Spt tight = extract_eps_spt(tg, tg.sink_node(t.po0), 0.0);
  EXPECT_TRUE(tight.contains(tg.out_node(t.g1)));
  EXPECT_FALSE(tight.contains(tg.out_node(t.g2)));

  Spt wide = extract_eps_spt(tg, tg.sink_node(t.po0), 1.5);
  EXPECT_TRUE(wide.contains(tg.out_node(t.g2)));
  EXPECT_GE(wide.size(), tight.size());
}

TEST_F(SptFixture, MembershipThreshold) {
  t.pl->place(t.pi1, {0, 2});
  t.pl->place(t.g2, {1, 2});
  tg.run_sta();
  // g2's slowest path through po0 is 8.0 vs critical 9.0; eps just below
  // 1.0 must exclude it, eps just above must include it.
  Spt below = extract_eps_spt(tg, tg.sink_node(t.po0), 0.99);
  EXPECT_FALSE(below.contains(tg.out_node(t.g2)));
  Spt above = extract_eps_spt(tg, tg.sink_node(t.po0), 1.01);
  EXPECT_TRUE(above.contains(tg.out_node(t.g2)));
}

TEST_F(SptFixture, RootOnlyForSinkWithoutCone) {
  // po1's cone is just the flip-flop Q.
  Spt spt = extract_eps_spt(tg, tg.sink_node(t.po1), 0.0);
  EXPECT_TRUE(spt.contains(tg.out_node(t.r)));
  EXPECT_EQ(spt.size(), 2u);
}

TEST_F(SptFixture, ChildrenInverseOfParent) {
  Spt spt = extract_eps_spt(tg, tg.sink_node(t.po0), 2.0);
  for (TimingNodeId n : spt.nodes) {
    if (n == spt.root) continue;
    auto kids = spt.children(spt.parent(n));
    EXPECT_NE(std::find(kids.begin(), kids.end(), n), kids.end());
  }
  // And the other way: every listed child points back at its parent.
  for (TimingNodeId p : spt.nodes)
    for (TimingNodeId kid : spt.children(p)) EXPECT_EQ(spt.parent(kid), p);
}

TEST_F(SptFixture, LegacyExtractionIsIdentical) {
  for (double eps : {0.0, 0.99, 1.5, 2.0}) {
    Spt flat = extract_eps_spt(tg, tg.sink_node(t.po0), eps);
    ReferenceSpt legacy = extract_eps_spt_reference(tg, tg.sink_node(t.po0), eps);
    ASSERT_EQ(flat.nodes, legacy.nodes);
    for (std::size_t i = 0; i < flat.nodes.size(); ++i) {
      const TimingNodeId n = flat.nodes[i];
      EXPECT_EQ(flat.parent(n), legacy.parent[i]);
      EXPECT_EQ(flat.parent_pin(n), legacy.parent_pin[i]);
      EXPECT_EQ(flat.dist_to_root(n), legacy.dist[i]);
    }
  }
}

TEST(SptGenerated, TreePropertyOnGeneratedCircuit) {
  CircuitSpec spec;
  spec.num_logic = 300;
  spec.num_inputs = 12;
  spec.num_outputs = 12;
  spec.registered_fraction = 0.25;
  spec.seed = 7;
  Netlist nl = generate_circuit(spec);
  FpgaGrid grid(FpgaGrid::min_grid_for(nl.num_logic(),
                                       nl.num_input_pads() + nl.num_output_pads()));
  Placement pl(nl, grid);
  std::size_t li = 0;
  std::size_t ii = 0;
  auto logic = grid.logic_locations();
  auto io = grid.io_locations();
  for (CellId c : nl.live_cells()) {
    if (nl.cell(c).kind == CellKind::kLogic)
      pl.place(c, logic[li++]);
    else
      pl.place(c, io[ii++ % io.size()]);
  }
  LinearDelayModel dm;
  TimingGraph tg(nl, pl, dm);

  for (double eps : {0.0, 2.0, 8.0}) {
    Spt spt = extract_eps_spt(tg, tg.critical_sink(), eps);
    // Every non-root member has exactly one parent, which is a member, and
    // membership respects the eps threshold.
    for (TimingNodeId n : spt.nodes) {
      if (n == spt.root) continue;
      ASSERT_TRUE(spt.parent(n).valid());
      EXPECT_TRUE(spt.contains(spt.parent(n)));
      double through = tg.arrival(n) + spt.dist_to_root(n);
      EXPECT_GE(through, tg.arrival(spt.root) - eps - 1e-9);
      EXPECT_LE(through, tg.arrival(spt.root) + 1e-9);
    }
    // The root's slowest member path equals the root arrival (eps-SPT always
    // contains the critical path).
    double max_through = 0;
    for (TimingNodeId n : spt.nodes)
      max_through = std::max(max_through, tg.arrival(n) + spt.dist_to_root(n));
    EXPECT_NEAR(max_through, tg.arrival(spt.root), 1e-9);
  }
}

}  // namespace
}  // namespace repro
