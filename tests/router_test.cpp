#include <gtest/gtest.h>

#include "gen/circuit_gen.h"
#include "place/annealer.h"
#include "route/router.h"
#include "test_helpers.h"
#include "timing/timing_graph.h"
#include "util/rng.h"

namespace repro {
namespace {

using testing::TinyPlaced;

/// Medium generated circuit with a random placement: enough congestion for
/// the negotiation/W_min machinery to be exercised, small enough to stay
/// fast. Same fixture as the pinned goldens below.
struct SeededPlaced {
  Netlist nl;
  FpgaGrid grid;
  Placement pl;

  static Netlist make() {
    CircuitSpec spec;
    spec.num_logic = 60;
    spec.num_inputs = 8;
    spec.num_outputs = 8;
    spec.registered_fraction = 0.2;
    spec.depth = 6;
    spec.seed = 1;
    return generate_circuit(spec);
  }

  SeededPlaced()
      : nl(make()),
        grid(FpgaGrid::min_grid_for(nl.num_logic(),
                                    nl.num_input_pads() + nl.num_output_pads())),
        pl([&] {
          Rng rng(4);
          return random_placement(nl, grid, rng);
        }()) {}
};

/// Reference W_min through the public API only: the smallest width whose
/// cold route() succeeds with the stall abort off (every width gets the
/// full pass budget). On these fixtures it equals the W_min of the removed
/// conservative search (Dijkstra expansion, full rip-up, cold probes).
int brute_force_wmin(const Netlist& nl, const Placement& pl) {
  RouterOptions opt;
  opt.stall_abort_window = 0;
  for (opt.channel_width = 1;; ++opt.channel_width)
    if (route(nl, pl, opt).success) return opt.channel_width;
}

TEST(Router, InfiniteResourcesRouteEverything) {
  TinyPlaced t;
  RouterOptions opt;
  opt.channel_width = 0;
  RoutingResult r = route(t.nl, *t.pl, opt);
  EXPECT_TRUE(r.success);
  EXPECT_GT(r.total_wirelength, 0);
  EXPECT_GE(r.max_channel_occupancy, 1);
}

TEST(Router, ConnectionLengthsAtLeastManhattan) {
  TinyPlaced t;
  RouterOptions opt;
  RoutingResult r = route(t.nl, *t.pl, opt);
  for (NetId n : t.nl.live_nets()) {
    const Net& net = t.nl.net(n);
    Point d = t.pl->location(net.driver);
    for (const Sink& s : net.sinks) {
      int len = r.length_of(s.cell, s.pin, -1);
      ASSERT_GE(len, 0) << "connection missing from routing";
      EXPECT_GE(len, manhattan(d, t.pl->location(s.cell)));
    }
  }
}

TEST(Router, InfiniteRoutingIsShortestPath) {
  // With no congestion every connection should match Manhattan distance
  // exactly when the net has a single sink.
  Netlist nl;
  CellId a = nl.add_input_pad("a");
  CellId g = nl.add_logic("g", {nl.cell(a).output}, 0b10, false);
  CellId po = nl.add_output_pad("po");
  nl.connect(nl.cell(g).output, po, 0);
  FpgaGrid grid(4, 2);
  Placement pl(nl, grid);
  pl.place(a, {0, 2});
  pl.place(g, {2, 3});
  pl.place(po, {5, 1});
  RoutingResult r = route(nl, pl, RouterOptions{});
  EXPECT_EQ(r.length_of(g, 0, -1), manhattan({0, 2}, {2, 3}));
  EXPECT_EQ(r.length_of(po, 0, -1), manhattan({2, 3}, {5, 1}));
}

TEST(Router, SteinerSharingShortensMultiFanout) {
  // Driver with two sinks on the same row: the shared trunk must be counted
  // once (wirelength < sum of the two Manhattan distances).
  Netlist nl;
  CellId a = nl.add_input_pad("a");
  CellId g1 = nl.add_logic("g1", {nl.cell(a).output}, 0b10, false);
  CellId g2 = nl.add_logic("g2", {nl.cell(a).output}, 0b10, false);
  CellId po1 = nl.add_output_pad("po1");
  CellId po2 = nl.add_output_pad("po2");
  nl.connect(nl.cell(g1).output, po1, 0);
  nl.connect(nl.cell(g2).output, po2, 0);
  FpgaGrid grid(6, 2);
  Placement pl(nl, grid);
  pl.place(a, {0, 1});
  pl.place(g1, {5, 1});
  pl.place(g2, {6, 1});
  pl.place(po1, {7, 1});
  pl.place(po2, {7, 2});
  RoutingResult r = route(nl, pl, RouterOptions{});
  // Net a: sinks at distance 5 and 6 along one line; shared tree uses 6.
  // Total wirelength must be below the unshared sum for this net.
  EXPECT_TRUE(r.success);
  EXPECT_LE(r.total_wirelength, 6 + 2 + 2);  // a-tree + two output hops
}

TEST(Router, CapacityOneForcesDetours) {
  // Two parallel nets through a narrow region with W=1: one must detour,
  // but routing must still succeed.
  Netlist nl;
  CellId a = nl.add_input_pad("a");
  CellId b = nl.add_input_pad("b");
  CellId ga = nl.add_logic("ga", {nl.cell(a).output}, 0b10, false);
  CellId gb = nl.add_logic("gb", {nl.cell(b).output}, 0b10, false);
  CellId poa = nl.add_output_pad("poa");
  CellId pob = nl.add_output_pad("pob");
  nl.connect(nl.cell(ga).output, poa, 0);
  nl.connect(nl.cell(gb).output, pob, 0);
  FpgaGrid grid(4, 2);
  Placement pl(nl, grid);
  pl.place(a, {0, 2});
  pl.place(b, {0, 2});  // same pad location (io_rat 2)
  pl.place(ga, {1, 2});
  pl.place(gb, {2, 2});
  pl.place(poa, {5, 2});
  pl.place(pob, {5, 2});
  RouterOptions opt;
  opt.channel_width = 1;
  RoutingResult r = route(nl, pl, opt);
  EXPECT_TRUE(r.success);
  EXPECT_LE(r.max_channel_occupancy, 1);
}

TEST(Router, MinChannelWidthMonotone) {
  TinyPlaced t;
  int wmin = find_min_channel_width(t.nl, *t.pl);
  ASSERT_GE(wmin, 1);
  // Routing at wmin succeeds; at wmin-1 it must fail (if wmin > 1).
  RouterOptions at;
  at.channel_width = wmin;
  EXPECT_TRUE(route(t.nl, *t.pl, at).success);
  if (wmin > 1) {
    RouterOptions below;
    below.channel_width = wmin - 1;
    EXPECT_FALSE(route(t.nl, *t.pl, below).success);
  }
}

TEST(Router, RoutedDelayAtLeastPlacedEstimate) {
  TinyPlaced t;
  TimingGraph tg(t.nl, *t.pl, t.dm);
  double placed = tg.critical_delay();
  RoutingResult inf = route(t.nl, *t.pl, RouterOptions{});
  double routed = routed_critical_delay(t.nl, *t.pl, t.dm, inf);
  EXPECT_GE(routed, placed - 1e-9);
}

TEST(Router, LowStressNoWorseStructure) {
  // W_ls >= W_inf critical path (congestion can only lengthen wires); both
  // on an annealed medium circuit — the Table I relationship.
  CircuitSpec spec;
  spec.num_logic = 120;
  spec.num_inputs = 10;
  spec.num_outputs = 10;
  spec.depth = 7;
  spec.seed = 5;
  Netlist nl = generate_circuit(spec);
  FpgaGrid grid(FpgaGrid::min_grid_for(nl.num_logic(),
                                       nl.num_input_pads() + nl.num_output_pads()));
  LinearDelayModel dm;
  AnnealerOptions aopt;
  aopt.inner_num = 0.5;
  Placement pl = anneal_placement(nl, grid, dm, aopt);

  RoutingResult inf = route(nl, pl, RouterOptions{});
  double crit_inf = routed_critical_delay(nl, pl, dm, inf);
  int wmin = find_min_channel_width(nl, pl);
  RouterOptions ls;
  ls.channel_width = static_cast<int>(std::ceil(1.2 * wmin));
  RoutingResult rls = route(nl, pl, ls);
  EXPECT_TRUE(rls.success);
  double crit_ls = routed_critical_delay(nl, pl, dm, rls);
  EXPECT_GE(crit_ls, crit_inf - 1e-9);
  EXPECT_LE(crit_ls, crit_inf * 1.5);  // low-stress, not pathological
}

TEST(Router, DeterministicAcrossRuns) {
  TinyPlaced t;
  RoutingResult a = route(t.nl, *t.pl, RouterOptions{});
  RoutingResult b = route(t.nl, *t.pl, RouterOptions{});
  EXPECT_EQ(a.total_wirelength, b.total_wirelength);
  EXPECT_EQ(a.connection_length, b.connection_length);
}

TEST(Router, DeterministicInBothRerouteModes) {
  // Same inputs -> bit-identical results under incremental rip-up,
  // including the per-pass work counters.
  SeededPlaced s;
  RouterOptions opt;
  opt.channel_width = 8;  // congested enough for multiple passes
  RoutingResult a = route(s.nl, s.pl, opt);
  RoutingResult b = route(s.nl, s.pl, opt);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.total_wirelength, b.total_wirelength);
  EXPECT_EQ(a.connection_length, b.connection_length);
  EXPECT_EQ(a.pass_stats, b.pass_stats);
  EXPECT_EQ(a.nodes_expanded, b.nodes_expanded);
}

TEST(Router, AStarMatchesDijkstraOracle) {
  // The lookahead is admissible and consistent, so every A* maze search must
  // find the same path cost as a reference Dijkstra — uncongested,
  // congested, and with timing-driven criticalities.
  SeededPlaced s;
  RouterOptions opt;
  opt.verify_lookahead = true;

  opt.channel_width = 0;
  RoutingResult inf = route(s.nl, s.pl, opt);
  EXPECT_TRUE(inf.success);
  EXPECT_EQ(inf.lookahead_mismatches, 0u);

  opt.channel_width = 8;
  RoutingResult tight = route(s.nl, s.pl, opt);
  EXPECT_EQ(tight.lookahead_mismatches, 0u);

  auto crit = [](CellId cell, int pin) {
    return ((cell.index() * 7 + static_cast<std::size_t>(pin)) % 10) / 10.0;
  };
  RoutingResult crit_routed = route(s.nl, s.pl, opt, crit);
  EXPECT_EQ(crit_routed.lookahead_mismatches, 0u);
  EXPECT_GT(crit_routed.nodes_expanded, 0u);
}

TEST(Router, IncrementalMatchesFullRerouteWmin) {
  // The incremental rip-up search finds the width a full-reroute search
  // found (equal to the brute-force reference on this fixture).
  SeededPlaced s;
  EXPECT_EQ(find_min_channel_width(s.nl, s.pl), brute_force_wmin(s.nl, s.pl));
}

TEST(Router, WarmWminMatchesColdAndReportsStats) {
  SeededPlaced s;
  WminSearchStats ws;
  const int w_warm = find_min_channel_width(s.nl, s.pl, RouterOptions{}, &ws);
  EXPECT_EQ(w_warm, brute_force_wmin(s.nl, s.pl));

  EXPECT_LE(ws.lower_bound, ws.wmin);
  EXPECT_LE(ws.wmin, ws.upper_bound);
  ASSERT_FALSE(ws.probes.empty());
  EXPECT_EQ(ws.probes.front().width, 0);  // infinite-resource seeding run
  bool wmin_probed_ok = false;
  for (const WminProbeStats& p : ws.probes)
    wmin_probed_ok |= p.width == ws.wmin && p.success;
  EXPECT_TRUE(wmin_probed_ok);
  EXPECT_GT(ws.nodes_expanded, 0u);
  EXPECT_GE(ws.heap_pushes, ws.heap_pops);
  // The warm search ends with the cold verification of the returned width.
  EXPECT_TRUE(ws.probes.back().success);
  EXPECT_EQ(ws.probes.back().width, ws.wmin);
  EXPECT_FALSE(ws.probes.back().warm);
  // Warm probes actually reuse the persistent router.
  bool any_warm = false;
  for (const WminProbeStats& p : ws.probes) any_warm |= p.warm;
  EXPECT_TRUE(any_warm);
  // The warm search's answer is always reproducible by a cold route().
  RouterOptions at;
  at.channel_width = w_warm;
  at.self_check = true;
  EXPECT_TRUE(route(s.nl, s.pl, at).success);
}

TEST(Router, PinnedGoldensSmallSeedCircuit) {
  // Pinned quality numbers for the seeded fixture. A change here means the
  // router's routed quality moved: verify W_min and wirelength did not
  // regress before re-pinning.
  SeededPlaced s;
  EXPECT_EQ(find_min_channel_width(s.nl, s.pl), 7);

  RoutingResult inf = route(s.nl, s.pl, RouterOptions{});
  EXPECT_TRUE(inf.success);
  EXPECT_EQ(inf.total_wirelength, 717);

  RouterOptions at;
  at.channel_width = 7;
  at.self_check = true;
  RoutingResult r = route(s.nl, s.pl, at);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.total_wirelength, 784);
  EXPECT_EQ(r.connection_length.size(), 196u);
}

TEST(Router, BoundedSearchReportsUnroutedConnections) {
  // A connection that exhausts its expansion budget must be recorded as
  // unrouted — success false, counted — never silently dropped (the release
  // -mode failure mode this replaces was an assert that compiled out).
  SeededPlaced s;
  RouterOptions opt;
  opt.max_expansions_per_connection = 1;
  opt.max_iterations = 2;
  opt.self_check = true;
  RoutingResult r = route(s.nl, s.pl, opt);
  EXPECT_FALSE(r.success);
  EXPECT_GT(r.unrouted_connections, 0);
  ASSERT_FALSE(r.pass_stats.empty());
  EXPECT_EQ(r.pass_stats.back().unrouted_connections, r.unrouted_connections);
}

TEST(Router, StallAbortOnlyDeclaresTrueFailures) {
  // The early stall abort must agree with the full 30-pass negotiation on
  // both sides of W_min.
  SeededPlaced s;
  const int wmin = find_min_channel_width(s.nl, s.pl);
  for (int window : {0, 2}) {
    RouterOptions opt;
    opt.stall_abort_window = window;
    opt.channel_width = wmin;
    EXPECT_TRUE(route(s.nl, s.pl, opt).success) << "window " << window;
    opt.channel_width = wmin - 1;
    EXPECT_FALSE(route(s.nl, s.pl, opt).success) << "window " << window;
  }
}

}  // namespace
}  // namespace repro
