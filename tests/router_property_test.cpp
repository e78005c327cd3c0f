// Property tests of the PathFinder router over random placed circuits:
// capacity feasibility, monotonicity in channel width, conservation of
// connections, and the low-stress relationships the evaluation relies on.

#include <gtest/gtest.h>

#include "gen/circuit_gen.h"
#include "place/annealer.h"
#include "route/router.h"
#include "timing/timing_graph.h"

namespace repro {
namespace {

struct Rig {
  Netlist nl;
  FpgaGrid grid;
  LinearDelayModel dm;
  Placement pl;

  static Netlist make(std::uint64_t seed) {
    CircuitSpec spec;
    spec.num_logic = 90;
    spec.num_inputs = 8;
    spec.num_outputs = 8;
    spec.registered_fraction = 0.2;
    spec.depth = 6;
    spec.seed = seed;
    return generate_circuit(spec);
  }

  explicit Rig(std::uint64_t seed)
      : nl(make(seed)),
        grid(FpgaGrid::min_grid_for(nl.num_logic(),
                                    nl.num_input_pads() + nl.num_output_pads())),
        pl([&] {
          Rng rng(seed * 3 + 1);
          return random_placement(nl, grid, rng);
        }()) {}

  std::size_t num_connections() const {
    std::size_t n = 0;
    for (NetId net : nl.live_nets()) n += nl.net(net).sinks.size();
    return n;
  }
};

class RouterSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RouterSweep, EveryConnectionRouted) {
  Rig rig(GetParam());
  RoutingResult r = route(rig.nl, rig.pl, RouterOptions{});
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.connection_length.size(), rig.num_connections());
}

TEST_P(RouterSweep, LengthsAtLeastManhattan) {
  Rig rig(GetParam());
  RoutingResult r = route(rig.nl, rig.pl, RouterOptions{});
  for (NetId n : rig.nl.live_nets()) {
    Point d = rig.pl.location(rig.nl.net(n).driver);
    for (const Sink& s : rig.nl.net(n).sinks)
      EXPECT_GE(r.length_of(s.cell, s.pin, -1),
                manhattan(d, rig.pl.location(s.cell)));
  }
}

TEST_P(RouterSweep, CapacityRespectedAtWmin) {
  Rig rig(GetParam());
  int wmin = find_min_channel_width(rig.nl, rig.pl);
  RouterOptions opt;
  opt.channel_width = wmin;
  RoutingResult r = route(rig.nl, rig.pl, opt);
  ASSERT_TRUE(r.success);
  EXPECT_LE(r.max_channel_occupancy, wmin);
}

TEST_P(RouterSweep, SuccessMonotoneInWidth) {
  Rig rig(GetParam());
  int wmin = find_min_channel_width(rig.nl, rig.pl);
  for (int w : {wmin, wmin + 1, wmin + 3}) {
    RouterOptions opt;
    opt.channel_width = w;
    EXPECT_TRUE(route(rig.nl, rig.pl, opt).success) << "width " << w;
  }
}

TEST_P(RouterSweep, InfiniteWirelengthLowerBoundsConstrained) {
  // Shortest-path (infinite) routing uses no more wire than a capacity-
  // constrained routing that must detour.
  Rig rig(GetParam());
  RoutingResult inf = route(rig.nl, rig.pl, RouterOptions{});
  int wmin = find_min_channel_width(rig.nl, rig.pl);
  RouterOptions tight;
  tight.channel_width = wmin;
  RoutingResult con = route(rig.nl, rig.pl, tight);
  ASSERT_TRUE(con.success);
  EXPECT_LE(inf.total_wirelength, con.total_wirelength * 1.02 + 4);
}

TEST_P(RouterSweep, WminAgreesAcrossSearchModes) {
  // The W_min search (warm-started probes, stall abort) must find the same
  // minimum width as a brute-force scan: the smallest width whose cold
  // route() succeeds with the stall abort off. On these seeds the scan also
  // equals the W_min of the removed conservative search (Dijkstra
  // expansion, full rip-up, cold probes).
  Rig rig(GetParam());
  RouterOptions scan;
  scan.stall_abort_window = 0;
  int brute = 0;
  for (scan.channel_width = 1;; ++scan.channel_width) {
    if (route(rig.nl, rig.pl, scan).success) {
      brute = scan.channel_width;
      break;
    }
  }
  EXPECT_EQ(find_min_channel_width(rig.nl, rig.pl), brute);
}

TEST_P(RouterSweep, SelfCheckedRouteAtWmin) {
  // The occupancy-recomputation self-check must hold at the tightest width,
  // where the incremental rip-up bookkeeping is most stressed.
  Rig rig(GetParam());
  int wmin = find_min_channel_width(rig.nl, rig.pl);
  RouterOptions opt;
  opt.channel_width = wmin;
  opt.self_check = true;
  RoutingResult r = route(rig.nl, rig.pl, opt);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.connection_length.size(), rig.num_connections());
}

TEST_P(RouterSweep, CriticalityRoutingHelpsRoutedDelay) {
  Rig rig(GetParam());
  LinearDelayModel dm;
  TimingGraph tg(rig.nl, rig.pl, dm);
  auto crit_fn = [&tg](CellId sink, int pin) -> double {
    for (std::size_t e = 0; e < tg.num_edges(); ++e) {
      const TimingEdge& ed = tg.edge(e);
      if (tg.node(ed.to).cell == sink && ed.pin == pin)
        return tg.edge_criticality(e);
    }
    return 0.0;
  };
  RoutingResult plain = route(rig.nl, rig.pl, RouterOptions{});
  RoutingResult timed = route(rig.nl, rig.pl, RouterOptions{}, crit_fn);
  double d_plain = routed_critical_delay(rig.nl, rig.pl, dm, plain);
  double d_timed = routed_critical_delay(rig.nl, rig.pl, dm, timed);
  EXPECT_LE(d_timed, d_plain + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouterSweep, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace repro
