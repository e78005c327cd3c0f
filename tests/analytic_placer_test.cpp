#include <gtest/gtest.h>

#include <cstdint>

#include "gen/circuit_gen.h"
#include "place/analytic/analytic_placer.h"
#include "place/placer.h"
#include "timing/timing_graph.h"

namespace repro {
namespace {

const McncCircuit& suite_entry(const char* name) {
  if (const McncCircuit* c = find_mcnc_circuit(name)) return *c;
  ADD_FAILURE() << "no suite entry " << name;
  return mcnc_suite().front();
}

struct Prepared {
  Netlist nl;
  FpgaGrid grid;
  LinearDelayModel dm;
  Prepared(const char* circuit, double scale, std::uint64_t seed)
      : nl(generate_circuit(spec_for(suite_entry(circuit), scale, seed))),
        grid(FpgaGrid::min_grid_for(
            nl.num_logic(), nl.num_input_pads() + nl.num_output_pads())) {}
};

std::uint64_t fingerprint(const Netlist& nl, const Placement& pl) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  for (CellId c : nl.live_cell_ids()) {
    Point p = pl.location(c);
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(p.x)));
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(p.y)));
  }
  return h;
}

double sta_critical(const Netlist& nl, const Placement& pl,
                    const LinearDelayModel& dm) {
  TimingGraph tg(nl, pl, dm);
  tg.run_sta();
  return tg.critical_delay();
}

TEST(AnalyticPlacer, LegalAndOverflowConverges) {
  Prepared p("tseng", 0.3, 11);
  AnalyticPlacerOptions opt;
  AnalyticStats st;
  Placement pl = analytic_place(p.nl, p.grid, p.dm, opt, &st);
  EXPECT_TRUE(pl.legal()) << pl.check_legal();
  EXPECT_GT(st.iterations, 0);
  EXPECT_LE(st.final_overflow, 0.5);  // spreading actually happened
  // pin evals = iterations x (flat pin count of the net model): a positive
  // exact multiple of the iteration count.
  EXPECT_GT(st.gradient_pin_evals, 0u);
  EXPECT_EQ(st.gradient_pin_evals %
                static_cast<std::uint64_t>(st.iterations),
            0u);
}

// The gradient loop parallelizes over nets and cells, but every reduction
// runs in a fixed order — the trajectory must be bit-identical for any
// thread count, which is also the run-to-run determinism guarantee.
TEST(AnalyticPlacer, DeterministicAcrossThreadCounts) {
  std::uint64_t ref_fp = 0;
  AnalyticStats ref_st;
  for (int pass = 0; pass < 3; ++pass) {
    const int threads[] = {1, 2, 4};
    Prepared p("ex5p", 0.3, 7);
    AnalyticPlacerOptions opt;
    opt.num_threads = threads[pass];
    AnalyticStats st;
    Placement pl = analytic_place(p.nl, p.grid, p.dm, opt, &st);
    const std::uint64_t fp = fingerprint(p.nl, pl);
    if (pass == 0) {
      ref_fp = fp;
      ref_st = st;
      continue;
    }
    EXPECT_EQ(fp, ref_fp) << "threads=" << threads[pass];
    EXPECT_EQ(st.iterations, ref_st.iterations);
    EXPECT_EQ(st.gradient_pin_evals, ref_st.gradient_pin_evals);
    EXPECT_EQ(st.snap_displaced, ref_st.snap_displaced);
    EXPECT_DOUBLE_EQ(st.final_overflow, ref_st.final_overflow);
    EXPECT_DOUBLE_EQ(st.hpwl_after_snap, ref_st.hpwl_after_snap);
  }
}

// The full analytic pipeline through the Placer interface, with the
// place.occupancy + sta.drift batteries armed: any occupancy corruption or
// STA drift introduced by snap/legalize/polish throws AuditError.
TEST(PlacerInterface, AnalyticPipelineAuditorClean) {
  Prepared p("tseng", 0.3, 3);
  PlacerOptions popt;
  popt.backend = PlacerBackend::kAnalytic;
  popt.audit = AuditLevel::kStage;
  PlacerStats st;
  Placement pl = place_circuit(p.nl, p.grid, p.dm, popt, &st);
  EXPECT_TRUE(pl.legal()) << pl.check_legal();
  EXPECT_EQ(st.backend, PlacerBackend::kAnalytic);
  EXPECT_GT(st.analytic.gradient_pin_evals, 0u);
  EXPECT_GT(st.polish.moves_proposed, 0u);
  EXPECT_GT(st.work_units(), st.analytic.gradient_pin_evals);
}

TEST(PlacerInterface, HybridBackendLegal) {
  Prepared p("ex5p", 0.2, 5);
  PlacerOptions popt;
  popt.backend = PlacerBackend::kHybrid;
  PlacerStats st;
  Placement pl = place_circuit(p.nl, p.grid, p.dm, popt, &st);
  EXPECT_TRUE(pl.legal()) << pl.check_legal();
  EXPECT_EQ(st.backend, PlacerBackend::kHybrid);
}

TEST(PlacerInterface, BackendNamesRoundTrip) {
  for (PlacerBackend b : {PlacerBackend::kAnnealer, PlacerBackend::kAnalytic,
                          PlacerBackend::kHybrid}) {
    PlacerBackend parsed;
    ASSERT_TRUE(parse_placer_backend(placer_backend_name(b), &parsed));
    EXPECT_EQ(parsed, b);
  }
  PlacerBackend unused;
  EXPECT_FALSE(parse_placer_backend("sa", &unused));
  EXPECT_FALSE(parse_placer_backend("", &unused));
}

// Quality pin on three paper circuits: the analytic pipeline must land
// within a fixed factor of the annealer on post-place STA critical delay and
// bounding-box wirelength. Both runs are deterministic, so the ratios are
// fixed numbers; the bounds leave room for retuning without letting a real
// regression (a scrambled placement is 2-5x worse) through.
TEST(PlacerInterface, QualityWithinPinnedRatioOfAnnealer) {
  struct Case {
    const char* circuit;
    double scale;
  };
  for (const Case& c : {Case{"tseng", 0.4}, Case{"ex5p", 0.4},
                        Case{"apex4", 0.3}}) {
    Prepared base(c.circuit, c.scale, 13);

    Netlist nl_sa = base.nl;
    PlacerOptions sa;
    sa.backend = PlacerBackend::kAnnealer;
    Placement pl_sa = place_circuit(nl_sa, base.grid, base.dm, sa);
    const double crit_sa = sta_critical(nl_sa, pl_sa, base.dm);
    const double wl_sa = pl_sa.total_wirelength();

    Netlist nl_an = base.nl;
    PlacerOptions an;
    an.backend = PlacerBackend::kAnalytic;
    Placement pl_an = place_circuit(nl_an, base.grid, base.dm, an);
    const double crit_an = sta_critical(nl_an, pl_an, base.dm);
    const double wl_an = pl_an.total_wirelength();

    // Sub-thousand-cell circuits are the annealer's best case and the
    // analytic pipeline's worst (measured ratios up to ~1.27 on ex5p at
    // this scale; the bench sweep's geomean at 2k-30k is ~1.03-1.05). A
    // scrambled or degenerate placement lands at 2-5x.
    EXPECT_LE(crit_an, crit_sa * 1.40) << c.circuit;
    EXPECT_LE(wl_an, wl_sa * 1.30) << c.circuit;
    // And it must be a real placement, not a degenerate legal one.
    EXPECT_GT(crit_an, 0.0);
    EXPECT_GT(wl_an, 0.0);
  }
}

}  // namespace
}  // namespace repro
