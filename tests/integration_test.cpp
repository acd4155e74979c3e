// Cross-module integration tests: the full three-flow pipeline on a small
// synthetic circuit, checked against the paper's qualitative claims and the
// library's internal consistency invariants.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/refine.h"
#include "core/session.h"

#include "golden_util.h"

namespace rlcr::gsino {
namespace {

struct Pipeline {
  netlist::SyntheticSpec spec;
  netlist::Netlist design;
  GsinoParams params;

  explicit Pipeline(double rate, std::size_t nets = 400, std::uint64_t seed = 12)
      : spec(netlist::tiny_spec(nets, seed)) {
    spec.grid_cols = 12;
    spec.grid_rows = 12;
    spec.chip_w_um = 600.0;
    spec.chip_h_um = 600.0;
    spec.h_capacity = 12;
    spec.v_capacity = 12;
    spec.local_sigma_regions = 2.0;
    design = netlist::generate(spec);
    params.sensitivity_rate = rate;
  }

  RoutingProblem problem() const { return make_problem(design, spec, params); }
};

TEST(Integration, ThreeFlowsReproduceThePaperShape) {
  const Pipeline pipe(0.5);
  const RoutingProblem p = pipe.problem();
  FlowSession flows(p);

  const FlowResult idno = flows.run(FlowKind::kIdNo);
  const FlowResult isino = flows.run(FlowKind::kIsino);
  const FlowResult gsino_r = flows.run(FlowKind::kGsino);

  // Paper, Table 1: conventional routing leaves crosstalk violations.
  EXPECT_GT(idno.violating, 0u);
  // Paper, Section 4: both SINO flows eliminate all of them.
  EXPECT_EQ(isino.violating, 0u);
  EXPECT_EQ(gsino_r.violating, 0u);
  // Shields cost area: both SINO flows sit at or above the baseline.
  EXPECT_GE(isino.area.area_um2(), idno.area.area_um2());
  EXPECT_GE(gsino_r.area.area_um2(), idno.area.area_um2());
  // And they actually spent shields.
  EXPECT_GT(isino.total_shields, 0.0);
  EXPECT_GT(gsino_r.total_shields, 0.0);
  // ID+NO and iSINO share the same router configuration, hence wire length
  // (the paper states iSINO's wire length equals ID+NO's).
  EXPECT_DOUBLE_EQ(isino.total_wirelength_um, idno.total_wirelength_um);
}

TEST(Integration, SensitivityRateRaisesViolationsAndShields) {
  const Pipeline lo(0.3), hi(0.5);
  const RoutingProblem p_lo = lo.problem();
  const RoutingProblem p_hi = hi.problem();
  const FlowResult idno_lo = FlowSession(p_lo).run(FlowKind::kIdNo);
  const FlowResult idno_hi = FlowSession(p_hi).run(FlowKind::kIdNo);
  EXPECT_GE(idno_hi.violating, idno_lo.violating);
  const FlowResult is_lo = FlowSession(p_lo).run(FlowKind::kIsino);
  const FlowResult is_hi = FlowSession(p_hi).run(FlowKind::kIsino);
  EXPECT_GE(is_hi.total_shields, is_lo.total_shields);
}

TEST(Integration, RefinerPassesReportConsistentStats) {
  const Pipeline pipe(0.5);
  const RoutingProblem p = pipe.problem();
  // Run GSINO phases manually to inspect the refiner.
  GsinoParams params = pipe.params;
  const FlowResult before = [&] {
    GsinoParams no_refine = params;
    no_refine.lr_max_outer_pass1 = 0;
    no_refine.lr_max_outer_pass2 = 0;
    const RoutingProblem p2 =
        make_problem(pipe.design, pipe.spec, no_refine);
    return FlowSession(p2).run(FlowKind::kGsino);
  }();
  // Refinement can only reduce the violation count.
  const FlowResult after = FlowSession(p).run(FlowKind::kGsino);
  EXPECT_LE(after.violating, before.violating);
  // And pass 2 must not create violations.
  EXPECT_EQ(after.violating, 0u);
}

TEST(Integration, EveryRouteIsConnectedInEveryFlow) {
  const Pipeline pipe(0.3);
  const RoutingProblem p = pipe.problem();
  for (FlowKind kind : {FlowKind::kIdNo, FlowKind::kIsino, FlowKind::kGsino}) {
    const FlowResult fr = FlowSession(p).run(kind);
    for (std::size_t n = 0; n < p.net_count(); ++n) {
      const auto& pins = p.router_nets()[n].pins;
      if (pins.size() < 2) continue;
      EXPECT_TRUE(fr.routing().routes[n].connects(pins))
          << flow_name(kind) << " net " << n;
    }
  }
}

TEST(Integration, NoiseIsTableLookupOfLsk) {
  const Pipeline pipe(0.4);
  const RoutingProblem p = pipe.problem();
  const FlowResult fr = FlowSession(p).run(FlowKind::kGsino);
  for (std::size_t n = 0; n < p.net_count(); n += 7) {
    EXPECT_NEAR(fr.net_noise()[n], p.lsk_table().voltage(fr.net_lsk()[n]), 1e-12);
  }
}

TEST(Integration, DeterministicEndToEnd) {
  const Pipeline pipe(0.5);
  const RoutingProblem p1 = pipe.problem();
  const RoutingProblem p2 = pipe.problem();
  const FlowResult a = FlowSession(p1).run(FlowKind::kGsino);
  const FlowResult b = FlowSession(p2).run(FlowKind::kGsino);
  EXPECT_DOUBLE_EQ(a.total_shields, b.total_shields);
  EXPECT_DOUBLE_EQ(a.area.width_um, b.area.width_um);
  EXPECT_EQ(a.violating, b.violating);
}

// ---------------------------------------------------- golden regression
//
// End-to-end flow values captured from the pre-incremental (seed) router:
// any change to Phase I deletion order, weights, or tie-breaks shows up
// here as a wirelength/violation/route-hash drift.

TEST(IntegrationGolden, ThreeFlowsPinnedAtRateHalf) {
  const Pipeline pipe(0.5);
  const RoutingProblem p = pipe.problem();
  FlowSession flows(p);

  const FlowResult idno = flows.run(FlowKind::kIdNo);
  EXPECT_DOUBLE_EQ(idno.total_wirelength_um, 132650.0);
  EXPECT_EQ(idno.violating, 86u);
  EXPECT_DOUBLE_EQ(idno.total_shields, 0.0);
  EXPECT_NEAR(idno.area.area_um2(), 925295.13888888876, 1e-6);
  EXPECT_EQ(router::route_hash(idno.routing()), 13497901764394341437ULL);

  const FlowResult isino = flows.run(FlowKind::kIsino);
  EXPECT_DOUBLE_EQ(isino.total_wirelength_um, 132650.0);
  EXPECT_EQ(isino.violating, 0u);
  EXPECT_DOUBLE_EQ(isino.total_shields, 1002.0);
  EXPECT_EQ(router::route_hash(isino.routing()), 13497901764394341437ULL);

  const FlowResult gsino_r = flows.run(FlowKind::kGsino);
  EXPECT_DOUBLE_EQ(gsino_r.total_wirelength_um, 134150.0);
  EXPECT_EQ(gsino_r.violating, 0u);
  EXPECT_DOUBLE_EQ(gsino_r.total_shields, 931.0);
  EXPECT_NEAR(gsino_r.area.area_um2(), 1413194.4444444443, 1e-6);
  EXPECT_EQ(router::route_hash(gsino_r.routing()), 12686260652761461465ULL);
}

TEST(Integration, SeedChangesOutcome) {
  Pipeline a(0.5, 400, 1), b(0.5, 400, 2);
  const FlowResult fa = FlowSession(a.problem()).run(FlowKind::kIdNo);
  const FlowResult fb = FlowSession(b.problem()).run(FlowKind::kIdNo);
  EXPECT_NE(fa.total_wirelength_um, fb.total_wirelength_um);
}

class RateSweep : public ::testing::TestWithParam<double> {};

TEST_P(RateSweep, GsinoAlwaysMeetsTheBound) {
  Pipeline pipe(GetParam());
  const RoutingProblem p = pipe.problem();
  const FlowResult fr = FlowSession(p).run(FlowKind::kGsino);
  EXPECT_EQ(fr.violating, 0u) << "rate " << GetParam();
  for (std::size_t n = 0; n < p.net_count(); ++n) {
    EXPECT_LE(fr.net_noise()[n], fr.bound_v + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, RateSweep,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7));

}  // namespace
}  // namespace rlcr::gsino
