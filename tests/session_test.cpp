// The staged, re-entrant FlowSession API: artifact caching and
// invalidation, what-if re-solves that skip Phase I (proven by stage
// counters and bit-identical to from-scratch runs), and cross-flow routing
// artifact sharing that reproduces the experiment goldens.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/experiment.h"
#include "core/refine.h"
#include "core/session.h"

#include "golden_util.h"

namespace rlcr::gsino {
namespace {

/// Same configuration as integration_test's Pipeline, whose golden values
/// (IntegrationGolden.ThreeFlowsPinnedAtRateHalf) this file re-pins for
/// the shared-routing-artifact path.
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

// ---------------------------------------------------------- what-if reuse

TEST(Session, BoundResolveSkipsPhaseIAndIsBitIdentical) {
  const Pipeline pipe(0.5);
  const RoutingProblem p = pipe.problem();
  FlowSession session(p);

  // GSINO at the params bound (0.15), then a what-if re-solve at 0.20.
  const FlowResult at15 = session.run(FlowKind::kGsino);
  ASSERT_EQ(session.counters().route_executed, 1u);

  Scenario looser;
  looser.bound_v = 0.20;
  const FlowResult at20 = session.run(FlowKind::kGsino, looser);

  // Phase I was requested again but not re-executed (the stage counters
  // are the proof the artifact was reused)...
  EXPECT_EQ(session.counters().route_requests, 2u);
  EXPECT_EQ(session.counters().route_executed, 1u);
  // ...while budgeting and Phase II ran for the new bound.
  EXPECT_EQ(session.counters().budget_executed, 2u);
  EXPECT_EQ(session.counters().solve_executed, 2u);
  EXPECT_EQ(at20.phase1.get(), at15.phase1.get());
  EXPECT_DOUBLE_EQ(at20.bound_v, 0.20);

  // Bit-identical to a from-scratch run whose params carry bound 0.20.
  Pipeline scratch(0.5);
  scratch.params.crosstalk_bound_v = 0.20;
  const RoutingProblem p20 = scratch.problem();
  FlowSession fresh(p20);
  const FlowResult ref = fresh.run(FlowKind::kGsino);

  EXPECT_EQ(router::route_hash(at20.routing()),
            router::route_hash(ref.routing()));
  EXPECT_DOUBLE_EQ(at20.total_wirelength_um, ref.total_wirelength_um);
  EXPECT_DOUBLE_EQ(at20.total_shields, ref.total_shields);
  EXPECT_EQ(at20.violating, ref.violating);
  EXPECT_EQ(at20.unfixable, ref.unfixable);
  EXPECT_DOUBLE_EQ(at20.area.width_um, ref.area.width_um);
  EXPECT_DOUBLE_EQ(at20.area.height_um, ref.area.height_um);
  ASSERT_EQ(at20.net_lsk().size(), ref.net_lsk().size());
  for (std::size_t n = 0; n < at20.net_lsk().size(); ++n) {
    EXPECT_EQ(at20.net_lsk()[n], ref.net_lsk()[n]) << "net " << n;
    EXPECT_EQ(at20.net_noise()[n], ref.net_noise()[n]) << "net " << n;
  }
}

TEST(Session, BudgetMarginResolveAlsoReusesRouting) {
  const Pipeline pipe(0.3);
  const RoutingProblem p = pipe.problem();
  FlowSession session(p);
  (void)session.run(FlowKind::kGsino);
  Scenario tighter;
  tighter.budget_margin = 0.9;
  const FlowResult fr = session.run(FlowKind::kGsino, tighter);
  EXPECT_EQ(session.counters().route_executed, 1u);
  EXPECT_EQ(fr.budget->margin, 0.9);
  EXPECT_EQ(fr.violating, 0u);
}

TEST(Session, RepeatedRunIsFullyCached) {
  // Every stage — including Phase III, whose output is deterministic —
  // cache-hits when the same scenario is requested twice.
  const Pipeline pipe(0.3);
  const RoutingProblem p = pipe.problem();
  FlowSession session(p);
  const FlowResult a = session.run(FlowKind::kGsino);
  const StageCounters first = session.counters();
  const FlowResult b = session.run(FlowKind::kGsino);
  EXPECT_EQ(session.counters().route_executed, first.route_executed);
  EXPECT_EQ(session.counters().budget_executed, first.budget_executed);
  EXPECT_EQ(session.counters().solve_executed, first.solve_executed);
  EXPECT_EQ(session.counters().refine_executed, first.refine_executed);
  EXPECT_EQ(session.counters().refine_requests, first.refine_requests + 1);
  EXPECT_EQ(a.phase3.get(), b.phase3.get());  // same refine artifact

  // No Phase III option is part of the refine identity: another thread
  // count is still a cache hit on the same artifact.
  Scenario threaded;
  threaded.refine.threads = 8;
  const FlowResult c = session.run(FlowKind::kGsino, threaded);
  EXPECT_EQ(session.counters().refine_executed, first.refine_executed);
  EXPECT_EQ(a.phase3.get(), c.phase3.get());
}

TEST(Session, MarginIsNormalizedOutForNonMarginRules) {
  // Only GSINO's budget rule applies the margin; a margin-only what-if on
  // iSINO must be a full cache hit (no budget or Phase II re-run).
  const Pipeline pipe(0.3);
  const RoutingProblem p = pipe.problem();
  FlowSession session(p);
  (void)session.run(FlowKind::kIsino);
  const std::size_t budgets = session.counters().budget_executed;
  const std::size_t solves = session.counters().solve_executed;
  Scenario tighter;
  tighter.budget_margin = 0.9;
  (void)session.run(FlowKind::kIsino, tighter);
  EXPECT_EQ(session.counters().budget_executed, budgets);
  EXPECT_EQ(session.counters().solve_executed, solves);
}

// ------------------------------------------------- cross-flow artifact use

TEST(Session, ThreeFlowsShareOneBaselineRoutingArtifact) {
  const Pipeline pipe(0.5);
  const RoutingProblem p = pipe.problem();
  FlowSession session(p);

  const FlowResult idno = session.run(FlowKind::kIdNo);
  const FlowResult isino = session.run(FlowKind::kIsino);
  const FlowResult gsino_r = session.run(FlowKind::kGsino);

  // ID+NO and iSINO route with the identical profile and share the
  // artifact; GSINO's shield-reserving profile routes once more. Two
  // Phase I executions for three flows.
  EXPECT_EQ(idno.phase1.get(), isino.phase1.get());
  EXPECT_NE(gsino_r.phase1.get(), idno.phase1.get());
  EXPECT_EQ(session.counters().route_requests, 3u);
  EXPECT_EQ(session.counters().route_executed, 2u);

  // The shared-artifact path reproduces the experiment goldens pinned by
  // IntegrationGolden.ThreeFlowsPinnedAtRateHalf.
  EXPECT_DOUBLE_EQ(idno.total_wirelength_um, 132650.0);
  EXPECT_EQ(idno.violating, 86u);
  EXPECT_DOUBLE_EQ(idno.total_shields, 0.0);
  EXPECT_EQ(router::route_hash(idno.routing()), 13497901764394341437ULL);

  EXPECT_DOUBLE_EQ(isino.total_wirelength_um, 132650.0);
  EXPECT_EQ(isino.violating, 0u);
  EXPECT_DOUBLE_EQ(isino.total_shields, 1002.0);
  EXPECT_EQ(router::route_hash(isino.routing()), 13497901764394341437ULL);

  EXPECT_DOUBLE_EQ(gsino_r.total_wirelength_um, 134150.0);
  EXPECT_EQ(gsino_r.violating, 0u);
  EXPECT_DOUBLE_EQ(gsino_r.total_shields, 931.0);
  EXPECT_EQ(router::route_hash(gsino_r.routing()), 12686260652761461465ULL);
}

TEST(Session, ExperimentRunnerSharesRoutingPerCell) {
  // run_one drives one session per (circuit, rate) cell; its summaries
  // must match three independent from-scratch flows.
  netlist::SyntheticSpec spec = netlist::tiny_spec(180, 7);
  GsinoParams params;
  params.lr_max_outer_pass1 = 500;
  params.lr_max_outer_pass2 = 500;
  const CircuitRun cell = ExperimentRunner::run_one(spec, 0.5, params);

  GsinoParams p = params;
  p.sensitivity_rate = 0.5;
  const netlist::Netlist design = netlist::generate(spec);
  const RoutingProblem problem = make_problem(design, spec, p);
  const FlowSummary idno =
      summarize(FlowSession(problem).run(FlowKind::kIdNo), problem);
  const FlowSummary isino =
      summarize(FlowSession(problem).run(FlowKind::kIsino), problem);
  const FlowSummary gsino_s =
      summarize(FlowSession(problem).run(FlowKind::kGsino), problem);

  EXPECT_EQ(cell.idno.violating, idno.violating);
  EXPECT_DOUBLE_EQ(cell.idno.total_wirelength_um, idno.total_wirelength_um);
  EXPECT_DOUBLE_EQ(cell.isino.total_shields, isino.total_shields);
  EXPECT_DOUBLE_EQ(cell.isino.total_wirelength_um, isino.total_wirelength_um);
  EXPECT_DOUBLE_EQ(cell.gsino.total_shields, gsino_s.total_shields);
  EXPECT_EQ(cell.gsino.violating, gsino_s.violating);
}

// ----------------------------------------------------- staged invalidation

TEST(Session, ExplicitProfileChangeInvalidatesRouting) {
  const Pipeline pipe(0.3);
  const RoutingProblem p = pipe.problem();
  FlowSession session(p);
  auto base = session.route(FlowKind::kIdNo);

  // Same profile -> cache hit (thread count is not part of the identity).
  router::IdRouterOptions same = session.router_profile(FlowKind::kIdNo);
  same.threads = 7;
  EXPECT_EQ(session.route(same).get(), base.get());
  EXPECT_EQ(session.counters().route_executed, 1u);

  // Different weights -> different artifact.
  router::IdRouterOptions heavier = session.router_profile(FlowKind::kIdNo);
  heavier.weights.gamma = 80.0;
  EXPECT_NE(session.route(heavier).get(), base.get());
  EXPECT_EQ(session.counters().route_executed, 2u);
}

TEST(Session, BudgetRulePerFlow) {
  EXPECT_EQ(budget_rule(FlowKind::kIdNo), BudgetRule::kManhattan);
  EXPECT_EQ(budget_rule(FlowKind::kIsino), BudgetRule::kRoutedLength);
  EXPECT_EQ(budget_rule(FlowKind::kGsino), BudgetRule::kManhattanMargin);
}

// ------------------------------------------------------ content identity

TEST(Session, RecomputedRoutingKeepsDownstreamHits) {
  // Memory caches key on content (the store keys), not on addresses: a
  // routing artifact recomputed after eviction finds the budget and
  // Phase II entries derived from its first computation.
  const Pipeline pipe(0.5);
  const RoutingProblem p = pipe.problem();
  SessionOptions bounded;
  bounded.cache_entries = 2;
  FlowSession session(p, std::move(bounded));

  const double bound = p.params().crosstalk_bound_v;
  const bool anneal = p.params().anneal_phase2;
  const router::IdRouterOptions profile =
      session.router_profile(FlowKind::kIdNo);
  const auto r1 = session.route(profile);
  const auto b1 = session.budget(FlowKind::kIsino, r1, bound, 1.0);
  const auto s1 = session.solve_regions(FlowKind::kIsino, r1, b1, anneal);
  const FlowResult first = session.run(FlowKind::kIsino);

  // Two other profiles evict the first from the two-entry route cache.
  router::IdRouterOptions other = profile;
  other.weights.gamma = 80.0;
  (void)session.route(other);
  other.weights.gamma = 90.0;
  (void)session.route(other);
  ASSERT_EQ(session.counters().route_executed, 3u);

  const StageCounters before = session.counters();
  const auto r2 = session.route(profile);
  EXPECT_EQ(session.counters().route_executed, before.route_executed + 1);
  EXPECT_NE(r2.get(), r1.get());

  const auto b2 = session.budget(FlowKind::kIsino, r2, bound, 1.0);
  const auto s2 = session.solve_regions(FlowKind::kIsino, r2, b2, anneal);
  EXPECT_EQ(session.counters().budget_executed, before.budget_executed);
  EXPECT_EQ(session.counters().solve_executed, before.solve_executed);
  EXPECT_EQ(b2.get(), b1.get());
  EXPECT_EQ(s2.get(), s1.get());

  const FlowResult again = session.run(FlowKind::kIsino);
  EXPECT_EQ(session.counters().budget_executed, before.budget_executed);
  EXPECT_EQ(session.counters().solve_executed, before.solve_executed);
  EXPECT_EQ(router::route_hash(again.routing()),
            router::route_hash(first.routing()));
  EXPECT_EQ(state_fingerprint(again), state_fingerprint(first));
  EXPECT_EQ(again.total_shields, first.total_shields);
  ASSERT_EQ(again.net_lsk().size(), first.net_lsk().size());
  for (std::size_t n = 0; n < again.net_lsk().size(); ++n) {
    EXPECT_EQ(again.net_lsk()[n], first.net_lsk()[n]) << "net " << n;
    EXPECT_EQ(again.net_noise()[n], first.net_noise()[n]) << "net " << n;
  }
}

TEST(Session, SolvesOverBudgetsFromDifferentRoutingsStayApart) {
  // The solve key names a routed-length budget by the solve's own routing
  // profile. A budget derived from another routing shares that key, so
  // the cache must tell the two solves (and their refines) apart.
  const Pipeline pipe(0.5);
  const RoutingProblem p = pipe.problem();
  FlowSession session(p);
  const double bound = p.params().crosstalk_bound_v;
  const auto ra = session.route(FlowKind::kIdNo);
  const auto rb = session.route(FlowKind::kGsino);
  const auto foreign = session.budget(FlowKind::kIsino, rb, bound, 1.0);
  const auto own = session.budget(FlowKind::kIsino, ra, bound, 1.0);
  ASSERT_NE(*foreign->kth, *own->kth);

  const auto mixed =
      session.solve_regions(FlowKind::kIsino, ra, foreign, false);
  const auto solved = session.solve_regions(FlowKind::kIsino, ra, own, false);
  EXPECT_EQ(session.counters().solve_executed, 2u);
  EXPECT_NE(solved.get(), mixed.get());
  EXPECT_EQ(solved->budget.get(), own.get());

  const auto refined_mixed = session.refine(mixed);
  const auto refined = session.refine(solved);
  EXPECT_EQ(session.counters().refine_executed, 2u);
  EXPECT_EQ(refined->base.get(), solved.get());
  EXPECT_NE(refined.get(), refined_mixed.get());
}

// ------------------------------------------------------ shared region set

// Old-layout bytes of the fixture's second-bound (0.20) GSINO solve plus
// refine: every (region, dir) instance owned a copy of its members, S_i,
// lengths and dense sensitivity matrix alongside the per-bound state.
// Measured once (vector capacities, struct headers and the congestion
// maps, allocator overhead excluded) on the layout this one replaced.
constexpr std::size_t kOwningLayoutBytes = 759132;

TEST(Session, BoundsShareOneRegionSetAndOwnOnlyPerBoundState) {
  const Pipeline pipe(0.5);
  const RoutingProblem p = pipe.problem();
  FlowSession session(p);
  Scenario at20;
  at20.bound_v = 0.20;
  const FlowResult first = session.run(FlowKind::kGsino);
  const FlowResult second = session.run(FlowKind::kGsino, at20);

  // One region set per routing, shared by both bounds' solves...
  const RegionSet* set = first.phase1->regions.get();
  ASSERT_NE(set, nullptr);
  EXPECT_EQ(first.phase2->solutions->set().get(), set);
  EXPECT_EQ(second.phase2->solutions->set().get(), set);
  // ...and by each refine, which reads its base solve's state for every
  // instance it did not change.
  EXPECT_EQ(second.phase3->solutions->set().get(), set);
  EXPECT_EQ(second.phase3->solutions->base().get(),
            second.phase2->solutions.get());
  EXPECT_LT(second.phase3->solutions->own().size(), set->size());

  // A second bound adds only per-bound state.
  const std::size_t added =
      second.phase2->owned_bytes() + second.phase3->owned_bytes();
  EXPECT_LE(added * 4, kOwningLayoutBytes) << added << " bytes";
}

TEST(Session, RegionSetOutlivesAnEvictedSolve) {
  const Pipeline pipe(0.5);
  const RoutingProblem p = pipe.problem();
  SessionOptions one;
  one.cache_entries = 1;
  FlowSession session(p, std::move(one));

  std::weak_ptr<const RegionSolveArtifact> evicted;
  std::shared_ptr<const RegionSet> set;
  {
    const FlowResult fr = session.run(FlowKind::kGsino);
    evicted = fr.phase2;
    set = fr.phase1->regions;
  }
  Scenario at20;
  at20.bound_v = 0.20;
  const FlowResult next = session.run(FlowKind::kGsino, at20);
  EXPECT_TRUE(evicted.expired());
  EXPECT_EQ(next.phase2->solutions->set(), set);
  EXPECT_EQ(session.counters().route_executed, 1u);
}

}  // namespace
}  // namespace rlcr::gsino
