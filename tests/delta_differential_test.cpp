// Differential proof of the incremental netlist-delta engine
// (src/scenario/delta.h): over seeded random delta chains, every
// incremental state — FlowSession::apply_delta() patching cached
// artifacts in place — is bit-identical (route hash + state fingerprint)
// to a from-scratch session built on the mutated problem. The property
// sweep then holds the same chain fixed with vs without the persistent
// store; the headline chain test covers thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/session.h"
#include "netlist/synthetic.h"
#include "scenario/delta.h"
#include "store/artifact_store.h"
#include "util/rng.h"

namespace rlcr::scenario {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------- fixture

struct Pipeline {
  netlist::SyntheticSpec spec;
  netlist::Netlist design;
  gsino::GsinoParams params;

  explicit Pipeline(std::size_t nets = 300, std::uint64_t seed = 12) {
    spec = netlist::tiny_spec(nets, seed);
    spec.grid_cols = 12;
    spec.grid_rows = 12;
    spec.chip_w_um = 600.0;
    spec.chip_h_um = 600.0;
    spec.h_capacity = 12;
    spec.v_capacity = 12;
    spec.local_sigma_regions = 2.0;
    design = netlist::generate(spec);
    params.sensitivity_rate = 0.5;
  }

  gsino::RoutingProblem problem() const {
    return gsino::make_problem(design, spec, params);
  }
};

/// One (route hash, state fingerprint) pair per chain step.
struct StepState {
  std::uint64_t route_hash = 0;
  std::uint64_t fingerprint = 0;

  bool operator==(const StepState& o) const {
    return route_hash == o.route_hash && fingerprint == o.fingerprint;
  }
};

StepState observe(const gsino::FlowResult& fr) {
  return StepState{router::route_hash(fr.routing()),
                   gsino::state_fingerprint(fr)};
}

/// Everything that must NOT change the chain's states.
struct Config {
  int threads = 1;
  bool with_store = false;
};

gsino::GsinoParams configured(gsino::GsinoParams params, const Config& cfg) {
  params.threads = cfg.threads;
  params.router.threads = cfg.threads;
  return params;
}

gsino::Scenario refine_scenario(const Config& cfg) {
  gsino::Scenario scenario;
  scenario.refine.threads = cfg.threads;
  return scenario;
}

std::shared_ptr<store::ArtifactStore> make_store(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / "rlcr_delta" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return std::make_shared<store::ArtifactStore>(dir);
}

constexpr std::uint64_t kChainSeed = 0xD31;

/// The incremental arm: one session, `steps` deltas applied in place,
/// a GSINO run observed after the initial route and after every delta.
/// The delta corpus is regenerated from (net count, chip outline, seed),
/// so every arm sees the identical chain.
std::vector<StepState> run_incremental(const Pipeline& pipe, const Config& cfg,
                                       std::size_t steps, std::size_t changes,
                                       const std::string& store_name,
                                       gsino::StageCounters* counters = nullptr) {
  const gsino::RoutingProblem p0 =
      gsino::make_problem(pipe.design, pipe.spec, configured(pipe.params, cfg));
  gsino::SessionOptions opts;
  if (cfg.with_store) opts.store = make_store(store_name);
  gsino::FlowSession session(p0, opts);
  const gsino::Scenario scenario = refine_scenario(cfg);

  std::vector<StepState> states;
  states.push_back(observe(session.run(gsino::FlowKind::kGsino, scenario)));
  for (std::size_t i = 0; i < steps; ++i) {
    const NetlistDelta delta =
        random_delta(session.problem(), kChainSeed + i, changes);
    session.apply_delta(delta);
    states.push_back(observe(session.run(gsino::FlowKind::kGsino, scenario)));
  }
  if (counters) *counters = session.counters();
  return states;
}

/// The from-scratch arm: at every step, mutate the problem through the
/// shared slot-preserving transform and run a brand-new session on it.
std::vector<StepState> run_scratch(const Pipeline& pipe, const Config& cfg,
                                   std::size_t steps, std::size_t changes) {
  gsino::RoutingProblem p =
      gsino::make_problem(pipe.design, pipe.spec, configured(pipe.params, cfg));
  const gsino::Scenario scenario = refine_scenario(cfg);

  std::vector<StepState> states;
  {
    gsino::FlowSession session(p);
    states.push_back(observe(session.run(gsino::FlowKind::kGsino, scenario)));
  }
  for (std::size_t i = 0; i < steps; ++i) {
    const NetlistDelta delta = random_delta(p, kChainSeed + i, changes);
    p = apply_delta(p, delta);
    gsino::FlowSession session(p);
    states.push_back(observe(session.run(gsino::FlowKind::kGsino, scenario)));
  }
  return states;
}

// ------------------------------------------------- the headline contract

// Incremental chain states match from-scratch runs bit for bit, at one
// thread and at eight. The two thread counts also agree with each other
// (the engine's sub-runs and region re-solves inherit the determinism
// contract of the stages they patch).
TEST(DeltaDifferential, ChainMatchesFromScratchAtOneAndEightThreads) {
  const Pipeline pipe;
  const std::size_t kSteps = 4, kChanges = 6;

  Config serial1;  // threads=1
  gsino::StageCounters counters{};
  const auto inc1 =
      run_incremental(pipe, serial1, kSteps, kChanges, "t1", &counters);
  const auto scratch1 = run_scratch(pipe, serial1, kSteps, kChanges);
  ASSERT_EQ(inc1.size(), kSteps + 1);
  for (std::size_t i = 0; i < inc1.size(); ++i) {
    EXPECT_EQ(inc1[i].route_hash, scratch1[i].route_hash) << "step " << i;
    EXPECT_EQ(inc1[i].fingerprint, scratch1[i].fingerprint) << "step " << i;
  }

  // The incremental arm really was incremental: route() executed exactly
  // once (each delta routes the mutated problem as delta work, not as a
  // route() request), and the Phase II patch reused clean regions on every
  // step. Every delta routes the whole netlist: the nets a change can
  // move are closed under transitive region sharing, and in this fixture
  // (300 local nets over 144 regions) that closure percolates across the
  // whole pool. What stays local is the set of dirty (region, dir) cells.
  EXPECT_EQ(counters.delta_applies, kSteps);
  EXPECT_EQ(counters.route_executed, 1u);
  EXPECT_GT(counters.delta_nets_rerouted, 0u);
  EXPECT_GT(counters.delta_regions_reused, 0u);

  Config parallel8;
  parallel8.threads = 8;
  const auto inc8 = run_incremental(pipe, parallel8, kSteps, kChanges, "t8");
  const auto scratch8 = run_scratch(pipe, parallel8, kSteps, kChanges);
  for (std::size_t i = 0; i < inc8.size(); ++i) {
    EXPECT_EQ(inc8[i].route_hash, scratch8[i].route_hash) << "step " << i;
    EXPECT_EQ(inc8[i].fingerprint, scratch8[i].fingerprint) << "step " << i;
    EXPECT_TRUE(inc8[i] == inc1[i]) << "thread-count divergence at " << i;
  }
}

// Every flow's patched stages match a from-scratch session, with and
// without Phase II annealing: the net-order mode (ID+NO), the routed-length
// budget (iSINO, keyed on the patched routing) and the annealed region
// solves all go through the delta engine. Patched budgets and solves are
// cache hits afterwards, so neither stage executes again. The dense
// sensitivity and tight bound leave some regions greedy-infeasible, so the
// annealer really runs (the two arms' initial GSINO states differ).
TEST(DeltaDifferential, EveryFlowAndAnnealMatchFromScratch) {
  Pipeline pipe;
  pipe.params.sensitivity_rate = 0.9;
  const std::size_t kSteps = 3, kChanges = 6;
  const gsino::FlowKind kFlows[] = {gsino::FlowKind::kIdNo,
                                    gsino::FlowKind::kIsino,
                                    gsino::FlowKind::kGsino};

  std::uint64_t initial_gsino[2] = {0, 0};
  for (const bool anneal : {false, true}) {
    SCOPED_TRACE(anneal ? "anneal on" : "anneal off");
    gsino::Scenario scenario;
    scenario.bound_v = 0.10;
    scenario.anneal_phase2 = anneal;

    // The session keeps a pointer to its construction problem; the chain
    // mutates a separate copy.
    const gsino::RoutingProblem p0 = pipe.problem();
    gsino::RoutingProblem p = p0;
    gsino::FlowSession session(p0);
    for (const gsino::FlowKind kind : kFlows) {
      const StepState state = observe(session.run(kind, scenario));
      if (kind == gsino::FlowKind::kGsino) {
        initial_gsino[anneal] = state.fingerprint;
      }
    }
    const gsino::StageCounters warm = session.counters();

    for (std::size_t i = 0; i < kSteps; ++i) {
      const NetlistDelta delta = random_delta(p, kChainSeed + i, kChanges);
      p = apply_delta(p, delta);
      session.apply_delta(delta);
      gsino::FlowSession scratch(p);
      for (const gsino::FlowKind kind : kFlows) {
        const StepState got = observe(session.run(kind, scenario));
        const StepState want = observe(scratch.run(kind, scenario));
        EXPECT_EQ(got.route_hash, want.route_hash)
            << gsino::flow_name(kind) << " step " << i;
        EXPECT_EQ(got.fingerprint, want.fingerprint)
            << gsino::flow_name(kind) << " step " << i;
      }
    }
    EXPECT_EQ(session.counters().solve_executed, warm.solve_executed);
    EXPECT_EQ(session.counters().budget_executed, warm.budget_executed);
    EXPECT_EQ(session.counters().delta_applies, kSteps);
  }
  EXPECT_NE(initial_gsino[0], initial_gsino[1]);
}

// Patched artifacts publish under the mutated problem's own store keys: a
// fresh session on the mutated problem, sharing the store, loads every
// stage the delta patched (both routing profiles, the three budget rules,
// the three solves) instead of computing it, and matches the patched
// session.
TEST(DeltaDifferential, PublishedArtifactsWarmStartAFreshSession) {
  const Pipeline pipe;
  const gsino::FlowKind kFlows[] = {gsino::FlowKind::kIdNo,
                                    gsino::FlowKind::kIsino,
                                    gsino::FlowKind::kGsino};
  const gsino::RoutingProblem p0 = pipe.problem();
  gsino::SessionOptions opts;
  opts.store = make_store("publish");
  gsino::FlowSession session(p0, opts);
  for (const gsino::FlowKind kind : kFlows) session.run(kind);
  const NetlistDelta delta = random_delta(p0, 9, 6);
  session.apply_delta(delta);

  const gsino::RoutingProblem p1 = apply_delta(p0, delta);
  gsino::FlowSession warm(p1, opts);
  for (const gsino::FlowKind kind : kFlows) {
    const StepState got = observe(warm.run(kind));
    EXPECT_TRUE(got == observe(session.run(kind))) << gsino::flow_name(kind);
  }
  const gsino::StageCounters& c = warm.counters();
  EXPECT_EQ(c.route_executed, 0u);
  EXPECT_EQ(c.budget_executed, 0u);
  EXPECT_EQ(c.solve_executed, 0u);
  EXPECT_EQ(c.route_loaded, 2u);
  EXPECT_EQ(c.budget_loaded, 3u);
  EXPECT_EQ(c.solve_loaded, 3u);
}

// The two delta application arms agree: mutating the netlist and building
// a fresh problem yields the same fingerprint as the slot-preserving
// problem transform — including appended slots, emptied slots, and the
// rebuilt sensitivity model.
TEST(DeltaDifferential, NetlistArmAndProblemArmAgree) {
  const Pipeline pipe;
  gsino::RoutingProblem p = pipe.problem();
  netlist::Netlist design = pipe.design;

  for (std::size_t i = 0; i < 3; ++i) {
    const NetlistDelta delta = random_delta(p, 77 + i, 8);
    p = apply_delta(p, delta);
    apply_delta(design, delta);
    const gsino::RoutingProblem rebuilt =
        gsino::make_problem(design, pipe.spec, pipe.params);
    ASSERT_EQ(rebuilt.fingerprint(), p.fingerprint()) << "chain step " << i;
    ASSERT_EQ(rebuilt.net_count(), p.net_count());
  }
}

// A post-delta run() executes no stage except Phase III: the patched
// route/budget/solve artifacts are cache hits, refine recomputes (its
// global worst-violator ordering has no regional patch).
TEST(DeltaDifferential, PatchedArtifactsAreCacheHits) {
  const Pipeline pipe;
  const gsino::RoutingProblem p0 = pipe.problem();
  gsino::FlowSession session(p0);
  session.run(gsino::FlowKind::kGsino);
  const gsino::StageCounters before = session.counters();

  const DeltaReport report = session.apply_delta(random_delta(p0, 5, 4));
  EXPECT_EQ(report.changed_nets, 4u);
  EXPECT_EQ(report.routes_patched, 1u);
  EXPECT_GT(report.nets_rerouted, 0u);
  EXPECT_GT(report.regions_reused, 0u);
  session.run(gsino::FlowKind::kGsino);

  const gsino::StageCounters after = session.counters();
  EXPECT_EQ(after.route_executed, before.route_executed);
  EXPECT_EQ(after.budget_executed, before.budget_executed);
  EXPECT_EQ(after.solve_executed, before.solve_executed);
  EXPECT_EQ(after.refine_executed, before.refine_executed + 1);
}

// Removing a net and re-adding the identical pin set converges back to
// the original problem fingerprint only when the slot itself is restored;
// appended slots are new identities. What IS pinned: a delta that touches
// nothing (empty change list) leaves every state untouched.
TEST(DeltaDifferential, EmptyDeltaIsIdentity) {
  const Pipeline pipe(200);
  const gsino::RoutingProblem p0 = pipe.problem();
  gsino::FlowSession session(p0);
  const StepState before = observe(session.run(gsino::FlowKind::kGsino));

  const DeltaReport report = session.apply_delta(NetlistDelta{});
  EXPECT_EQ(report.changed_nets, 0u);
  EXPECT_EQ(report.nets_rerouted, p0.net_count());
  EXPECT_EQ(report.problem->fingerprint(), p0.fingerprint());

  const StepState after = observe(session.run(gsino::FlowKind::kGsino));
  EXPECT_TRUE(before == after);
}

// A block-structured design — nine 3x3-region clusters separated by an
// empty region row/column — with a clustered ECO confined to one cluster:
// the other eight clusters' Phase II regions carry over, and the patched
// routing artifact is a full route of the mutated problem, down to the
// router's own work counters (which feed the post-delta router.* metrics).
TEST(DeltaDifferential, ClusteredDesignReusesRegions) {
  netlist::SyntheticSpec spec = netlist::tiny_spec(0, 5);
  spec.grid_cols = 12;
  spec.grid_rows = 12;
  spec.chip_w_um = 600.0;
  spec.chip_h_um = 600.0;
  spec.h_capacity = 12;
  spec.v_capacity = 12;

  // Cluster (cx, cy) occupies region cols/rows [4*c, 4*c + 2] — 150 um
  // windows with a 50 um (one region) gap between neighbors.
  netlist::Netlist design;
  util::Xoshiro256 rng(42);
  constexpr double kWindow = 150.0, kPitch = 200.0;
  for (int cy = 0; cy < 3; ++cy) {
    for (int cx = 0; cx < 3; ++cx) {
      for (int k = 0; k < 25; ++k) {
        netlist::Net net;
        net.name = "c" + std::to_string(cy * 3 + cx) + "_" + std::to_string(k);
        const std::size_t pins = 2 + static_cast<std::size_t>(k % 3);
        for (std::size_t j = 0; j < pins; ++j) {
          net.pins.push_back(netlist::Pin{
              geom::PointF{cx * kPitch + rng.uniform(0.0, kWindow),
                           cy * kPitch + rng.uniform(0.0, kWindow)},
              netlist::kNoCell});
        }
        design.add_net(std::move(net));
      }
    }
  }

  gsino::GsinoParams params;
  params.sensitivity_rate = 0.5;
  const gsino::RoutingProblem p0 = gsino::make_problem(design, spec, params);

  // A hand-built ECO confined to cluster 0's window: re-pin two of its
  // nets, drop one, add one.
  NetlistDelta delta;
  auto window_pins = [&rng](std::size_t n) {
    std::vector<geom::PointF> pins;
    for (std::size_t j = 0; j < n; ++j) {
      pins.push_back(
          geom::PointF{rng.uniform(0.0, kWindow), rng.uniform(0.0, kWindow)});
    }
    return pins;
  };
  delta.changes.push_back({NetChange::Kind::kRepin, 3, window_pins(3), ""});
  delta.changes.push_back({NetChange::Kind::kRepin, 7, window_pins(2), ""});
  delta.changes.push_back({NetChange::Kind::kRemove, 11, {}, ""});
  delta.changes.push_back({NetChange::Kind::kAdd, 0, window_pins(4), "eco"});

  gsino::FlowSession session(p0);
  const StepState initial = observe(session.run(gsino::FlowKind::kGsino));
  const DeltaReport report = session.apply_delta(delta);

  EXPECT_GT(report.regions_reused, 0u);

  const gsino::FlowResult inc_run = session.run(gsino::FlowKind::kGsino);
  const StepState inc = observe(inc_run);
  EXPECT_FALSE(inc == initial);  // the ECO really moved the state

  const gsino::RoutingProblem p1 = apply_delta(p0, delta);
  gsino::FlowSession scratch(p1);
  const gsino::FlowResult want_run = scratch.run(gsino::FlowKind::kGsino);
  const StepState want = observe(want_run);
  EXPECT_EQ(inc.route_hash, want.route_hash);
  EXPECT_EQ(inc.fingerprint, want.fingerprint);

  const router::RoutingStats& got_stats = inc_run.routing().stats;
  const router::RoutingStats& want_stats = want_run.routing().stats;
  EXPECT_EQ(got_stats.edges_initial, want_stats.edges_initial);
  EXPECT_EQ(got_stats.edges_deleted, want_stats.edges_deleted);
  EXPECT_EQ(got_stats.edges_locked, want_stats.edges_locked);
  EXPECT_EQ(got_stats.reinserts, want_stats.reinserts);
  EXPECT_EQ(got_stats.prerouted_nets, want_stats.prerouted_nets);
}

// A kRemove or kRepin naming a slot past the net count is rejected by both
// arms before either mutates anything — even a valid change earlier in the
// same delta stays unapplied — and the session keeps serving its problem.
TEST(DeltaDifferential, OutOfRangeSlotIsRejectedByBothArms) {
  const Pipeline pipe(200);
  const gsino::RoutingProblem p0 = pipe.problem();
  gsino::FlowSession session(p0);
  const StepState before = observe(session.run(gsino::FlowKind::kGsino));
  const gsino::StageCounters warm = session.counters();

  for (const NetChange::Kind kind :
       {NetChange::Kind::kRemove, NetChange::Kind::kRepin}) {
    NetlistDelta delta;
    delta.changes.push_back(
        {NetChange::Kind::kRepin, 0, {{10.0, 10.0}, {90.0, 40.0}}, ""});
    delta.changes.push_back(
        {kind, p0.net_count(), {{20.0, 20.0}, {80.0, 60.0}}, ""});

    netlist::Netlist design = pipe.design;
    EXPECT_THROW(apply_delta(design, delta), std::out_of_range);
    EXPECT_EQ(design.net_count(), pipe.design.net_count());
    EXPECT_EQ(design.net(0).pins.size(), pipe.design.net(0).pins.size());
    EXPECT_EQ(design.net(0).pins.front().pos.x,
              pipe.design.net(0).pins.front().pos.x);

    EXPECT_THROW(apply_delta(p0, delta), std::out_of_range);
    EXPECT_THROW(session.apply_delta(delta), std::out_of_range);
    EXPECT_EQ(session.problem().fingerprint(), p0.fingerprint());
  }

  EXPECT_TRUE(observe(session.run(gsino::FlowKind::kGsino)) == before);
  const gsino::StageCounters after = session.counters();
  EXPECT_EQ(after.delta_applies, 0u);
  EXPECT_EQ(after.route_executed, warm.route_executed);
  EXPECT_EQ(after.solve_executed, warm.solve_executed);
  EXPECT_EQ(after.refine_executed, warm.refine_executed);
}

// ------------------------------------------------------ property sweep

// The same chain converges to the same per-step states with and without
// the persistent store. The baseline is the no-store incremental arm.
TEST(DeltaDifferential, PropertySweepConvergesAcrossEnvironments) {
  const Pipeline pipe(250, 21);
  const std::size_t kSteps = 2, kChanges = 5;

  const Config baseline;
  const auto want =
      run_incremental(pipe, baseline, kSteps, kChanges, "base");

  Config with_store;
  with_store.with_store = true;
  const auto got =
      run_incremental(pipe, with_store, kSteps, kChanges, "sweep_store");
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].route_hash, want[i].route_hash) << "step " << i;
    EXPECT_EQ(got[i].fingerprint, want[i].fingerprint) << "step " << i;
  }
}

}  // namespace
}  // namespace rlcr::scenario
