// Session-reuse benchmark: the cost of a crosstalk-bound what-if sweep
// with and without the staged session's artifact cache.
//
//   BM_BoundSweepRebuild — N bounds, a fresh FlowSession per bound: every
//     cell re-runs Phase I routing from scratch (the cost model of a
//     session that is not reused).
//   BM_BoundSweepReuse   — the same N bounds through one FlowSession:
//     Phase I routes once, every other bound re-solves Phase II/III off
//     the cached RoutingArtifact.
//
// Run with
//
//   bench_session_reuse --benchmark_out=BENCH_session_reuse.json \
//                       --benchmark_out_format=json
//
// CI merges the result into BENCH_router.json (one machine-readable perf
// trajectory per run), so the reuse speedup is tracked across PRs.
#include <benchmark/benchmark.h>

#include "build_type_context.h"

#include "core/session.h"
#include "netlist/synthetic.h"

using namespace rlcr;
using namespace rlcr::gsino;

namespace {

/// The circuit-suite shape (ibm01 stand-in at quarter scale): a few
/// thousand nets on a 48x48 grid, where Phase I routing carries the share
/// of the runtime the paper's Section 5 describes — the regime the
/// artifact cache is for.
struct Fixture {
  netlist::SyntheticSpec spec;
  netlist::Netlist design;
  GsinoParams params;

  Fixture() : spec(netlist::ibm_suite(0.25)[0]) {
    design = netlist::generate(spec);
    params.sensitivity_rate = 0.3;
  }

  RoutingProblem problem() const { return make_problem(design, spec, params); }
};

/// The integration-test pipeline shape: 400 clustered nets on a 12x12
/// grid — small enough that the three-flow cell benches stay cheap.
struct SmallFixture {
  netlist::SyntheticSpec spec;
  netlist::Netlist design;
  GsinoParams params;

  SmallFixture() : spec(netlist::tiny_spec(400, 12)) {
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

  RoutingProblem problem() const { return make_problem(design, spec, params); }
};

std::vector<double> sweep_bounds(std::size_t count) {
  std::vector<double> bounds;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(0.15 + 0.02 * static_cast<double>(i));
  }
  return bounds;
}

// Args: {bounds}.
void BM_BoundSweepRebuild(benchmark::State& state) {
  const Fixture fx;
  const RoutingProblem problem = fx.problem();
  const auto bounds = sweep_bounds(static_cast<std::size_t>(state.range(0)));
  std::size_t routes_executed = 0;
  for (auto _ : state) {
    routes_executed = 0;
    for (double bound : bounds) {
      FlowSession session(problem);  // no cache survives between bounds
      Scenario scenario;
      scenario.bound_v = bound;
      const FlowResult fr = session.run(FlowKind::kGsino, scenario);
      benchmark::DoNotOptimize(fr.total_shields);
      routes_executed += session.counters().route_executed;
    }
  }
  state.counters["phase1_routes"] = static_cast<double>(routes_executed);
  state.counters["bounds_per_s"] = benchmark::Counter(
      static_cast<double>(state.range(0)),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_BoundSweepRebuild)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_BoundSweepReuse(benchmark::State& state) {
  const Fixture fx;
  const RoutingProblem problem = fx.problem();
  const auto bounds = sweep_bounds(static_cast<std::size_t>(state.range(0)));
  std::size_t routes_executed = 0;
  for (auto _ : state) {
    FlowSession session(problem);  // one session: Phase I routes once
    for (double bound : bounds) {
      Scenario scenario;
      scenario.bound_v = bound;
      const FlowResult fr = session.run(FlowKind::kGsino, scenario);
      benchmark::DoNotOptimize(fr.total_shields);
    }
    routes_executed = session.counters().route_executed;
  }
  state.counters["phase1_routes"] = static_cast<double>(routes_executed);
  state.counters["bounds_per_s"] = benchmark::Counter(
      static_cast<double>(state.range(0)),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_BoundSweepReuse)->Arg(4)->Unit(benchmark::kMillisecond);

// The three-flow experiment cell (one (circuit, rate) point): fresh
// session per flow vs one shared session (ID+NO and iSINO share Phase I).
void BM_ThreeFlowCellRebuild(benchmark::State& state) {
  const SmallFixture fx;
  const RoutingProblem problem = fx.problem();
  for (auto _ : state) {
    for (FlowKind kind :
         {FlowKind::kIdNo, FlowKind::kIsino, FlowKind::kGsino}) {
      FlowSession session(problem);
      benchmark::DoNotOptimize(session.run(kind).total_shields);
    }
  }
}
BENCHMARK(BM_ThreeFlowCellRebuild)->Unit(benchmark::kMillisecond);

void BM_ThreeFlowCellShared(benchmark::State& state) {
  const SmallFixture fx;
  const RoutingProblem problem = fx.problem();
  std::size_t routes_executed = 0;
  for (auto _ : state) {
    FlowSession session(problem);
    for (FlowKind kind :
         {FlowKind::kIdNo, FlowKind::kIsino, FlowKind::kGsino}) {
      benchmark::DoNotOptimize(session.run(kind).total_shields);
    }
    routes_executed = session.counters().route_executed;
  }
  state.counters["phase1_routes"] = static_cast<double>(routes_executed);
}
BENCHMARK(BM_ThreeFlowCellShared)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
