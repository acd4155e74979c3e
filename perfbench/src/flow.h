// Flow helpers shared by the workloads: instance + problem assembly and the
// GSINO stage sequence driven call by call through FlowSession, so each
// stage gets its own span and its own wall/CPU reading.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/session.h"
#include "harness.h"
#include "netlist/ispd98_synth.h"
#include "router/route_types.h"
#include "scenario/delta.h"

namespace perfbench {

namespace gsino = rlcr::gsino;
namespace netlist = rlcr::netlist;
namespace router = rlcr::router;
namespace scenario = rlcr::scenario;
namespace steiner = rlcr::steiner;

/// Master seed of the fixed designs eco_delta and whatif_service run on:
/// there the workload seed draws the delta chain or the query plan, not the
/// design, so a run's cost and quality reflect the stream it replays.
constexpr std::uint64_t kDesignSeed = 1;

/// Pool width for the flow stages: the library's auto default, capped at
/// the online CPU count.
int bench_threads();

gsino::GsinoParams flow_params(std::uint64_t seed, int threads);

/// The GSINO Scenario every workload runs (explicit Phase III threads).
gsino::Scenario flow_scenario(int threads);

struct Instance {
  netlist::Ispd98Instance inst;
  std::unique_ptr<gsino::RoutingProblem> problem;
  double instance_s = 0.0;  ///< make_ispd98_instance
  double problem_s = 0.0;   ///< RoutingProblem construction
};

/// ISPD98 class instance (always the synthetic stand-in) and its problem.
Instance build_instance(const std::string& cls, double scale,
                        std::uint64_t seed, int threads);

/// One GSINO pass through a session: what each stage cost and what the
/// flow produced.
struct StageSample {
  double wall = 0.0;
  double delta_s = 0.0;  ///< FlowSession::apply_delta (eco_delta only)
  double route_s = 0.0, route_cpu = 0.0;
  double budget_s = 0.0;
  double solve_s = 0.0, solve_cpu = 0.0;
  double refine_s = 0.0;
  router::RoutingStats routing;
  gsino::RefineStats refine;
  std::size_t regions = 0;  ///< non-empty Phase II solutions
  scenario::DeltaReport delta;

  std::uint64_t route_hash = 0, state_hash = 0;
  double shields = 0.0, wirelength_um = 0.0, overflow = 0.0;
  std::size_t violations = 0;
};

/// route -> budget -> solve_regions -> refine on `session`, one span per
/// stage, then run() to assemble the FlowResult (every stage a cache hit).
gsino::FlowResult gsino_stages(gsino::FlowSession& session,
                               const gsino::Scenario& scenario, Tracer& tracer,
                               int op, StageSample* out);

/// Hashes and quality outcomes of a finished flow.
void record_outcome(const gsino::FlowResult& fr, StageSample* out);

/// Timed-loop totals every workload reports end to end.
struct LoopTotals {
  double elapsed = 0.0;  ///< wall seconds of the timed phase
  double cpu = 0.0;      ///< process CPU seconds of the timed phase
  double rss_mib = 0.0;  ///< VmHWM over the timed phase
};

/// setup_s, op_p50_s, ops_per_s, cpu_per_op_s, peak_rss_mib.
void report_timing(RunResult& res, const std::vector<double>& setup,
                   const std::vector<double>& op_wall, const LoopTotals& t);

/// Per-layer metrics of a traced stage loop in which even-numbered ops
/// were traced: the layers come from the traced op whose wall time is the
/// median one, so its layer self times plus op.unattributed_s add up to
/// its op.wall_s. Returns that op's index.
std::size_t report_stage_layers(RunResult& res,
                                const std::vector<StageSample>& ops,
                                const Tracer& tracer);

}  // namespace perfbench
