#include "flow.h"

#include <algorithm>
#include <stdexcept>

#include "parallel/thread_pool.h"

namespace perfbench {

using gsino::FlowKind;

int bench_threads() {
  return std::min(rlcr::parallel::resolve_threads(0), cpu_count());
}

gsino::GsinoParams flow_params(std::uint64_t seed, int threads) {
  gsino::GsinoParams params;  // rate 0.30, bound 0.15 V: route_cli defaults
  params.seed = seed;
  params.threads = threads;
  params.router.threads = threads;
  return params;
}

gsino::Scenario flow_scenario(int threads) {
  gsino::Scenario scenario;
  scenario.refine.threads = threads;
  return scenario;
}

Instance build_instance(const std::string& cls, double scale,
                        std::uint64_t seed, int threads) {
  Instance out;
  const double t0 = now_s();
  const auto classes = netlist::ispd98_classes(scale);
  const netlist::Ispd98ClassSpec* spec = netlist::find_ispd98_class(classes, cls);
  if (spec == nullptr) throw std::runtime_error("unknown ISPD98 class " + cls);
  out.inst = netlist::make_ispd98_instance(*spec);
  const double t1 = now_s();
  out.problem = std::make_unique<gsino::RoutingProblem>(
      out.inst.design, out.inst.gspec, flow_params(seed, threads));
  const double t2 = now_s();
  out.instance_s = t1 - t0;
  out.problem_s = t2 - t1;
  return out;
}

gsino::FlowResult gsino_stages(gsino::FlowSession& session,
                               const gsino::Scenario& scenario, Tracer& tracer,
                               int op, StageSample* out) {
  const gsino::GsinoParams& params = session.problem().params();
  std::shared_ptr<const gsino::RoutingArtifact> routed;
  {
    Scope span(tracer, "router.route", op);
    const double cpu0 = cpu_s();
    routed = session.route(FlowKind::kGsino);
    out->route_cpu = cpu_s() - cpu0;
    out->route_s = span.stop();
  }
  std::shared_ptr<const gsino::BudgetArtifact> budget;
  {
    Scope span(tracer, "budget.budget", op);
    budget = session.budget(FlowKind::kGsino, routed, params.crosstalk_bound_v,
                            params.budget_margin);
    out->budget_s = span.stop();
  }
  std::shared_ptr<const gsino::RegionSolveArtifact> solved;
  {
    Scope span(tracer, "sino.solve", op);
    const double cpu0 = cpu_s();
    solved = session.solve_regions(FlowKind::kGsino, routed, budget,
                                   params.anneal_phase2);
    out->solve_cpu = cpu_s() - cpu0;
    out->solve_s = span.stop();
  }
  std::shared_ptr<const gsino::RefineArtifact> refined;
  {
    Scope span(tracer, "refine.refine", op);
    refined = session.refine(solved, scenario.refine);
    out->refine_s = span.stop();
  }
  out->routing = routed->routing->stats;
  out->refine = refined->stats;
  out->regions = static_cast<std::size_t>(
      std::count_if(solved->solutions->begin(), solved->solutions->end(),
                    [](const gsino::RegionSolution& s) { return !s.empty(); }));
  return session.run(FlowKind::kGsino, scenario);
}

void record_outcome(const gsino::FlowResult& fr, StageSample* out) {
  out->route_hash = router::route_hash(fr.routing());
  out->state_hash = gsino::state_fingerprint(fr);
  out->shields = fr.total_shields;
  out->wirelength_um = fr.total_wirelength_um;
  out->overflow = fr.congestion->total_overflow();
  out->violations = fr.violating;
}

void report_timing(RunResult& res, const std::vector<double>& setup,
                   const std::vector<double>& op_wall, const LoopTotals& t) {
  const double n = static_cast<double>(op_wall.size());
  res.e2e("setup_s", median(setup), "s");
  res.e2e("op_p50_s", median(op_wall), "s");
  res.e2e("ops_per_s", n / t.elapsed, "1/s");
  res.e2e("cpu_per_op_s", t.cpu / n, "s");
  res.e2e("peak_rss_mib", t.rss_mib, "MiB");
}

std::size_t report_stage_layers(RunResult& res,
                                const std::vector<StageSample>& ops,
                                const Tracer& tracer) {
  std::vector<double> wall, traced, untraced;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    wall.push_back(ops[i].wall);
    (i % 2 == 0 ? traced : untraced).push_back(ops[i].wall);
  }
  const std::size_t rep = 2 * median_index(traced);
  const StageSample& r = ops[rep];
  const int op = static_cast<int>(rep);
  const auto n = [](auto v) { return static_cast<double>(v); };
  res.layer("op.samples", n(ops.size()), "count");
  res.layer("op.p90_s", quantile(wall, 0.9), "s");
  res.layer("op.wall_s", tracer.op_wall(op), "s");
  res.layer("op.unattributed_s", tracer.unattributed(op), "s");
  res.layer("trace.overhead_ratio", ratio(median(traced), median(untraced)), "x");
  res.layer("router.route_s", r.route_s, "s");
  res.layer("router.cpu_s", r.route_cpu, "s");
  res.layer("router.edges_deleted", n(r.routing.edges_deleted), "count");
  res.layer("router.rsmt_fallback_nets", n(r.routing.rsmt_fallback_nets), "count");
  res.layer("router.spec_commit_ratio",
            ratio(n(r.routing.spec_committed), n(r.routing.spec_attempted)),
            "ratio");
  res.layer("budget.budget_s", r.budget_s, "s");
  res.layer("sino.solve_s", r.solve_s, "s");
  res.layer("sino.cpu_s", r.solve_cpu, "s");
  res.layer("sino.regions", n(r.regions), "count");
  res.layer("refine.refine_s", r.refine_s, "s");
  res.layer("refine.pass2_accepted", r.refine.pass2_accepted, "count");
  res.layer("refine.pass2_rejected", r.refine.pass2_rejected, "count");
  res.layer("refine.pass2_accept_ratio",
            ratio(r.refine.pass2_accepted,
                  r.refine.pass2_accepted + r.refine.pass2_rejected),
            "ratio");
  res.layer("refine.pass2_shields_removed", r.refine.pass2_shields_removed,
            "count");
  res.layer("refine.pass1_resolves", r.refine.pass1_resolves, "count");
  res.layer("quality.violations", n(r.violations), "count");
  return rep;
}

}  // namespace perfbench
