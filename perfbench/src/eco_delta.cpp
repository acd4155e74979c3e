// eco_delta: an ECO chain in one live session. Set-up routes the
// ibm01-class problem at half scale cold; each op then applies a seeded
// 8-change netlist delta through FlowSession::apply_delta and re-runs
// GSINO. After the timed ops the chain's end state must equal a
// from-scratch session over the mutated problem (untimed).
#include "flow.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr std::size_t kMinOps = 3;
constexpr std::size_t kChangesPerDelta = 8;

}  // namespace

RunResult run_eco_delta(const Config& cfg, Tracer& tracer) {
  RunResult res;
  const double scale = cfg.tiny ? 0.05 : 0.5;
  const int threads = bench_threads();
  const gsino::Scenario scenario = flow_scenario(threads);
  gsino::SessionOptions options;
  options.trace = false;

  std::vector<double> setup, instance_s, problem_s;
  Instance in;
  std::unique_ptr<gsino::FlowSession> session;
  for (int k = 0; more_setups(setup); ++k) {
    session.reset();
    in = build_instance("ibm01", scale, kDesignSeed, threads);
    const double t = now_s();
    session = std::make_unique<gsino::FlowSession>(*in.problem, options);
    session->run(gsino::FlowKind::kGsino, scenario);
    setup.push_back(in.instance_s + in.problem_s + (now_s() - t));
    instance_s.push_back(in.instance_s);
    problem_s.push_back(in.problem_s);
  }

  std::vector<scenario::NetlistDelta> chain;
  std::vector<StageSample> ops;
  reset_peak_rss();
  const double cpu0 = cpu_s();
  const double t0 = now_s();
  while (ops.size() < kMinOps || now_s() - t0 < cfg.seconds) {
    const int i = static_cast<int>(ops.size());
    tracer.enabled = cfg.trace && i % 2 == 0;
    chain.push_back(scenario::random_delta(
        session->problem(), rlcr::util::SplitMix64::mix2(cfg.seed, i),
        kChangesPerDelta));
    StageSample s;
    {
      Scope root(tracer, "op", i);
      {
        Scope span(tracer, "scenario.apply_delta", i);
        s.delta = session->apply_delta(chain.back());
        s.delta_s = span.stop();
      }
      const gsino::FlowResult fr =
          gsino_stages(*session, scenario, tracer, i, &s);
      s.wall = root.stop();
      record_outcome(fr, &s);
    }
    ops.push_back(std::move(s));
  }
  const LoopTotals totals{now_s() - t0, cpu_s() - cpu0, peak_rss_mib()};
  tracer.enabled = false;

  // The chain is checked once, at its end: a from-scratch session over the
  // problem with every delta applied must reproduce the incremental state.
  gsino::RoutingProblem scratch = *in.problem;
  for (const scenario::NetlistDelta& delta : chain) {
    scratch = scenario::apply_delta(scratch, delta);
  }
  StageSample want;
  {
    gsino::FlowSession fresh(scratch, options);
    record_outcome(fresh.run(gsino::FlowKind::kGsino, scenario), &want);
  }
  const bool chain_ok = want.route_hash == ops.back().route_hash &&
                        want.state_hash == ops.back().state_hash;
  if (!chain_ok) note("eco_delta: chain end state differs from scratch run");
  for (const StageSample& s : ops) res.op(chain_ok && s.delta.changed_nets > 0);

  std::vector<double> wall, delta_s;
  double rerouted = 0.0, reused = 0.0, solved = 0.0, kept = 0.0;
  for (const StageSample& s : ops) {
    wall.push_back(s.wall);
    delta_s.push_back(s.delta_s);
    rerouted += static_cast<double>(s.delta.nets_rerouted);
    reused += static_cast<double>(s.delta.nets_reused);
    solved += static_cast<double>(s.delta.regions_solved);
    kept += static_cast<double>(s.delta.regions_reused);
  }
  note("eco_delta: %zu ops, p50 %.3f s (apply_delta %.2f)", ops.size(),
       median(wall), median(delta_s));
  report_timing(res, setup, wall, totals);
  // Quality is read after the last op every run executes, so it does not
  // depend on how many ops fit in the time budget.
  const StageSample& q = ops[kMinOps - 1];
  res.e2e("shields", q.shields, "count");
  res.e2e("wirelength_um", q.wirelength_um, "um");
  res.e2e("overflow", q.overflow, "tracks");
  if (!cfg.trace) return res;

  const StageSample& r = ops[report_stage_layers(res, ops, tracer)];
  res.layer("setup.instance_s", median(instance_s), "s");
  res.layer("setup.problem_s", median(problem_s), "s");
  res.layer("scenario.apply_delta_s", r.delta_s, "s");
  res.layer("scenario.nets_rerouted", static_cast<double>(r.delta.nets_rerouted), "count");
  res.layer("scenario.nets_reused", static_cast<double>(r.delta.nets_reused), "count");
  res.layer("scenario.net_reuse_ratio", ratio(reused, reused + rerouted), "ratio");
  res.layer("scenario.regions_solved", static_cast<double>(r.delta.regions_solved), "count");
  res.layer("scenario.regions_reused", static_cast<double>(r.delta.regions_reused), "count");
  res.layer("scenario.region_reuse_ratio", ratio(kept, kept + solved), "ratio");
  res.layer("parallel.threads", threads, "count");
  res.layer("parallel.num_cpus", cpu_count(), "count");
  return res;
}

}  // namespace perfbench
