// gsino_cold: the paper's run at published size. Each op builds a fresh
// FlowSession over the ibm01-class problem and runs route -> budget ->
// solve_regions -> refine. The traced run adds the refine pass-1/pass-2
// split, a threads=1 baseline, and the Steiner tree-build timing.
#include <cstring>

#include "core/refine.h"
#include "flow.h"
#include "steiner/tree_builder.h"
#include "steiner/tree_cache.h"

namespace perfbench {
namespace {

// `route_cli --ispd98-class ibm01 --scale 1 --flow gsino --fingerprint` at
// the default 0.15 V bound and seed 1.
constexpr std::uint64_t kPinnedRoute = 0xf7eac3649de2491fULL;
constexpr std::uint64_t kPinnedState = 0xdf28859535862a6eULL;
// Ops vary by about 5% one to the next on a shared 4-vCPU host; five of
// them keep the median steady.
constexpr std::size_t kMinOps = 5;

/// One cold op. The session is handed back through `keep` (when given)
/// so its artifacts outlive the timed region; teardown is never timed.
StageSample cold_op(const gsino::RoutingProblem& problem,
                    const gsino::Scenario& scenario, Tracer& tracer, int op,
                    std::unique_ptr<gsino::FlowSession>* keep = nullptr) {
  StageSample s;
  Scope root(tracer, "op", op);
  gsino::SessionOptions options;
  options.trace = false;
  auto session = std::make_unique<gsino::FlowSession>(problem, options);
  const gsino::FlowResult fr =
      gsino_stages(*session, scenario, tracer, op, &s);
  s.wall = root.stop();
  record_outcome(fr, &s);
  if (keep != nullptr) *keep = std::move(session);
  return s;
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// Drives refine pass 1 and pass 2 separately through FlowSession::state +
/// LocalRefiner and checks the result is bit-identical to
/// FlowSession::refine() on the same solve artifact.
bool refine_split(gsino::FlowSession& session, const gsino::Scenario& scenario,
                  double* pass1_s, double* pass2_s) {
  const gsino::GsinoParams& params = session.problem().params();
  const auto routed = session.route(gsino::FlowKind::kGsino);
  const auto budget =
      session.budget(gsino::FlowKind::kGsino, routed, params.crosstalk_bound_v,
                     params.budget_margin);
  const auto solved = session.solve_regions(gsino::FlowKind::kGsino, routed,
                                            budget, params.anneal_phase2);
  const auto want = session.refine(solved, scenario.refine);

  gsino::FlowState st = session.state(*solved);
  const gsino::LocalRefiner refiner(session.problem());
  gsino::RefineStats stats;
  double t = now_s();
  refiner.eliminate_violations(st, stats, scenario.refine);
  *pass1_s = now_s() - t;
  t = now_s();
  refiner.reduce_congestion(st, stats);
  *pass2_s = now_s() - t;
  st.refresh_noise();

  return same_bits(st.net_lsk, *want->net_lsk) &&
         same_bits(st.net_noise, *want->net_noise) &&
         st.congestion->total_shields() == want->congestion->total_shields() &&
         st.violating == want->violating && st.unfixable == want->unfixable &&
         stats.pass1_resolves == want->stats.pass1_resolves &&
         stats.pass2_accepted == want->stats.pass2_accepted &&
         stats.pass2_rejected == want->stats.pass2_rejected &&
         stats.pass2_shields_removed == want->stats.pass2_shields_removed;
}

}  // namespace

RunResult run_gsino_cold(const Config& cfg, Tracer& tracer) {
  RunResult res;
  const double scale = cfg.tiny ? 0.05 : 1.0;
  const int threads = bench_threads();

  std::vector<double> setup, instance_s, problem_s;
  Instance in;
  for (int k = 0; more_setups(setup); ++k) {
    in = build_instance("ibm01", scale, cfg.seed, threads);
    instance_s.push_back(in.instance_s);
    problem_s.push_back(in.problem_s);
    setup.push_back(in.instance_s + in.problem_s);
  }
  const gsino::RoutingProblem& problem = *in.problem;
  const gsino::Scenario scenario = flow_scenario(threads);

  std::optional<std::uint64_t> want_route = cfg.expect_route;
  std::optional<std::uint64_t> want_state = cfg.expect_state;
  if (!cfg.tiny && cfg.seed == 1) {
    if (!want_route) want_route = kPinnedRoute;
    if (!want_state) want_state = kPinnedState;
  }

  std::vector<StageSample> ops;
  std::unique_ptr<gsino::FlowSession> traced_session;
  reset_peak_rss();
  const double cpu0 = cpu_s();
  const double t0 = now_s();
  while (ops.size() < kMinOps || now_s() - t0 < cfg.seconds) {
    const int i = static_cast<int>(ops.size());
    // The traced run alternates traced and untraced ops so the tracing
    // overhead is measured inside one run.
    tracer.enabled = cfg.trace && i % 2 == 0;
    StageSample s = cold_op(problem, scenario, tracer, i,
                            tracer.enabled ? &traced_session : nullptr);
    if (!want_route) want_route = s.route_hash;
    if (!want_state) want_state = s.state_hash;
    const bool ok = s.route_hash == *want_route && s.state_hash == *want_state;
    note("gsino_cold op %d: %.3f s, route=%016llx state=%016llx%s", i, s.wall,
         static_cast<unsigned long long>(s.route_hash),
         static_cast<unsigned long long>(s.state_hash),
         ok ? "" : " (expected fingerprint differs)");
    res.op(ok);
    ops.push_back(std::move(s));
  }
  const LoopTotals totals{now_s() - t0, cpu_s() - cpu0, peak_rss_mib()};
  tracer.enabled = false;

  std::vector<double> wall, route_s, solve_s, refine_s;
  for (const StageSample& s : ops) {
    wall.push_back(s.wall);
    route_s.push_back(s.route_s);
    solve_s.push_back(s.solve_s);
    refine_s.push_back(s.refine_s);
  }
  note("gsino_cold: %zu ops, p50 %.3f s (route %.2f, sino %.2f, refine %.2f)",
       ops.size(), median(wall), median(route_s), median(solve_s),
       median(refine_s));
  report_timing(res, setup, wall, totals);
  res.e2e("shields", ops.back().shields, "count");
  res.e2e("wirelength_um", ops.back().wirelength_um, "um");
  res.e2e("overflow", ops.back().overflow, "tracks");
  if (!cfg.trace) return res;

  report_stage_layers(res, ops, tracer);
  res.layer("setup.instance_s", median(instance_s), "s");
  res.layer("setup.problem_s", median(problem_s), "s");

  // ---- refine pass split, checked bit-identical against refine().
  double pass1_s = 0.0, pass2_s = 0.0;
  const bool split_ok = refine_split(*traced_session, scenario, &pass1_s, &pass2_s);
  if (!split_ok) note("gsino_cold: refine pass split differs from refine()");
  res.op(split_ok);
  traced_session.reset();
  res.layer("refine.pass1_s", pass1_s, "s");
  res.layer("refine.pass2_s", pass2_s, "s");

  // ---- serial baseline: the same op at threads=1; its output must not move.
  const gsino::RoutingProblem serial_problem(in.inst.design, in.inst.gspec,
                                             flow_params(cfg.seed, 1));
  const StageSample s1 = cold_op(serial_problem, flow_scenario(1), tracer, -1);
  const bool serial_ok =
      s1.route_hash == *want_route && s1.state_hash == *want_state;
  if (!serial_ok) note("gsino_cold: threads=1 output differs");
  res.op(serial_ok);
  res.layer("parallel.threads", threads, "count");
  res.layer("parallel.num_cpus", cpu_count(), "count");
  res.layer("parallel.speedup.route", ratio(s1.route_s, median(route_s)), "x");
  res.layer("parallel.speedup.solve", ratio(s1.solve_s, median(solve_s)), "x");
  res.layer("parallel.speedup.refine", ratio(s1.refine_s, median(refine_s)), "x");

  // ---- Steiner layer: the fast tier over the class's pin sets, cached.
  steiner::TreeCache cache;
  const steiner::TreeBuilder builder({}, &cache);
  std::int64_t total_len = 0;
  const double ts = now_s();
  for (const router::RouterNet& net : problem.router_nets()) {
    if (net.pins.size() >= 2) {
      total_len += builder.length(net.pins, steiner::TreeProfile::kFast);
    }
  }
  const double tree_s = now_s() - ts;
  const steiner::TreeCache::Stats cs = cache.stats();
  res.op(total_len > 0);
  res.layer("steiner.tree_build_s", tree_s, "s");
  res.layer("steiner.cache_hit_ratio",
            ratio(static_cast<double>(cs.hits),
                  static_cast<double>(cs.hits + cs.misses)),
            "ratio");
  return res;
}

}  // namespace perfbench
