#include "core/experiment.h"

#include <cstdlib>
#include <string>

#include "core/session.h"
#include "netlist/ispd98_synth.h"
#include "store/artifact_store.h"

namespace rlcr::gsino {

double scale_from_env(double fallback) {
  const char* env = std::getenv("RLCROUTE_SCALE");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const double v = std::strtod(env, &end);
  if (end == env || v <= 0.0 || v > 1.0) return fallback;
  return v;
}

CircuitRun ExperimentRunner::run_one(const netlist::SyntheticSpec& spec,
                                     double rate, const GsinoParams& params,
                                     bool run_isino, bool run_gsino,
                                     std::shared_ptr<store::ArtifactStore> store) {
  return run_one(spec.name, netlist::generate(spec), spec.grid_spec(), rate,
                 params, run_isino, run_gsino, std::move(store));
}

CircuitRun ExperimentRunner::run_one(const std::string& name,
                                     const netlist::Netlist& design,
                                     const grid::RegionGridSpec& gspec,
                                     double rate, const GsinoParams& params,
                                     bool run_isino, bool run_gsino,
                                     std::shared_ptr<store::ArtifactStore> store) {
  CircuitRun run;
  run.circuit = name;
  run.rate = rate;

  GsinoParams p = params;
  p.sensitivity_rate = rate;
  const RoutingProblem problem(design, gspec, p);
  run.total_nets = problem.net_count();

  // One session per cell: ID+NO and iSINO share the Phase I artifact; a
  // store additionally shares Phase I across cells, runs, and processes.
  SessionOptions sopt;
  sopt.store = std::move(store);
  FlowSession session(problem, std::move(sopt));
  run.idno = summarize(session.run(FlowKind::kIdNo), problem);
  if (run_isino) {
    run.isino = summarize(session.run(FlowKind::kIsino), problem);
    run.has_isino = true;
  }
  if (run_gsino) {
    run.gsino = summarize(session.run(FlowKind::kGsino), problem);
    run.has_gsino = true;
  }
  return run;
}

std::vector<CircuitRun> ExperimentRunner::run() const {
  std::vector<CircuitRun> out;
  if (options_.ispd98) {
    const auto classes = netlist::ispd98_classes(options_.scale);
    for (int ci : options_.circuits) {
      if (ci < 0 || static_cast<std::size_t>(ci) >= classes.size()) continue;
      const netlist::Ispd98ClassSpec& cls =
          classes[static_cast<std::size_t>(ci)];
      // One instance per class, shared across rates (the netD parse / the
      // synthetic generation plus placement dominate setup time at
      // published sizes).
      const netlist::Ispd98Instance inst = netlist::make_ispd98_instance(cls);
      for (double rate : options_.rates) {
        out.push_back(run_one(cls.name, inst.design, inst.gspec, rate,
                              options_.params, options_.run_isino,
                              options_.run_gsino, options_.store));
      }
    }
    return out;
  }
  const auto suite = netlist::ibm_suite(options_.scale);
  for (int ci : options_.circuits) {
    if (ci < 0 || static_cast<std::size_t>(ci) >= suite.size()) continue;
    const netlist::SyntheticSpec& spec = suite[static_cast<std::size_t>(ci)];
    for (double rate : options_.rates) {
      out.push_back(run_one(spec, rate, options_.params, options_.run_isino,
                            options_.run_gsino, options_.store));
    }
  }
  return out;
}

}  // namespace rlcr::gsino
