#include "scenario/matrix.h"

#include <algorithm>
#include <utility>

#include "core/session.h"
#include "netlist/ispd98_synth.h"
#include "scenario/delta.h"
#include "store/artifact_store.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace rlcr::scenario {

const char* kind_name(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kBoundSweep: return "bound_sweep";
    case ScenarioKind::kTechSweep: return "tech_sweep";
    case ScenarioKind::kDeltaChain: return "delta_chain";
    case ScenarioKind::kEcoSlice: return "eco_slice";
  }
  return "unknown";
}

namespace {

/// The crosstalk-bound ladder a bound-sweep cell re-solves at. The first
/// rung routes; every later rung reuses the Phase I artifact.
constexpr double kBounds[] = {0.10, 0.15, 0.20, 0.25};

/// Multi-corner `params.tech` points: edge rate and driver strength move
/// together (slow silicon drives slower edges through weaker drivers).
struct TechCorner {
  const char* name;
  double rise_scale;
  double driver_scale;
};
constexpr TechCorner kCorners[] = {
    {"typ", 1.0, 1.0}, {"slow", 1.5, 1.25}, {"fast", 0.8, 0.85}};

constexpr std::uint64_t kDeltaChainSeed = 0xEC0;
constexpr std::size_t kDeltaChainSteps = 2;
constexpr std::size_t kDeltaChainChanges = 4;

gsino::GsinoParams corner_params(const gsino::GsinoParams& base,
                                 const TechCorner& corner) {
  gsino::GsinoParams p = base;
  p.tech.rise_time_s *= corner.rise_scale;
  p.tech.driver_ohms *= corner.driver_scale;
  return p;
}

/// Stage requests served from the in-memory caches (neither executed nor
/// loaded from the persistent store) — the sweep campaigns' avoided work.
std::size_t stage_hits(const gsino::StageCounters& c) {
  return (c.route_requests - c.route_executed - c.route_loaded) +
         (c.budget_requests - c.budget_executed - c.budget_loaded) +
         (c.solve_requests - c.solve_executed - c.solve_loaded) +
         (c.refine_requests - c.refine_executed - c.refine_loaded);
}

/// The structured ECO of an eco-slice cell: a deterministic slice of
/// existing nets re-pinned into the chip's lower-left quarter window.
NetlistDelta eco_slice_delta(const gsino::RoutingProblem& p,
                             std::uint64_t seed) {
  NetlistDelta delta;
  const std::size_t count = p.net_count();
  if (count == 0) return delta;
  const std::size_t slice =
      std::min<std::size_t>(40, std::max<std::size_t>(4, count / 64));
  const std::size_t stride = std::max<std::size_t>(1, count / slice);
  util::Xoshiro256 rng(util::SplitMix64::mix2(seed, 0x51C3));
  const double w = p.grid().chip_w_um(), h = p.grid().chip_h_um();
  for (std::size_t n = 0; n < count && delta.changes.size() < slice;
       n += stride) {
    NetChange c;
    c.kind = NetChange::Kind::kRepin;
    c.net = n;
    const std::size_t pins = 2 + delta.changes.size() % 3;
    for (std::size_t j = 0; j < pins; ++j) {
      c.pins.push_back(geom::PointF{rng.uniform(0.0, 0.25 * w),
                                    rng.uniform(0.0, 0.25 * h)});
    }
    delta.changes.push_back(std::move(c));
  }
  return delta;
}

void run_bound_sweep(const gsino::RoutingProblem& problem,
                     const gsino::SessionOptions& opts, util::Fnv1a64& h,
                     ScenarioCell& cell) {
  gsino::FlowSession session(problem, opts);
  std::uint64_t last = 0;
  for (const double bound : kBounds) {
    gsino::Scenario sc;
    sc.bound_v = bound;
    last = gsino::state_fingerprint(session.run(gsino::FlowKind::kGsino, sc));
    h.u64(last);
    ++cell.runs;
  }
  cell.compute_avoided = stage_hits(session.counters());

  // Differential check: the last rung recomputed from scratch, no store.
  gsino::FlowSession fresh(problem);
  gsino::Scenario sc;
  sc.bound_v = kBounds[std::size(kBounds) - 1];
  cell.fingerprint_match =
      gsino::state_fingerprint(fresh.run(gsino::FlowKind::kGsino, sc)) == last
          ? 1
          : 0;
}

void run_tech_sweep(const netlist::Netlist& design,
                    const grid::RegionGridSpec& gspec,
                    const gsino::GsinoParams& params,
                    const gsino::SessionOptions& opts, util::Fnv1a64& h,
                    ScenarioCell& cell) {
  std::uint64_t last = 0;
  for (const TechCorner& corner : kCorners) {
    const gsino::RoutingProblem problem(design, gspec,
                                        corner_params(params, corner));
    gsino::FlowSession session(problem, opts);
    for (const gsino::FlowKind kind :
         {gsino::FlowKind::kIdNo, gsino::FlowKind::kIsino,
          gsino::FlowKind::kGsino}) {
      last = gsino::state_fingerprint(session.run(kind));
      h.u64(last);
      ++cell.runs;
    }
    // ID+NO and iSINO share one routing artifact per corner (the fairness
    // rule), so every corner avoids at least one Phase I.
    cell.compute_avoided += stage_hits(session.counters());
  }

  const gsino::RoutingProblem problem(
      design, gspec, corner_params(params, kCorners[std::size(kCorners) - 1]));
  gsino::FlowSession fresh(problem);
  cell.fingerprint_match =
      gsino::state_fingerprint(fresh.run(gsino::FlowKind::kGsino)) == last ? 1
                                                                           : 0;
}

void run_delta_campaign(const gsino::RoutingProblem& problem,
                        const std::vector<NetlistDelta>& chain,
                        const gsino::SessionOptions& opts, util::Fnv1a64& h,
                        ScenarioCell& cell) {
  gsino::FlowSession session(problem, opts);
  gsino::FlowResult fr = session.run(gsino::FlowKind::kGsino);
  h.u64(gsino::state_fingerprint(fr));
  ++cell.runs;
  for (const NetlistDelta& delta : chain) {
    session.apply_delta(delta);
    fr = session.run(gsino::FlowKind::kGsino);
    h.u64(gsino::state_fingerprint(fr));
    ++cell.runs;
  }
  const gsino::StageCounters& c = session.counters();
  cell.compute_avoided = c.delta_regions_reused + stage_hits(c);

  // Differential check: the whole chain applied to the problem up front,
  // then one from-scratch run — route hash and state fingerprint must
  // both match the incremental end state.
  gsino::RoutingProblem scratch = problem;
  for (const NetlistDelta& delta : chain) {
    scratch = apply_delta(scratch, delta);
  }
  gsino::FlowSession fresh(scratch);
  const gsino::FlowResult want = fresh.run(gsino::FlowKind::kGsino);
  cell.fingerprint_match =
      (gsino::state_fingerprint(want) == gsino::state_fingerprint(fr) &&
       router::route_hash(want.routing()) == router::route_hash(fr.routing()))
          ? 1
          : 0;
}

}  // namespace

ScenarioCell ScenarioMatrix::run_cell(
    const std::string& circuit, const netlist::Netlist& design,
    const grid::RegionGridSpec& gspec, ScenarioKind kind,
    const gsino::GsinoParams& params,
    std::shared_ptr<store::ArtifactStore> store) {
  util::Stopwatch watch;
  ScenarioCell cell;
  cell.circuit = circuit;
  cell.kind = kind;

  gsino::SessionOptions opts;
  opts.store = std::move(store);
  util::Fnv1a64 h;

  const gsino::RoutingProblem problem(design, gspec, params);
  cell.total_nets = problem.net_count();

  switch (kind) {
    case ScenarioKind::kBoundSweep:
      run_bound_sweep(problem, opts, h, cell);
      break;
    case ScenarioKind::kTechSweep:
      run_tech_sweep(design, gspec, params, opts, h, cell);
      break;
    case ScenarioKind::kDeltaChain: {
      // Each step's corpus is drawn against the evolving problem; the
      // from-scratch arm inside run_delta_campaign replays the same
      // seeds, so both arms see the identical chain.
      std::vector<NetlistDelta> chain;
      gsino::RoutingProblem evolving = problem;
      for (std::size_t i = 0; i < kDeltaChainSteps; ++i) {
        chain.push_back(
            random_delta(evolving, kDeltaChainSeed + i, kDeltaChainChanges));
        evolving = apply_delta(evolving, chain.back());
      }
      run_delta_campaign(problem, chain, opts, h, cell);
      break;
    }
    case ScenarioKind::kEcoSlice: {
      const std::vector<NetlistDelta> chain = {
          eco_slice_delta(problem, params.seed)};
      run_delta_campaign(problem, chain, opts, h, cell);
      break;
    }
  }

  cell.fingerprint = h.value();
  cell.seconds = watch.seconds();
  return cell;
}

std::vector<ScenarioCell> ScenarioMatrix::run() const {
  std::vector<ScenarioCell> out;
  const auto classes = netlist::ispd98_classes(options_.scale);
  for (const int ci : options_.circuits) {
    if (ci < 0 || static_cast<std::size_t>(ci) >= classes.size()) continue;
    const netlist::Ispd98ClassSpec& cls = classes[static_cast<std::size_t>(ci)];
    const netlist::Ispd98Instance inst = netlist::make_ispd98_instance(cls);
    for (const ScenarioKind kind : options_.kinds) {
      out.push_back(run_cell(cls.name, inst.design, inst.gspec, kind,
                             options_.params, options_.store));
    }
  }
  return out;
}

}  // namespace rlcr::scenario
