// Staged, re-entrant flow-session API.
//
// The three flows the paper compares (ID+NO, iSINO, GSINO) decompose into
// the same four stages, each producing an immutable, shareable artifact:
//
//     route()          -> RoutingArtifact      (Phase I: global routing)
//     budget()         -> BudgetArtifact       (Section 3.1: Kth bounds)
//     solve_regions()  -> RegionSolveArtifact  (Phase II: per-region SINO)
//     refine()         -> RefineArtifact       (Phase III: local refinement)
//
// A FlowSession owns the artifact caches for one RoutingProblem. Stage
// inputs are explicit, so the dependency graph — and with it the
// invalidation rules — is visible in the signatures:
//
//   - RoutingArtifact depends only on the router profile (IdRouterOptions
//     minus `threads`, which never changes output) and the problem's nets.
//     Changing `crosstalk_bound_v`, `budget_margin`, or Phase II
//     annealing does NOT invalidate it — that is what makes what-if re-solves
//     cheap. Changing router options or the seed produces a different
//     profile and therefore a different artifact (and everything
//     downstream of it).
//   - BudgetArtifact depends on (rule, bound_v, margin) and — for the
//     iSINO rule, which budgets from routed critical-path lengths — on the
//     routing artifact it was derived from, which it carries.
//   - RegionSolveArtifact depends on its routing + budget artifacts and
//     the Phase II choices (solve mode, annealing).
//   - RefineArtifact depends on its solve artifact alone: no Phase III
//     option changes output.
//
// Every artifact carries its inputs and none points into a RoutingProblem,
// so it outlives its problem. All artifacts are held behind
// shared_ptr<const>: they are safe to share
// across flows, sessions, and threads, and a FlowResult is nothing but a
// thin assembled view over them. Determinism is inherited from
// src/parallel's contract (see src/core/README.md): every stage is
// bit-identical at any thread count, so a reused artifact is
// indistinguishable from a recomputed one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/budget.h"
#include "core/paths.h"
#include "core/problem.h"
#include "core/regions.h"
#include "grid/congestion.h"
#include "router/id_router.h"
#include "router/occupancy.h"
#include "sino/evaluator.h"

namespace rlcr::store {
class ArtifactStore;
}  // namespace rlcr::store

namespace rlcr::obs {
class MetricsSnapshot;
}  // namespace rlcr::obs

namespace rlcr::scenario {
struct NetlistDelta;
struct DeltaReport;
class DeltaEngine;
}  // namespace rlcr::scenario

namespace rlcr::gsino {

enum class FlowKind { kIdNo, kIsino, kGsino };

const char* flow_name(FlowKind kind);

/// The (region, dir) <-> solution-index packing used by every per-region
/// container (solutions, congestion shields, batch items): one slot per
/// direction per region.
inline std::size_t sol_index_of(std::size_t region, grid::Dir d) {
  return region * 2 + static_cast<std::size_t>(d);
}
inline std::size_t sol_region(std::size_t sol_index) { return sol_index / 2; }
inline grid::Dir sol_dir(std::size_t sol_index) {
  return static_cast<grid::Dir>(sol_index % 2);
}

struct FlowTiming {
  double route_s = 0.0;
  double sino_s = 0.0;
  double refine_s = 0.0;
};

// --------------------------------------------------------------- artifacts

/// Index of per-(net, region, dir) critical-path lengths (um). Immutable
/// part of the routing artifact: Eq. (1) sums path_len * Ki over the
/// regions of a source->sink path only, so every downstream stage needs
/// this lookup. A view over each net's critical-path refs, which
/// critical_path() returns sorted by (region, dir): a lookup is a binary
/// search inside one net's path.
class PathIndex {
 public:
  explicit PathIndex(std::vector<CriticalPath> paths)
      : paths_(std::move(paths)) {}

  /// Length in um, or 0 when the region only hosts a branch.
  double length_um(std::size_t net, std::size_t region, grid::Dir dir) const {
    if (net >= paths_.size()) return 0.0;
    const std::vector<router::NetRegionRef>& refs = paths_[net].refs;
    const auto it = std::lower_bound(
        refs.begin(), refs.end(), std::pair{region, dir},
        [](const router::NetRegionRef& ref,
           const std::pair<std::size_t, grid::Dir>& key) {
          return ref.region != key.first ? ref.region < key.first
                                         : ref.dir < key.second;
        });
    return it != refs.end() && it->region == region && it->dir == dir
               ? it->length_um
               : 0.0;
  }

 private:
  std::vector<CriticalPath> paths_;
};

/// Phase I output: the routed tree of every net plus the derived,
/// flow-independent views (occupancy, segment congestion, critical paths).
/// Shared by every flow whose router profile matches — ID+NO and iSINO
/// always share one (the paper's fairness rule gives GSINO its own
/// shield-reserving profile).
struct RoutingArtifact {
  router::IdRouterOptions options;  ///< profile actually routed with
  /// Provenance: the problem seed this artifact was routed under. Not
  /// part of the cache identity — a session is pinned to one problem, so
  /// a seed change arrives as a new problem/session; the field lets
  /// consumers comparing artifacts across sessions tell them apart.
  std::uint64_t seed = 1;
  std::shared_ptr<const router::RoutingResult> routing;
  std::shared_ptr<const router::Occupancy> occupancy;
  /// Segment counts only (shield counts all zero) — the base every
  /// region-solve congestion map is copied from.
  std::shared_ptr<const grid::CongestionMap> segments;
  std::shared_ptr<const std::vector<double>> critical_path_um;  ///< per net
  std::shared_ptr<const PathIndex> paths;
  /// Every (region, dir) SINO instance's routing-only structure, shared by
  /// every solve and refine of this routing.
  std::shared_ptr<const RegionSet> regions;
  double seconds = 0.0;  ///< compute time when this artifact was built
};

/// Derive the flow-independent views of a routed result — occupancy,
/// segment congestion, critical paths/path index, region set — and
/// assemble the full artifact (seconds left at 0 for the caller to stamp).
/// This is the one derivation path shared by FlowSession::route(), the
/// delta engine and the persistent store's loader (store/serial.cpp), so an
/// artifact deserialized from disk is bit-identical to a freshly computed
/// one: the derivations are deterministic functions of (problem, routes).
/// A non-null `carry_from` (the routing a delta replaces) lends every
/// region-set instance whose inputs are unchanged (same_region_inputs);
/// the copy is bit-identical to a rebuild.
std::shared_ptr<RoutingArtifact> derive_routing_artifact(
    const RoutingProblem& problem, const router::IdRouterOptions& options,
    std::uint64_t seed, std::shared_ptr<const router::RoutingResult> routing,
    const RoutingArtifact* carry_from = nullptr);

/// How Phase I budgeting derives per-net Kth bounds.
enum class BudgetRule {
  kManhattan,        ///< LSK / Le (Manhattan estimate) — ID+NO reporting
  kRoutedLength,     ///< LSK / routed critical path — iSINO's post-route rule
  kManhattanMargin,  ///< margin * LSK / Le — GSINO's Phase I rule
};

BudgetRule budget_rule(FlowKind kind);

struct BudgetArtifact {
  BudgetRule rule = BudgetRule::kManhattan;
  double bound_v = 0.15;
  double margin = 1.0;  ///< applied under kManhattanMargin only
  /// The routing the bounds come from (kRoutedLength only, else null).
  std::shared_ptr<const RoutingArtifact> phase1;
  std::shared_ptr<const std::vector<double>> kth;  ///< per net
  double seconds = 0.0;
};

/// Phase II output: every (region, dir) SINO solution plus the derived
/// noise state, as an immutable snapshot. The solutions share the
/// routing's region set and own only this bound's Kth, slots and Ki.
/// Phase III copies the mutable parts into a FlowState; flows without
/// refinement view it directly.
struct RegionSolveArtifact {
  FlowKind kind = FlowKind::kIdNo;  ///< solve mode (net-order vs SINO)
  bool annealed = false;            ///< Phase II annealing was enabled
  std::shared_ptr<const RoutingArtifact> phase1;
  std::shared_ptr<const BudgetArtifact> budget;
  std::shared_ptr<const RegionSolutions> solutions;  ///< over phase1->regions
  std::shared_ptr<const std::vector<double>> net_lsk;
  std::shared_ptr<const std::vector<double>> net_noise;
  std::shared_ptr<const grid::CongestionMap> congestion;  ///< with shields
  std::size_t violating = 0;
  double seconds = 0.0;

  /// Heap bytes this artifact owns: its solutions' per-bound arrays, LSK,
  /// noise and congestion map. Shared inputs (routing, budget, region
  /// set) are not counted.
  std::size_t owned_bytes() const;
};

// ----------------------------------------------------------- stage compute
//
// The one compute path of the Phase I, budget and Phase II stages.
// FlowSession calls these on a cache and store miss; the incremental delta
// engine (src/scenario) calls them to patch cached artifacts, so a patched
// artifact and a fresh one come out of the same code.

/// Phase I: route every net of `problem` under the router profile
/// `options`, then derive the artifact's views through
/// derive_routing_artifact (which `carry_from` is passed on to). Stamps
/// `seconds`.
std::shared_ptr<const RoutingArtifact> compute_route(
    const RoutingProblem& problem, const router::IdRouterOptions& options,
    const RoutingArtifact* carry_from = nullptr);

/// Fill the region-set slice of one (region, dir) from an occupancy's
/// segment list: member nets in segment order with their S_i, wire and
/// critical-path lengths, and the pairwise sensitivity matrix. The one
/// construction path of every RegionSet instance; `out` is sized to the
/// segment count.
void build_region_solution(const RoutingProblem& problem,
                           const router::Occupancy& occ, std::size_t region,
                           grid::Dir dir, const PathIndex& paths,
                           RegionSet::Slice out);

/// True when everything build_region_solution reads for solution index
/// `si` is bitwise the same under `old` and the (occupancy, paths) of a
/// new routing: the segment list (members and lengths) and each member's
/// critical-path length. Member S_i and the pairwise sensitivity draws are
/// index-stable under a slot-preserving delta (scenario/delta.h), so equal
/// members imply equal values for both.
bool same_region_inputs(const RoutingArtifact& old,
                        const router::Occupancy& occ, const PathIndex& paths,
                        std::size_t si);

/// Per-net Kth bounds (Section 3.1) under `rule`. `phase1` supplies (and
/// is kept as) the routed lengths of kRoutedLength; other rules ignore it.
/// `margin` applies under kManhattanMargin only. Stamps `seconds`.
std::shared_ptr<const BudgetArtifact> compute_budget(
    const RoutingProblem& problem, BudgetRule rule, double bound_v,
    double margin, std::shared_ptr<const RoutingArtifact> phase1);

/// Phase II over every (region, dir): solve each instance
/// (net order for ID+NO, greedy for the SINO flows, annealing the
/// greedy-infeasible ones when `anneal`), then accumulate LSK and shields
/// in (region, dir) order and count violations under the budget's bound.
/// Instances are views over `phase1->regions` under the budget's Kth. A
/// non-empty `carried[si]` is an already solved solution whose slots and
/// Ki are copied instead of solved; since the accumulation still replays
/// over every region, the result is bit-identical to a full solve whenever
/// each carried solution is. Stamps `seconds`.
std::shared_ptr<const RegionSolveArtifact> solve_region_set(
    const RoutingProblem& problem, FlowKind kind, bool anneal,
    std::shared_ptr<const RoutingArtifact> phase1,
    std::shared_ptr<const BudgetArtifact> budget,
    const std::vector<RegionSolution>& carried = {});

struct RefineStats {
  int pass1_nets_fixed = 0;
  int pass1_resolves = 0;
  int pass1_gave_up = 0;
  int pass2_shields_removed = 0;
  int pass2_accepted = 0;
  int pass2_rejected = 0;
};

/// Phase III options (a refine() argument on the session). Both passes
/// run on the calling thread, so nothing here changes output or cache
/// identity.
struct RefineOptions {
  /// Unused: kept only because the perfbench harness still sets it; due
  /// for removal in the next benchmark change (ROADMAP item 9).
  int threads = 0;
};

/// Phase III output: the refined per-region state. Its solutions share
/// the base solve's region set and own their refined Kth, slots and Ki.
struct RefineArtifact {
  std::shared_ptr<const RegionSolveArtifact> base;
  std::shared_ptr<const RegionSolutions> solutions;
  std::shared_ptr<const std::vector<double>> net_lsk;
  std::shared_ptr<const std::vector<double>> net_noise;
  std::shared_ptr<const grid::CongestionMap> congestion;
  std::size_t violating = 0;
  std::size_t unfixable = 0;
  RefineStats stats;
  double seconds = 0.0;

  /// Heap bytes this artifact owns, as RegionSolveArtifact::owned_bytes
  /// counts them (the base solve is not counted).
  std::size_t owned_bytes() const;
};

// -------------------------------------------------------------- FlowResult

/// A thin assembled view over the stage artifacts of one flow. Copyable
/// and cheap: the heavyweight state lives in the shared artifacts. The
/// final per-region state aliases the refine artifact's when Phase III
/// ran, else the solve artifact's.
struct FlowResult {
  FlowKind kind = FlowKind::kIdNo;
  std::string name;
  double bound_v = 0.15;

  std::shared_ptr<const RoutingArtifact> phase1;
  std::shared_ptr<const BudgetArtifact> budget;
  std::shared_ptr<const RegionSolveArtifact> phase2;
  std::shared_ptr<const RefineArtifact> phase3;  ///< null unless refined

  /// Final (possibly refined) state.
  std::shared_ptr<const RegionSolutions> solutions_ptr;
  std::shared_ptr<const std::vector<double>> net_lsk_ptr;
  std::shared_ptr<const std::vector<double>> net_noise_ptr;
  std::shared_ptr<const grid::CongestionMap> congestion;
  std::shared_ptr<const router::Occupancy> occupancy;

  const router::RoutingResult& routing() const { return *phase1->routing; }
  const RegionSolutions& solutions() const { return *solutions_ptr; }
  const std::vector<double>& net_lsk() const { return *net_lsk_ptr; }
  const std::vector<double>& net_noise() const { return *net_noise_ptr; }
  const std::vector<double>& kth() const { return *budget->kth; }
  const std::vector<double>& critical_path_um() const {
    return *phase1->critical_path_um;
  }

  double total_wirelength_um = 0.0;
  double avg_wirelength_um = 0.0;
  grid::RoutingArea area;
  double total_shields = 0.0;
  std::size_t violating = 0;   ///< nets with noise > bound
  std::size_t unfixable = 0;   ///< GSINO: nets Phase III gave up on
  FlowTiming timing;
};

/// FNV-1a over the flow's final per-net state (LSK/noise bit patterns,
/// shields, violation counts): one u64 that moves iff the output moved.
/// Deterministic across thread counts by the src/parallel contracts —
/// route_cli prints it, the service
/// returns it on the wire, and CI's multi-thread smoke pins it against a
/// threads=1 run.
std::uint64_t state_fingerprint(const FlowResult& fr);

// --------------------------------------------------------------- FlowState

/// Mutable Phase III working state, owned by whoever asked the session for
/// one; it shares its problem, so it survives later deltas. The historical
/// free functions resolve_region / refresh_noise / finalize_metrics over
/// FlowResult are methods here; LocalRefiner operates on a FlowState.
/// The per-bound arrays are mutable copies of a solve's; the region set
/// stays shared.
struct FlowState {
  std::shared_ptr<const RoutingProblem> problem;
  FlowKind kind = FlowKind::kGsino;
  double bound_v = 0.15;
  std::shared_ptr<const RoutingArtifact> phase1;
  std::shared_ptr<const BudgetArtifact> budget;

  std::shared_ptr<const RegionSet> regions;  ///< phase1->regions
  std::vector<double> kth;  ///< per member of `regions`, current Kth
  std::vector<double> ki;   ///< per member of `regions`, current Ki
  std::vector<ktable::SlotVec> slots;  ///< per solution index (region * 2 + dir)
  std::vector<double> net_lsk;            ///< Eq. (1) per net
  std::vector<double> net_noise;          ///< table lookup of net_lsk (V)
  std::unique_ptr<grid::CongestionMap> congestion;
  std::size_t violating = 0;
  std::size_t unfixable = 0;

  /// Optional per-region hook: resolve_region calls it with the solution
  /// index it just re-solved (the pick order Phase III tests compare).
  std::function<void(std::size_t)> on_resolve;

  const router::Occupancy& occupancy() const { return *phase1->occupancy; }

  std::size_t solution_count() const { return slots.size(); }
  /// View of one (region, dir) under the current state.
  RegionSolution solution(std::size_t sol_index) const {
    const std::size_t b = regions->begin(sol_index);
    return regions->solution(sol_index, kth.data() + b, ki.data() + b,
                             slots[sol_index]);
  }
  /// The current Kth of one (region, dir)'s members, writable.
  std::span<double> kth_of(std::size_t sol_index) {
    return {kth.data() + regions->begin(sol_index), regions->count(sol_index)};
  }

  /// Re-solve one region under its members' current Kth (greedy,
  /// optionally annealing when infeasible), updating slots/ki, the
  /// region's shield count, and every member net's LSK/noise.
  void resolve_region(std::size_t sol_index, bool allow_anneal);

  /// Density (utilization / capacity) of the (region, dir) behind
  /// `sol_index` under the current congestion map.
  double solution_density(std::size_t sol_index) const;

  /// Recompute noise from LSK for all nets and refresh `violating`.
  void refresh_noise();
};

// -------------------------------------------------------------- FlowSession

/// Stage-execution counters: `*_executed` counts actual compute,
/// `*_requests` counts stage calls, and `*_loaded` counts artifacts served
/// from the persistent store (neither a compute nor an in-memory hit). A
/// what-if re-solve at a new bound shows route_requests advancing while
/// route_executed stands still — the proof Phase I was skipped; a fresh
/// process warm-starting from a shared store shows route_executed == 0
/// with route_loaded > 0.
struct StageCounters {
  std::size_t route_requests = 0, route_executed = 0, route_loaded = 0;
  std::size_t budget_requests = 0, budget_executed = 0, budget_loaded = 0;
  std::size_t solve_requests = 0, solve_executed = 0, solve_loaded = 0;
  std::size_t refine_requests = 0, refine_executed = 0, refine_loaded = 0;
  /// Incremental-delta economics (FlowSession::apply_delta, src/scenario):
  /// how many nets the delta routed (every net of the mutated problem, once
  /// per cached router profile), and how many (region, dir) Phase II solves
  /// were recomputed vs carried over — summed across every cached artifact
  /// each apply_delta() patched. The reused regions are the compute avoided
  /// by incrementality; the patched results are bit-identical to
  /// from-scratch runs, so the split is pure economics, never behavior.
  std::size_t delta_applies = 0;
  std::size_t delta_nets_rerouted = 0;
  std::size_t delta_regions_solved = 0, delta_regions_reused = 0;
};

/// What-if overrides for a re-entrant run: every field left unset falls
/// back to the problem's GsinoParams. None of these invalidate the
/// routing artifact.
struct Scenario {
  std::optional<double> bound_v;
  std::optional<double> budget_margin;
  std::optional<bool> anneal_phase2;
  RefineOptions refine;
};

struct SessionOptions {
  /// Optional persistent artifact store (store/artifact_store.h). When
  /// set, every stage (route, budget, solve_regions, refine) looks up the
  /// same key in it on an in-memory miss before computing — a fresh
  /// process warm-starts from artifacts a previous session published —
  /// and publishes freshly computed artifacts back. Loaded artifacts are
  /// bit-identical to computed ones (the store's load path re-derives
  /// views through derive_routing_artifact and verifies the embedded route
  /// hash), so downstream stages cannot tell the difference. Safe to share
  /// one store across concurrent sessions and processes.
  std::shared_ptr<store::ArtifactStore> store;
  /// Per-stage in-memory artifact cache budget (entries, LRU eviction;
  /// 0 = unbounded). The default is generous — experiment-sized runs
  /// never evict — while a long-lived what-if service can bound its
  /// footprint; every evicted stage artifact (routing, budget, solve,
  /// refine) stays reachable through `store`.
  std::size_t cache_entries = 64;
  /// Emit this session's stage spans into an active obs::TraceSession
  /// (obs/trace.h). Off silences only this session's "session"-category
  /// spans — subsystem spans (router, store, pool...) key off the global
  /// trace switch alone.
  bool trace = true;
};

/// A staged, re-entrant pipeline over one RoutingProblem. Stages can be
/// driven individually (explicit artifact plumbing) or through run(),
/// which executes route -> budget -> solve_regions [-> refine] with
/// caching: any artifact whose inputs are unchanged is reused, so
/// re-running a flow at a new crosstalk bound skips Phase I entirely, and
/// flows with identical router profiles share one routing artifact.
class FlowSession {
 public:
  explicit FlowSession(const RoutingProblem& problem,
                       SessionOptions options = {});

  const RoutingProblem& problem() const { return *problem_; }
  const StageCounters& counters() const { return counters_; }

  /// This session's counters, the most recently touched routing/refine
  /// artifacts' stats, and the attached store's stats (when one is
  /// attached) as a flat name-keyed registry view — see obs/metrics.h
  /// for the naming convention and JSON export.
  obs::MetricsSnapshot metrics() const;

  /// Router profile a flow routes with (the paper's fairness rule: only
  /// GSINO reserves shield area and gets detour headroom).
  router::IdRouterOptions router_profile(FlowKind kind) const;

  // ---- stages ----------------------------------------------------------

  /// Phase I for a flow's router profile; cached under
  /// store::routing_key (problem + profile).
  std::shared_ptr<const RoutingArtifact> route(FlowKind kind);
  /// Phase I for an explicit profile (the `threads` field is ignored for
  /// cache identity — it never changes output).
  std::shared_ptr<const RoutingArtifact> route(
      const router::IdRouterOptions& options);

  /// Budgeting; cached under store::budget_key (rule, bound, margin, and
  /// the routing profile for the routed-length rule). The margin is
  /// normalized to 1.0 for rules that never apply it, so a margin-only
  /// what-if on ID+NO/iSINO is a cache hit.
  std::shared_ptr<const BudgetArtifact> budget(
      FlowKind kind, const std::shared_ptr<const RoutingArtifact>& phase1,
      double bound_v, double margin);

  /// Phase II; cached under store::solve_key (kind, anneal, and the keys
  /// of the routing and budget inputs, each budget keyed by its own).
  std::shared_ptr<const RegionSolveArtifact> solve_regions(
      FlowKind kind, const std::shared_ptr<const RoutingArtifact>& phase1,
      const std::shared_ptr<const BudgetArtifact>& budget, bool anneal_phase2);

  /// Phase III; cached under store::refine_key of the solve's key —
  /// refinement is deterministic and no RefineOptions field changes
  /// output, so a repeat request is a cache hit.
  std::shared_ptr<const RefineArtifact> refine(
      const std::shared_ptr<const RegionSolveArtifact>& solve,
      const RefineOptions& options = {});

  // ---- assembled runs --------------------------------------------------

  /// Full pipeline under the problem's params, reusing cached artifacts.
  FlowResult run(FlowKind kind) { return run(kind, Scenario{}); }

  /// What-if re-solve: same pipeline with scenario overrides. Changing
  /// bound_v / budget_margin / anneal_phase2 reuses the routing artifact.
  FlowResult run(FlowKind kind, const Scenario& scenario);

  /// Mutable Phase III working state over the (cached) solve artifact of
  /// a flow — the entry point for custom refinement.
  FlowState state(FlowKind kind, const Scenario& scenario = {});
  /// Same, over an explicit solve artifact.
  FlowState state(const RegionSolveArtifact& solve) const;

  // ---- incremental deltas ---------------------------------------------

  /// Apply a slot-preserving netlist delta (add / remove / re-pin a set of
  /// nets) to this session in place: the session's problem becomes the
  /// mutated problem, every cached routing profile routes the mutated
  /// problem through compute_route, cached budget and Phase II solve
  /// artifacts are patched downstream (solves carry clean (region, dir)
  /// solutions over and recompute only the dirty ones), and refine
  /// artifacts are invalidated (Phase III orders work by global
  /// worst-violator, which has no regional patch); a delta that keeps the
  /// problem's fingerprint changes nothing. The replaced problem is
  /// released, unless a FlowState shares it. Every patched artifact
  /// is bit-identical to what a from-scratch session over the mutated
  /// problem computes — the contract tests/delta_differential_test.cpp
  /// pins — and is published to the persistent store under the mutated
  /// problem's own keys, so delta chains warm-start across processes.
  /// Implemented in src/scenario/delta.cpp.
  scenario::DeltaReport apply_delta(const scenario::NetlistDelta& delta);

 private:
  friend class scenario::DeltaEngine;
  /// route -> budget -> solve_regions under scenario overrides (the shared
  /// front of run() and state()).
  std::shared_ptr<const RegionSolveArtifact> solve_for(
      FlowKind kind, const Scenario& scenario);
  FlowResult assemble(FlowKind kind,
                      std::shared_ptr<const RegionSolveArtifact> solve,
                      std::shared_ptr<const RefineArtifact> refined) const;

  /// A non-owning alias of the caller's problem until apply_delta()
  /// replaces it with the owned mutated problem.
  std::shared_ptr<const RoutingProblem> problem_;
  SessionOptions options_;
  StageCounters counters_;

  // In-memory stage caches. Every entry is filed under the key its stage
  // computes for the persistent store (store::routing_key, budget_key,
  // solve_key, refine_key), so memory and disk share one content identity:
  // an artifact recomputed after eviction, or loaded from the store, finds
  // its downstream entries. Each cache is an LRU list in recency order
  // (back = most recent): a hit rotates its entry to the back, an insert
  // beyond SessionOptions::cache_entries evicts the front. Entries hold
  // their artifacts via shared_ptr, so eviction never invalidates an
  // artifact a caller still references, and every evicted artifact stays
  // reachable through the store when one is attached.
  template <typename Artifact>
  struct CacheEntry {
    std::uint64_t key = 0;
    std::shared_ptr<const Artifact> artifact;
  };
  std::vector<CacheEntry<RoutingArtifact>> route_cache_;
  std::vector<CacheEntry<BudgetArtifact>> budget_cache_;
  std::vector<CacheEntry<RegionSolveArtifact>> solve_cache_;
  std::vector<CacheEntry<RefineArtifact>> refine_cache_;
};

}  // namespace rlcr::gsino
