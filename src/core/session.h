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
//     routing artifact it was derived from.
//   - RegionSolveArtifact depends on its routing + budget artifacts and
//     the Phase II choices (solve mode, annealing).
//   - RefineArtifact depends on its solve artifact alone: no Phase III
//     option changes output.
//
// All artifacts are held behind shared_ptr<const>: they are safe to share
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

/// The SINO (or ordering) state of one (region, direction).
struct RegionSolution {
  sino::SinoInstance instance;          ///< nets with S_i and current Kth
  std::vector<std::size_t> net_index;   ///< instance net -> global net index
  std::vector<double> len_mm;           ///< net's tree wire length here (tracks)
  /// Net's critical source->sink path length inside this region (mm); zero
  /// when the region only hosts a branch to another sink. LSK (Eq. 1) sums
  /// path_len_mm * Ki — noise at a sink accumulates along its path only.
  std::vector<double> path_len_mm;
  ktable::SlotVec slots;                ///< track assignment
  std::vector<double> ki;               ///< per instance net, current Ki

  bool empty() const { return net_index.empty(); }
};

struct FlowTiming {
  double route_s = 0.0;
  double sino_s = 0.0;
  double refine_s = 0.0;
};

// --------------------------------------------------------------- observer

/// Pipeline stages, in dependency order.
enum class Stage { kRoute, kBudget, kSolveRegions, kRefine };

const char* stage_name(Stage stage);

constexpr std::size_t kNoRegion = static_cast<std::size_t>(-1);

/// One stage-progress event. Region-scoped events (individual Phase III
/// re-solves) carry the (region, dir) solution index in `region`; whole-
/// stage events use kNoRegion. `reused` marks artifacts served from the
/// session cache — their `seconds` is the original compute time, not the
/// (near-zero) lookup time.
struct StageEvent {
  Stage stage = Stage::kRoute;
  FlowKind flow = FlowKind::kIdNo;
  std::size_t region = kNoRegion;
  double seconds = 0.0;
  bool reused = false;
};

/// Progress/observer callback: one type-erased signature for every
/// consumer (sessions, the experiment harness, CLIs).
///
/// DEPRECATION NOTE: for timing/profiling, prefer the span tracer
/// (obs/trace.h) — it covers sub-stage phases the observer never sees
/// (router build/deletion, refine passes, per-region re-solves,
/// store I/O, pool occupancy) and exports Perfetto-loadable traces; the
/// counters behind it unify into obs::MetricsSnapshot
/// (FlowSession::metrics()). StageObserver stays supported as a
/// *progress* hook (live UIs reacting to stage completion), which is the
/// one job the record-and-export tracer does not do.
using StageObserver = std::function<void(const StageEvent&)>;

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
  double seconds = 0.0;  ///< compute time when this artifact was built
};

/// Derive the flow-independent views of a routed result — occupancy,
/// segment congestion, critical paths/path index — and assemble the full
/// artifact (seconds left at 0 for the caller to stamp). This is the one
/// derivation path shared by FlowSession::route() and the persistent
/// store's loader (store/serial.cpp), so an artifact deserialized from
/// disk is bit-identical to a freshly computed one: the derivations are
/// deterministic functions of (problem, routes).
std::shared_ptr<RoutingArtifact> derive_routing_artifact(
    const RoutingProblem& problem, const router::IdRouterOptions& options,
    std::uint64_t seed, std::shared_ptr<const router::RoutingResult> routing);

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
  std::shared_ptr<const std::vector<double>> kth;  ///< per net
  double seconds = 0.0;
};

/// Phase II output: every (region, dir) SINO solution plus the derived
/// noise state, as an immutable snapshot. Phase III copies the mutable
/// parts into a FlowState; flows without refinement view it directly.
struct RegionSolveArtifact {
  FlowKind kind = FlowKind::kIdNo;  ///< solve mode (net-order vs SINO)
  bool annealed = false;            ///< Phase II annealing was enabled
  std::shared_ptr<const RoutingArtifact> phase1;
  std::shared_ptr<const BudgetArtifact> budget;
  std::shared_ptr<const std::vector<RegionSolution>> solutions;
  std::shared_ptr<const std::vector<double>> net_lsk;
  std::shared_ptr<const std::vector<double>> net_noise;
  std::shared_ptr<const grid::CongestionMap> congestion;  ///< with shields
  std::size_t violating = 0;
  double seconds = 0.0;
};

// ----------------------------------------------------------- stage compute
//
// The one compute path of the Phase I, budget and Phase II stages.
// FlowSession calls these on a cache and store miss; the incremental delta
// engine (src/scenario) calls them to patch cached artifacts, so a patched
// artifact and a fresh one come out of the same code.

/// Phase I: route every net of `problem` under the router profile
/// `options`, then derive the artifact's views through
/// derive_routing_artifact. Stamps `seconds`.
std::shared_ptr<const RoutingArtifact> compute_route(
    const RoutingProblem& problem, const router::IdRouterOptions& options);

/// Build the SINO instance of one (region, dir) from an occupancy's
/// segment list: member nets in segment order with their S_i / Kth, wire
/// and critical-path lengths, and the pairwise sensitivity edges. The one
/// construction path solve_region_set uses for every region it solves.
RegionSolution build_region_solution(const RoutingProblem& problem,
                                     const router::Occupancy& occ,
                                     std::size_t region, grid::Dir dir,
                                     const std::vector<double>& kth,
                                     const PathIndex& paths);

/// Per-net Kth bounds (Section 3.1) under `rule`. `phase1` supplies the
/// routed critical-path lengths of kRoutedLength and is unused otherwise;
/// `margin` applies under kManhattanMargin only. Stamps `seconds`.
std::shared_ptr<const BudgetArtifact> compute_budget(
    const RoutingProblem& problem, BudgetRule rule, double bound_v,
    double margin, const RoutingArtifact* phase1);

/// Phase II over every (region, dir): build each instance, solve it
/// (net order for ID+NO, greedy for the SINO flows, annealing the
/// greedy-infeasible ones when `anneal`), then accumulate LSK and shields
/// in (region, dir) order and count violations under the budget's bound.
/// A non-null `carried[si]` is an already solved solution that is copied
/// instead of built and solved; since the accumulation still replays over
/// every region, the result is bit-identical to a full solve whenever
/// each carried solution is. Stamps `seconds`.
std::shared_ptr<const RegionSolveArtifact> solve_region_set(
    const RoutingProblem& problem, FlowKind kind, bool anneal,
    std::shared_ptr<const RoutingArtifact> phase1,
    std::shared_ptr<const BudgetArtifact> budget,
    const std::vector<const RegionSolution*>& carried = {});

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

/// Phase III output: the refined per-region state.
struct RefineArtifact {
  std::shared_ptr<const RegionSolveArtifact> base;
  std::shared_ptr<const std::vector<RegionSolution>> solutions;
  std::shared_ptr<const std::vector<double>> net_lsk;
  std::shared_ptr<const std::vector<double>> net_noise;
  std::shared_ptr<const grid::CongestionMap> congestion;
  std::size_t violating = 0;
  std::size_t unfixable = 0;
  RefineStats stats;
  double seconds = 0.0;
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
  std::shared_ptr<const std::vector<RegionSolution>> solutions_ptr;
  std::shared_ptr<const std::vector<double>> net_lsk_ptr;
  std::shared_ptr<const std::vector<double>> net_noise_ptr;
  std::shared_ptr<const grid::CongestionMap> congestion;
  std::shared_ptr<const router::Occupancy> occupancy;

  const router::RoutingResult& routing() const { return *phase1->routing; }
  const std::vector<RegionSolution>& solutions() const { return *solutions_ptr; }
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

/// Mutable Phase III working state, owned by the session (or by whoever
/// asked the session for one). The historical free functions
/// resolve_region / refresh_noise / finalize_metrics over FlowResult are
/// methods here; LocalRefiner operates on a FlowState.
struct FlowState {
  const RoutingProblem* problem = nullptr;
  FlowKind kind = FlowKind::kGsino;
  double bound_v = 0.15;
  std::shared_ptr<const RoutingArtifact> phase1;
  std::shared_ptr<const BudgetArtifact> budget;

  std::vector<RegionSolution> solutions;  ///< index = region * 2 + dir
  std::vector<double> net_lsk;            ///< Eq. (1) per net
  std::vector<double> net_noise;          ///< table lookup of net_lsk (V)
  std::unique_ptr<grid::CongestionMap> congestion;
  std::size_t violating = 0;
  std::size_t unfixable = 0;

  /// Optional progress sink for per-region re-solve events.
  StageObserver observer;

  const router::Occupancy& occupancy() const { return *phase1->occupancy; }

  /// Re-solve one region under the instance's current Kth values (greedy,
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
  StageObserver observer;
  /// Optional persistent artifact store (store/artifact_store.h). When
  /// set, every stage (route, budget, solve_regions, refine) consults it on an
  /// in-memory cache miss before computing — a fresh process warm-starts
  /// from artifacts a previous session published — and publish freshly
  /// computed artifacts back. Loaded artifacts are bit-identical to computed ones (the
  /// store's load path re-derives views through derive_routing_artifact
  /// and verifies the embedded route hash), so downstream stages cannot
  /// tell the difference. Safe to share one store across concurrent
  /// sessions and processes.
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

  /// Phase I for a flow's router profile; cached per profile.
  std::shared_ptr<const RoutingArtifact> route(FlowKind kind);
  /// Phase I for an explicit profile (the `threads` field is ignored for
  /// cache identity — it never changes output). `kind` only labels the
  /// observer events this call emits.
  std::shared_ptr<const RoutingArtifact> route(
      const router::IdRouterOptions& options, FlowKind kind);

  /// Budgeting; cached per (rule, bound, margin, routing artifact). The
  /// margin is normalized to 1.0 for rules that never apply it, so a
  /// margin-only what-if on ID+NO/iSINO is a cache hit.
  std::shared_ptr<const BudgetArtifact> budget(
      FlowKind kind, const std::shared_ptr<const RoutingArtifact>& phase1,
      double bound_v, double margin);

  /// Phase II; cached per (kind, anneal, routing, budget).
  std::shared_ptr<const RegionSolveArtifact> solve_regions(
      FlowKind kind, const std::shared_ptr<const RoutingArtifact>& phase1,
      const std::shared_ptr<const BudgetArtifact>& budget, bool anneal_phase2);

  /// Phase III; cached per solve artifact — refinement is deterministic
  /// and no RefineOptions field changes output, so a repeat request is a
  /// cache hit.
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
  /// worst-violator, which has no regional patch). Every patched artifact
  /// is bit-identical to what a from-scratch session over the mutated
  /// problem computes — the contract tests/delta_differential_test.cpp
  /// pins — and is published to the persistent store under the mutated
  /// problem's own keys, so delta chains warm-start across processes.
  /// Implemented in src/scenario/delta.cpp.
  scenario::DeltaReport apply_delta(const scenario::NetlistDelta& delta);

 private:
  friend class scenario::DeltaEngine;
  void emit(Stage stage, FlowKind flow, double seconds, bool reused) const;
  /// route -> budget -> solve_regions under scenario overrides (the shared
  /// front of run() and state()).
  std::shared_ptr<const RegionSolveArtifact> solve_for(
      FlowKind kind, const Scenario& scenario);
  FlowResult assemble(FlowKind kind,
                      std::shared_ptr<const RegionSolveArtifact> solve,
                      std::shared_ptr<const RefineArtifact> refined) const;

  const RoutingProblem* problem_;
  /// Set by apply_delta(): the mutated problem the session now serves
  /// (problem_ points here afterwards). Null until the first delta — the
  /// constructor's problem stays caller-owned, as before.
  std::shared_ptr<const RoutingProblem> owned_problem_;
  /// Problems displaced by later deltas. Artifacts hold pointers into
  /// their problem's grid (occupancy, congestion dimensions), and a caller
  /// may still hold FlowResults assembled before a delta — retiring
  /// instead of dropping keeps those views valid for the session's
  /// lifetime. One entry per applied delta; problems are small next to
  /// their artifacts.
  std::vector<std::shared_ptr<const RoutingProblem>> retired_problems_;
  SessionOptions options_;
  StageCounters counters_;

  struct RouteEntry {
    router::IdRouterOptions options;
    std::shared_ptr<const RoutingArtifact> artifact;
  };
  struct BudgetEntry {
    BudgetRule rule;
    double bound_v, margin;
    /// Cache identity for the kRoutedLength rule (null otherwise). Held
    /// as a shared_ptr so the artifact stays alive while the entry keys
    /// on it — a raw pointer could be reused by a new artifact at the
    /// same address and produce a stale false hit.
    std::shared_ptr<const RoutingArtifact> phase1;
    std::shared_ptr<const BudgetArtifact> artifact;
  };
  struct SolveEntry {
    FlowKind kind;
    bool anneal;
    const RoutingArtifact* phase1;
    const BudgetArtifact* budget;
    std::shared_ptr<const RegionSolveArtifact> artifact;
  };
  struct RefineEntry {
    /// Kept alive by artifact->base, so pointer identity is stable.
    const RegionSolveArtifact* solve;
    std::shared_ptr<const RefineArtifact> artifact;
  };
  // Each cache is an LRU list in recency order (back = most recent): a hit
  // rotates the entry to the back, an insert beyond the entry budget
  // (SessionOptions::cache_entries) evicts the front. Entries hold their
  // artifacts via shared_ptr, so eviction never invalidates an artifact a
  // caller (or a downstream cache entry) still references — the raw-pointer
  // keys in SolveEntry/RefineEntry stay unambiguous because each entry's
  // artifact pins its own inputs alive (no address reuse while the entry
  // lives). Every evicted stage artifact stays reachable through the
  // persistent store when one is attached: each stage consults it on a
  // cache miss before computing.
  std::vector<RouteEntry> route_cache_;
  std::vector<BudgetEntry> budget_cache_;
  std::vector<SolveEntry> solve_cache_;
  std::vector<RefineEntry> refine_cache_;
};

}  // namespace rlcr::gsino
