#include "core/session.h"

#include <algorithm>
#include <cmath>

#include "core/paths.h"
#include "core/refine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "store/artifact_store.h"
#include "sino/batch.h"
#include "util/hash.h"
#include "util/stopwatch.h"

namespace rlcr::gsino {

const char* flow_name(FlowKind kind) {
  switch (kind) {
    case FlowKind::kIdNo:
      return "ID+NO";
    case FlowKind::kIsino:
      return "iSINO";
    case FlowKind::kGsino:
      return "GSINO";
  }
  return "?";
}

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kRoute:
      return "route";
    case Stage::kBudget:
      return "budget";
    case Stage::kSolveRegions:
      return "solve_regions";
    case Stage::kRefine:
      return "refine";
  }
  return "?";
}

BudgetRule budget_rule(FlowKind kind) {
  switch (kind) {
    case FlowKind::kIdNo:
      return BudgetRule::kManhattan;
    case FlowKind::kIsino:
      return BudgetRule::kRoutedLength;
    case FlowKind::kGsino:
      return BudgetRule::kManhattanMargin;
  }
  return BudgetRule::kManhattan;
}

RegionSolution build_region_solution(const RoutingProblem& problem,
                                     const router::Occupancy& occ,
                                     std::size_t region, grid::Dir dir,
                                     const std::vector<double>& kth,
                                     const PathIndex& paths) {
  RegionSolution sol;
  const auto& segs = occ.segments(region, dir);
  if (segs.empty()) return sol;

  std::vector<sino::SinoNet> nets;
  nets.reserve(segs.size());
  sol.net_index.reserve(segs.size());
  sol.len_mm.reserve(segs.size());
  sol.path_len_mm.reserve(segs.size());
  for (const router::Segment& s : segs) {
    const auto n = static_cast<std::size_t>(s.net_index);
    sino::SinoNet sn;
    sn.net_id = s.net_index;
    sn.si = problem.router_nets()[n].si;
    sn.kth = kth[n];
    nets.push_back(sn);
    sol.net_index.push_back(n);
    sol.len_mm.push_back(s.length_um / 1000.0);
    sol.path_len_mm.push_back(paths.length_um(n, region, dir) / 1000.0);
  }
  sol.instance = sino::SinoInstance(std::move(nets));
  for (std::size_t i = 0; i < sol.net_index.size(); ++i) {
    for (std::size_t j = i + 1; j < sol.net_index.size(); ++j) {
      if (problem.sensitivity().sensitive(
              static_cast<netlist::NetId>(sol.net_index[i]),
              static_cast<netlist::NetId>(sol.net_index[j]))) {
        sol.instance.set_sensitive(i, j);
      }
    }
  }
  return sol;
}

namespace {

// LRU bookkeeping over the per-stage cache vectors: recency order with the
// back most recent. A hit rotates its entry to the back; an insert beyond
// the entry budget evicts from the front (budget 0 = unbounded).

template <typename Entry>
void lru_touch(std::vector<Entry>& cache, std::size_t i) {
  std::rotate(cache.begin() + static_cast<std::ptrdiff_t>(i),
              cache.begin() + static_cast<std::ptrdiff_t>(i) + 1, cache.end());
}

template <typename Entry>
void lru_insert(std::vector<Entry>& cache, Entry entry, std::size_t budget) {
  if (budget > 0 && cache.size() >= budget) {
    cache.erase(cache.begin(),
                cache.begin() + static_cast<std::ptrdiff_t>(
                                    cache.size() - budget + 1));
  }
  cache.push_back(std::move(entry));
}

/// The per-region annealing stream seed of Phase III re-solves.
std::uint64_t region_resolve_seed(const RoutingProblem& p,
                                  std::size_t sol_index) {
  return p.params().seed ^ (sol_index * 131071u);
}

/// The Phase III re-solve of one region as a sino batch item.
sino::SinoBatchItem region_resolve_item(const RoutingProblem& p,
                                        const RegionSolution& sol,
                                        std::size_t sol_index,
                                        bool allow_anneal) {
  sino::SinoBatchItem item;
  item.instance = &sol.instance;
  item.mode = allow_anneal ? sino::SinoSolveMode::kGreedyAnneal
                           : sino::SinoSolveMode::kGreedy;
  item.anneal_seed = region_resolve_seed(p, sol_index);
  item.anneal_iterations = p.params().anneal_iterations;
  return item;
}

/// Noise from LSK for every net; returns how many exceed `bound_v`.
std::size_t noise_pass(const ktable::LskTable& table, double bound_v,
                       const std::vector<double>& net_lsk,
                       std::vector<double>& net_noise) {
  std::size_t violating = 0;
  for (std::size_t n = 0; n < net_lsk.size(); ++n) {
    net_noise[n] = table.voltage(net_lsk[n]);
    if (net_noise[n] > bound_v + 1e-9) ++violating;
  }
  return violating;
}

}  // namespace

std::shared_ptr<const BudgetArtifact> compute_budget(
    const RoutingProblem& p, BudgetRule rule, double bound_v, double margin,
    const RoutingArtifact* phase1) {
  util::Stopwatch watch;
  auto art = std::make_shared<BudgetArtifact>();
  art->rule = rule;
  art->bound_v = bound_v;
  art->margin = margin;

  const CrosstalkBudgeter budgeter(p.lsk_table(), bound_v);
  auto kth = std::make_shared<std::vector<double>>();
  if (rule == BudgetRule::kRoutedLength) {
    // iSINO runs SINO after routing, so its bounds use the actual routed
    // critical-path lengths (this is what lets it meet every bound without
    // refinement — at the cost of the unplanned shield area Table 3 shows).
    kth->resize(p.net_count());
    for (std::size_t n = 0; n < p.net_count(); ++n) {
      const double routed_um =
          std::max((*phase1->critical_path_um)[n], p.le_um()[n]);
      (*kth)[n] = budgeter.kth_from_length(routed_um);
    }
  } else {
    // ID+NO (reporting only) and GSINO (Phase I rule): Manhattan estimate,
    // tightened by the budgeting safety margin for GSINO.
    *kth = budgeter.uniform_kth(p);
    if (rule == BudgetRule::kManhattanMargin) {
      for (double& k : *kth) k *= margin;
    }
  }
  art->kth = std::move(kth);
  art->seconds = watch.seconds();
  return art;
}

std::shared_ptr<const RegionSolveArtifact> solve_region_set(
    const RoutingProblem& p, FlowKind kind, bool anneal,
    std::shared_ptr<const RoutingArtifact> phase1,
    std::shared_ptr<const BudgetArtifact> budget,
    const std::vector<const RegionSolution*>& carried) {
  util::Stopwatch watch;
  const auto is_carried = [&carried](std::size_t si) {
    return si < carried.size() && carried[si] != nullptr;
  };

  // Every (region, dir) SINO instance is independent: the instances are
  // built with a parallel map, solved across the pool by the batch driver
  // (sino/batch.h, each region with its own deterministic RNG stream), and
  // the LSK/shield accumulation replays serially in the historical
  // (region, dir) order — so the phase's output is bit-identical at any
  // thread count, threads == 1 being the exact serial path.
  const std::size_t regions = p.grid().region_count();
  const std::size_t sol_count = regions * 2;
  const std::vector<double>& kth = *budget->kth;
  const PathIndex& paths = *phase1->paths;

  constexpr std::size_t kRegionGrain = 32;  // instances per chunk (fixed)
  auto solutions = std::make_shared<std::vector<RegionSolution>>(
      parallel::parallel_map<RegionSolution>(
          sol_count, kRegionGrain, p.params().threads,
          [&](std::size_t si) -> RegionSolution {
            if (is_carried(si)) return *carried[si];
            return build_region_solution(p, *phase1->occupancy, sol_region(si),
                                         sol_dir(si), kth, paths);
          }));

  std::vector<sino::SinoBatchItem> items(sol_count);
  for (std::size_t si = 0; si < sol_count; ++si) {
    const RegionSolution& sol = (*solutions)[si];
    if (sol.empty() || is_carried(si)) continue;
    sino::SinoBatchItem& item = items[si];
    item.instance = &sol.instance;
    if (kind == FlowKind::kIdNo) {
      item.mode = sino::SinoSolveMode::kNetOrder;
    } else if (anneal) {
      item.mode = sino::SinoSolveMode::kGreedyAnneal;
      // The historical per-region stream seed, preserved so annealed
      // Phase II results stay identical to the pre-batch flow.
      item.anneal_seed = p.params().seed ^ (sol.net_index.front() * 977u);
      item.anneal_iterations = p.params().anneal_iterations;
    } else {
      item.mode = sino::SinoSolveMode::kGreedy;
    }
  }
  std::vector<sino::SinoBatchResult> solved =
      sino::solve_batch(items, p.keff(), p.params().threads);

  auto net_lsk = std::make_shared<std::vector<double>>(p.net_count(), 0.0);
  auto net_noise = std::make_shared<std::vector<double>>(p.net_count(), 0.0);
  auto congestion = std::make_shared<grid::CongestionMap>(*phase1->segments);
  for (std::size_t r = 0; r < regions; ++r) {
    for (grid::Dir d : grid::kBothDirs) {
      const std::size_t si = sol_index_of(r, d);
      RegionSolution& sol = (*solutions)[si];
      if (sol.empty()) continue;
      if (!is_carried(si)) {
        sol.slots = std::move(solved[si].slots);
        sol.ki = std::move(solved[si].ki);
      }
      for (std::size_t i = 0; i < sol.net_index.size(); ++i) {
        (*net_lsk)[sol.net_index[i]] += sol.path_len_mm[i] * sol.ki[i];
      }
      congestion->set_shields(
          r, d,
          static_cast<double>(sino::SinoEvaluator::shield_count(sol.slots)));
    }
  }

  auto art = std::make_shared<RegionSolveArtifact>();
  art->kind = kind;
  art->annealed = anneal;
  art->violating =
      noise_pass(p.lsk_table(), budget->bound_v, *net_lsk, *net_noise);
  art->phase1 = std::move(phase1);
  art->budget = std::move(budget);
  art->solutions = std::move(solutions);
  art->net_lsk = std::move(net_lsk);
  art->net_noise = std::move(net_noise);
  art->congestion = std::move(congestion);
  art->seconds = watch.seconds();
  return art;
}

// ---------------------------------------------------------------- FlowState

void FlowState::resolve_region(std::size_t sol_idx, bool allow_anneal) {
  RegionSolution& sol = solutions[sol_idx];
  if (sol.empty()) return;
  const RoutingProblem& p = *problem;
  util::Stopwatch watch;
  sino::SinoBatchResult solved = sino::solve_region(
      region_resolve_item(p, sol, sol_idx, allow_anneal), p.keff());

  // Remove old LSK contributions (critical-path lengths; Eq. 1 is per sink).
  for (std::size_t i = 0; i < sol.net_index.size(); ++i) {
    if (i < sol.ki.size()) {
      net_lsk[sol.net_index[i]] -= sol.path_len_mm[i] * sol.ki[i];
    }
  }

  sol.slots = std::move(solved.slots);
  sol.ki = std::move(solved.ki);

  // Add new contributions and refresh noise for member nets.
  for (std::size_t i = 0; i < sol.net_index.size(); ++i) {
    net_lsk[sol.net_index[i]] += sol.path_len_mm[i] * sol.ki[i];
    net_noise[sol.net_index[i]] =
        p.lsk_table().voltage(net_lsk[sol.net_index[i]]);
  }

  // Refresh the region's shield count.
  congestion->set_shields(
      sol_region(sol_idx), sol_dir(sol_idx),
      static_cast<double>(sino::SinoEvaluator::shield_count(sol.slots)));

  if (observer) {
    observer(StageEvent{Stage::kRefine, kind, sol_idx, watch.seconds(), false});
  }
}

double FlowState::solution_density(std::size_t sol_idx) const {
  return congestion->density(sol_region(sol_idx), sol_dir(sol_idx));
}

void FlowState::refresh_noise() {
  violating = noise_pass(problem->lsk_table(), bound_v, net_lsk, net_noise);
}

// -------------------------------------------------------------- FlowSession

FlowSession::FlowSession(const RoutingProblem& problem, SessionOptions options)
    : problem_(&problem), options_(std::move(options)) {}

void FlowSession::emit(Stage stage, FlowKind flow, double seconds,
                       bool reused) const {
  if (options_.observer) {
    options_.observer(StageEvent{stage, flow, kNoRegion, seconds, reused});
  }
}

router::IdRouterOptions FlowSession::router_profile(FlowKind kind) const {
  router::IdRouterOptions ropt = problem_->params().router;
  // The paper's fairness rule: only GSINO reserves shield area in Eq. (2).
  ropt.reserve_shields = (kind == FlowKind::kGsino);
  if (kind == FlowKind::kGsino) {
    // GSINO trades a little wire length for crosstalk headroom (Table 2's
    // overhead): give its shield-aware weights room to detour around
    // shield-laden regions.
    ropt.max_detour_factor = std::max(ropt.max_detour_factor, 1.5);
  }
  return ropt;
}

std::shared_ptr<const RoutingArtifact> FlowSession::route(FlowKind kind) {
  return route(router_profile(kind), kind);
}

std::shared_ptr<RoutingArtifact> derive_routing_artifact(
    const RoutingProblem& p, const router::IdRouterOptions& options,
    std::uint64_t seed, std::shared_ptr<const router::RoutingResult> routing) {
  auto art = std::make_shared<RoutingArtifact>();
  art->options = options;
  art->seed = seed;

  auto occupancy =
      std::make_shared<router::Occupancy>(p.grid(), routing->routes);
  auto segments = std::make_shared<grid::CongestionMap>(p.grid());
  occupancy->fill_segments(*segments);

  // Critical source->sink paths (the per-sink scope of Eq. 1), at the
  // router profile's thread count.
  std::vector<CriticalPath> paths = critical_paths(
      p.grid(), p.router_nets(), routing->routes, options.threads);
  auto lengths = std::make_shared<std::vector<double>>(p.net_count(), 0.0);
  for (std::size_t n = 0; n < paths.size(); ++n) {
    (*lengths)[n] = paths[n].length_um;
  }
  auto index = std::make_shared<PathIndex>(std::move(paths));

  art->routing = std::move(routing);
  art->occupancy = std::move(occupancy);
  art->segments = std::move(segments);
  art->critical_path_um = std::move(lengths);
  art->paths = std::move(index);
  return art;
}

std::shared_ptr<const RoutingArtifact> compute_route(
    const RoutingProblem& p, const router::IdRouterOptions& options) {
  util::Stopwatch watch;
  const router::IdRouter router(p.grid(), p.nss(), options);
  auto routing = std::make_shared<router::RoutingResult>(
      router.route(p.router_nets()));
  auto art =
      derive_routing_artifact(p, options, p.params().seed, std::move(routing));
  art->seconds = watch.seconds();
  return art;
}

std::shared_ptr<const RoutingArtifact> FlowSession::route(
    const router::IdRouterOptions& options, FlowKind kind) {
  // Stage spans cover the whole request — a cache/store hit shows up as a
  // short span, a compute as the full stage — gated per session by
  // SessionOptions::trace on top of the global trace switch.
  obs::ScopedSpan span("session.route", "session", options_.trace);
  ++counters_.route_requests;
  for (std::size_t i = 0; i < route_cache_.size(); ++i) {
    if (route_cache_[i].options.same_routing_profile(options)) {
      lru_touch(route_cache_, i);
      const auto art = route_cache_.back().artifact;
      emit(Stage::kRoute, kind, art->seconds, /*reused=*/true);
      return art;
    }
  }

  const RoutingProblem& p = *problem_;

  // Consult the persistent store before computing: a hit is a warm start
  // from another session (possibly another process) that published the
  // same profile. Loaded artifacts are bit-identical to computed ones, so
  // they enter the in-memory cache like any other.
  const std::uint64_t store_key =
      options_.store ? store::routing_key(p, options) : 0;
  if (options_.store) {
    if (auto art = options_.store->get_routing(store_key, p)) {
      // Defense in depth beyond the checksum + route-hash oracle: the
      // record carries its own identity, so a record filed under the
      // wrong key (an operator shuffling store files; a key collision)
      // is treated as a miss rather than driving the flow with a foreign
      // profile's routes.
      if (art->options.same_routing_profile(options)) {
        ++counters_.route_loaded;
        lru_insert(route_cache_, RouteEntry{options, art},
                   options_.cache_entries);
        emit(Stage::kRoute, kind, art->seconds, /*reused=*/true);
        return art;
      }
    }
  }

  auto art = compute_route(p, options);
  ++counters_.route_executed;
  lru_insert(route_cache_, RouteEntry{options, art}, options_.cache_entries);
  if (options_.store) options_.store->put_routing(store_key, *art);
  emit(Stage::kRoute, kind, art->seconds, /*reused=*/false);
  return art;
}

std::shared_ptr<const BudgetArtifact> FlowSession::budget(
    FlowKind kind, const std::shared_ptr<const RoutingArtifact>& phase1,
    double bound_v, double margin) {
  obs::ScopedSpan span("session.budget", "session", options_.trace);
  ++counters_.budget_requests;
  const BudgetRule rule = budget_rule(kind);
  // Only the margin rule applies the margin: normalize it out of the cache
  // identity for the other rules, so a margin-only what-if on ID+NO/iSINO
  // reuses the (bit-identical) budget instead of re-running Phase II.
  if (rule != BudgetRule::kManhattanMargin) margin = 1.0;
  // Only the iSINO rule reads the routing; the Manhattan rules are
  // routing-independent and shared across profiles.
  const std::shared_ptr<const RoutingArtifact> route_id =
      rule == BudgetRule::kRoutedLength ? phase1 : nullptr;
  for (std::size_t i = 0; i < budget_cache_.size(); ++i) {
    const BudgetEntry& e = budget_cache_[i];
    if (e.rule == rule && e.bound_v == bound_v && e.margin == margin &&
        e.phase1 == route_id) {
      lru_touch(budget_cache_, i);
      const auto art = budget_cache_.back().artifact;
      emit(Stage::kBudget, kind, art->seconds, /*reused=*/true);
      return art;
    }
  }

  const RoutingProblem& p = *problem_;

  // Store consult (see route()). The routed-length rule keys on the
  // routing artifact it budgets from, mirroring the in-memory cache.
  const std::uint64_t store_key =
      options_.store ? store::budget_key(p, rule, bound_v, margin, phase1.get())
                     : 0;
  if (options_.store) {
    if (auto art = options_.store->get_budget(store_key, p)) {
      // Same identity cross-check as route(): a mislabeled record must
      // not install foreign Kth bounds under this (rule, bound, margin).
      if (art->rule == rule && art->bound_v == bound_v &&
          art->margin == margin) {
        ++counters_.budget_loaded;
        lru_insert(budget_cache_,
                   BudgetEntry{rule, bound_v, margin, route_id, art},
                   options_.cache_entries);
        emit(Stage::kBudget, kind, art->seconds, /*reused=*/true);
        return art;
      }
    }
  }

  auto art = compute_budget(p, rule, bound_v, margin, phase1.get());
  ++counters_.budget_executed;
  lru_insert(budget_cache_, BudgetEntry{rule, bound_v, margin, route_id, art},
             options_.cache_entries);
  if (options_.store) options_.store->put_budget(store_key, *art);
  emit(Stage::kBudget, kind, art->seconds, /*reused=*/false);
  return art;
}

std::shared_ptr<const RegionSolveArtifact> FlowSession::solve_regions(
    FlowKind kind, const std::shared_ptr<const RoutingArtifact>& phase1,
    const std::shared_ptr<const BudgetArtifact>& budget, bool anneal_phase2) {
  obs::ScopedSpan span("session.solve_regions", "session", options_.trace);
  ++counters_.solve_requests;
  const bool anneal = anneal_phase2 && kind != FlowKind::kIdNo;
  for (std::size_t i = 0; i < solve_cache_.size(); ++i) {
    const SolveEntry& e = solve_cache_[i];
    if (e.kind == kind && e.anneal == anneal && e.phase1 == phase1.get() &&
        e.budget == budget.get()) {
      lru_touch(solve_cache_, i);
      const auto art = solve_cache_.back().artifact;
      emit(Stage::kSolveRegions, kind, art->seconds, /*reused=*/true);
      return art;
    }
  }

  const RoutingProblem& p = *problem_;

  // Store consult (see route()). The solve keys on the routing + budget
  // records it was derived from, mirroring the in-memory cache's pointer
  // identity with the store's content identity.
  const std::uint64_t store_key =
      options_.store ? store::solve_key(p, kind, anneal, *phase1, *budget) : 0;
  if (options_.store) {
    if (auto art = options_.store->get_region_solve(store_key, p, phase1,
                                                    budget)) {
      // Same identity cross-check as route(): a mislabeled record must not
      // install another flow's region solutions under this (kind, anneal).
      if (art->kind == kind && art->annealed == anneal) {
        ++counters_.solve_loaded;
        lru_insert(solve_cache_,
                   SolveEntry{kind, anneal, phase1.get(), budget.get(), art},
                   options_.cache_entries);
        emit(Stage::kSolveRegions, kind, art->seconds, /*reused=*/true);
        return art;
      }
    }
  }

  auto art = solve_region_set(p, kind, anneal, phase1, budget);
  ++counters_.solve_executed;
  lru_insert(solve_cache_, SolveEntry{kind, anneal, phase1.get(), budget.get(), art},
             options_.cache_entries);
  if (options_.store) options_.store->put_region_solve(store_key, *art);
  emit(Stage::kSolveRegions, kind, art->seconds, /*reused=*/false);
  return art;
}

FlowState FlowSession::state(const RegionSolveArtifact& solve) const {
  FlowState st;
  st.problem = problem_;
  st.kind = solve.kind;
  st.bound_v = solve.budget->bound_v;
  st.phase1 = solve.phase1;
  st.budget = solve.budget;
  st.solutions = *solve.solutions;  // mutable copies of the artifact state
  st.net_lsk = *solve.net_lsk;
  st.net_noise = *solve.net_noise;
  st.congestion = std::make_unique<grid::CongestionMap>(*solve.congestion);
  st.violating = solve.violating;
  st.observer = options_.observer;
  return st;
}

std::shared_ptr<const RegionSolveArtifact> FlowSession::solve_for(
    FlowKind kind, const Scenario& scenario) {
  const GsinoParams& params = problem_->params();
  auto r = route(kind);
  auto b = budget(kind, r,
                  scenario.bound_v.value_or(params.crosstalk_bound_v),
                  scenario.budget_margin.value_or(params.budget_margin));
  return solve_regions(kind, r, b,
                       scenario.anneal_phase2.value_or(params.anneal_phase2));
}

FlowState FlowSession::state(FlowKind kind, const Scenario& scenario) {
  return state(*solve_for(kind, scenario));
}

std::shared_ptr<const RefineArtifact> FlowSession::refine(
    const std::shared_ptr<const RegionSolveArtifact>& solve,
    const RefineOptions& options) {
  obs::ScopedSpan span("session.refine", "session", options_.trace);
  ++counters_.refine_requests;
  for (std::size_t i = 0; i < refine_cache_.size(); ++i) {
    const RefineEntry& e = refine_cache_[i];
    if (e.solve == solve.get()) {
      lru_touch(refine_cache_, i);
      const auto art = refine_cache_.back().artifact;
      emit(Stage::kRefine, solve->kind, art->seconds, /*reused=*/true);
      return art;
    }
  }

  const RoutingProblem& p = *problem_;

  // Store consult (see route()). The refine record keys on the solve
  // record it refines (no Phase III option changes output), with the
  // solve key rebuilt from the artifact's own provenance fields.
  const std::uint64_t store_key =
      options_.store
          ? store::refine_key(p, store::solve_key(p, solve->kind,
                                                  solve->annealed,
                                                  *solve->phase1,
                                                  *solve->budget))
          : 0;
  if (options_.store) {
    if (auto art = options_.store->get_refine(store_key, p, solve)) {
      ++counters_.refine_loaded;
      lru_insert(refine_cache_, RefineEntry{solve.get(), art},
                 options_.cache_entries);
      emit(Stage::kRefine, solve->kind, art->seconds, /*reused=*/true);
      return art;
    }
  }

  util::Stopwatch watch;
  FlowState st = state(*solve);
  const LocalRefiner refiner(*problem_);
  const RefineStats stats = refiner.refine(st, options);

  auto art = std::make_shared<RefineArtifact>();
  art->base = solve;
  art->solutions = std::make_shared<const std::vector<RegionSolution>>(
      std::move(st.solutions));
  art->net_lsk =
      std::make_shared<const std::vector<double>>(std::move(st.net_lsk));
  art->net_noise =
      std::make_shared<const std::vector<double>>(std::move(st.net_noise));
  art->congestion = std::shared_ptr<const grid::CongestionMap>(
      std::move(st.congestion));
  art->violating = st.violating;
  art->unfixable = st.unfixable;
  art->stats = stats;
  art->seconds = watch.seconds();

  ++counters_.refine_executed;
  lru_insert(refine_cache_, RefineEntry{solve.get(), art},
             options_.cache_entries);
  if (options_.store) options_.store->put_refine(store_key, *art);
  emit(Stage::kRefine, solve->kind, art->seconds, /*reused=*/false);
  return art;
}

obs::MetricsSnapshot FlowSession::metrics() const {
  obs::MetricsSnapshot snap;
  obs::append_metrics(snap, counters_);
  // Per-stage stats come from the most recently touched artifacts (the
  // LRU caches keep recency order, back = most recent), so the registry
  // reads as "what this session last did".
  if (!route_cache_.empty() && route_cache_.back().artifact->routing) {
    obs::append_metrics(snap, route_cache_.back().artifact->routing->stats);
  }
  if (!refine_cache_.empty()) {
    obs::append_metrics(snap, refine_cache_.back().artifact->stats);
  }
  if (options_.store) obs::append_metrics(snap, options_.store->stats());
  return snap;
}

FlowResult FlowSession::assemble(
    FlowKind kind, std::shared_ptr<const RegionSolveArtifact> solve,
    std::shared_ptr<const RefineArtifact> refined) const {
  FlowResult fr;
  fr.kind = kind;
  fr.name = flow_name(kind);
  fr.bound_v = solve->budget->bound_v;
  fr.phase1 = solve->phase1;
  fr.budget = solve->budget;
  fr.phase2 = solve;
  fr.phase3 = refined;
  fr.occupancy = solve->phase1->occupancy;
  if (refined) {
    fr.solutions_ptr = refined->solutions;
    fr.net_lsk_ptr = refined->net_lsk;
    fr.net_noise_ptr = refined->net_noise;
    fr.congestion = refined->congestion;
    fr.violating = refined->violating;
    fr.unfixable = refined->unfixable;
  } else {
    fr.solutions_ptr = solve->solutions;
    fr.net_lsk_ptr = solve->net_lsk;
    fr.net_noise_ptr = solve->net_noise;
    fr.congestion = solve->congestion;
    fr.violating = solve->violating;
    fr.unfixable = 0;
  }

  const RoutingProblem& p = *problem_;
  fr.total_wirelength_um = fr.phase1->routing->total_wirelength_um;
  const std::size_t nets = p.net_count();
  fr.avg_wirelength_um =
      nets == 0 ? 0.0 : fr.total_wirelength_um / static_cast<double>(nets);
  fr.area = grid::compute_routing_area(*fr.congestion);
  fr.total_shields = fr.congestion->total_shields();
  fr.timing.route_s = fr.phase1->seconds;
  fr.timing.sino_s = solve->seconds;
  fr.timing.refine_s = refined ? refined->seconds : 0.0;
  return fr;
}

FlowResult FlowSession::run(FlowKind kind, const Scenario& scenario) {
  auto sv = solve_for(kind, scenario);
  std::shared_ptr<const RefineArtifact> refined;
  if (kind == FlowKind::kGsino) {
    refined = refine(sv, scenario.refine);
  }
  return assemble(kind, std::move(sv), std::move(refined));
}

std::uint64_t state_fingerprint(const FlowResult& fr) {
  util::Fnv1a64 h;
  for (const double v : fr.net_lsk()) h.f64(v);
  for (const double v : fr.net_noise()) h.f64(v);
  h.f64(fr.total_shields);
  h.u64(fr.violating);
  h.u64(fr.unfixable);
  return h.value();
}

}  // namespace rlcr::gsino
