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

namespace {

/// Length (um) of a critical path inside (region, dir), or 0 when the
/// region only hosts a branch; critical_path() sorts the refs by (region,
/// dir).
double path_length_um(const CriticalPath& path, std::size_t region,
                      grid::Dir dir) {
  const auto it = std::lower_bound(
      path.refs.begin(), path.refs.end(), std::pair{region, dir},
      [](const router::NetRegionRef& ref,
         const std::pair<std::size_t, grid::Dir>& key) {
        return ref.region != key.first ? ref.region < key.first
                                       : ref.dir < key.second;
      });
  return it != path.refs.end() && it->region == region && it->dir == dir
             ? it->length_um
             : 0.0;
}

/// Fill the region-set slice of solution index `si` from the occupancy's
/// segment list: member nets in segment order with their S_i, wire and
/// critical-path lengths, and the pairwise sensitivity matrix. A non-null
/// `carry` whose slice holds bitwise these members and lengths
/// (RegionSet::same_slice) lends its sensitivities instead; comparing the
/// stored mm values is exactly the condition for a bit-identical slice.
/// The one construction path of every RegionSet instance.
void build_region_solution(const RoutingProblem& problem,
                           const std::vector<router::Segment>& segs,
                           const std::vector<CriticalPath>& paths,
                           const RegionSet* carry, std::size_t si,
                           RegionSet& set) {
  const RegionSet::Slice out = set.slice(si);
  const std::size_t n = segs.size();
  for (std::size_t i = 0; i < n; ++i) {
    const router::Segment& s = segs[i];
    const auto net = static_cast<std::size_t>(s.net_index);
    out.net_index[i] = static_cast<std::uint32_t>(net);
    out.si[i] = problem.router_nets()[net].si;
    out.len_mm[i] = s.length_um / 1000.0;
    out.path_len_mm[i] =
        path_length_um(paths[net], sol_region(si), sol_dir(si)) / 1000.0;
  }
  if (carry && set.same_slice(si, *carry)) {
    set.copy_slice(si, *carry);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (problem.sensitivity().sensitive(
              static_cast<netlist::NetId>(out.net_index[i]),
              static_cast<netlist::NetId>(out.net_index[j]))) {
        out.sensitive[i * n + j] = 1;
        out.sensitive[j * n + i] = 1;
      }
    }
  }
}

/// The region set of a routing: each net's memberships in
/// Occupancy::net_refs order (which refine pass 1 walks), then every
/// instance filled through build_region_solution. The occupancy fills
/// each segment list in net order, the set's member order. Instances fill
/// disjoint slices, so the parallel fill is deterministic.
std::shared_ptr<const RegionSet> build_region_set(
    const RoutingProblem& p, const router::Occupancy& occ,
    const std::vector<CriticalPath>& paths, const RoutingArtifact* carry_from,
    int threads) {
  const std::size_t sol_count = p.grid().region_count() * 2;
  std::vector<std::uint32_t> net_offset(occ.net_count() + 1, 0);
  std::vector<std::uint32_t> net_instances;
  for (std::size_t n = 0; n < occ.net_count(); ++n) {
    for (const router::NetRegionRef& ref : occ.net_refs(n)) {
      net_instances.push_back(
          static_cast<std::uint32_t>(sol_index_of(ref.region, ref.dir)));
    }
    net_offset[n + 1] = static_cast<std::uint32_t>(net_instances.size());
  }
  auto set = std::make_shared<RegionSet>(sol_count, std::move(net_offset),
                                         net_instances);
  const RegionSet* carry = carry_from ? carry_from->regions.get() : nullptr;
  constexpr std::size_t kRegionGrain = 32;  // instances per chunk (fixed)
  parallel::parallel_for(
      sol_count, kRegionGrain, threads,
      [&](std::size_t b, std::size_t e, int) {
        for (std::size_t si = b; si < e; ++si) {
          build_region_solution(p, occ.segments(sol_region(si), sol_dir(si)),
                                paths, carry, si, *set);
        }
      });
  return set;
}

/// The stage counters and trace span of one cached stage.
struct StageTally {
  const char* span;
  std::size_t& requests;
  std::size_t& loaded;
  std::size_t& executed;
};

/// The one cache path of the four session stages, under the stage's store
/// `key`. In order: count the request; look the key up in memory, else
/// load it from the store; accept a hit of either kind only through the
/// stage's provenance check, so a record filed under the wrong key (store
/// files shuffled by hand, a key collision) is a miss rather than a
/// foreign artifact; on a miss, compute, count, insert and publish. The
/// cache is an LRU list (back = most recent): a hit rotates to the back,
/// an insert beyond `cache_entries` (0 = unbounded) evicts from the front.
/// The span covers the whole request: a hit is a short span, a compute the
/// stage.
template <typename Entry, typename Load, typename Accept, typename Compute,
          typename Publish>
decltype(Entry::artifact) cached_stage(const SessionOptions& opt,
                                       std::vector<Entry>& cache,
                                       StageTally tally, std::uint64_t key,
                                       const Load& load, const Accept& accept,
                                       const Compute& compute,
                                       const Publish& publish) {
  obs::ScopedSpan span(tally.span, "session", opt.trace);
  ++tally.requests;
  const auto hit =
      std::find_if(cache.begin(), cache.end(),
                   [&](const Entry& e) { return e.key == key; });
  if (hit != cache.end()) {
    if (accept(*hit->artifact)) {
      std::rotate(hit, hit + 1, cache.end());
      return cache.back().artifact;
    }
    cache.erase(hit);
  }

  decltype(Entry::artifact) art = opt.store ? load(*opt.store) : nullptr;
  const bool loaded = art != nullptr && accept(*art);
  if (loaded) {
    ++tally.loaded;
  } else {
    art = compute();
    ++tally.executed;
  }
  if (opt.cache_entries > 0 && cache.size() >= opt.cache_entries) {
    cache.erase(cache.begin(), cache.end() - static_cast<std::ptrdiff_t>(
                                                 opt.cache_entries - 1));
  }
  cache.push_back(Entry{key, art});
  if (!loaded && opt.store) publish(*opt.store, *art);
  return art;
}

/// The per-region annealing stream seed of Phase III re-solves.
std::uint64_t region_resolve_seed(const RoutingProblem& p,
                                  std::size_t sol_index) {
  return p.params().seed ^ (sol_index * 131071u);
}

/// The Phase III re-solve of one region as a sino batch item.
sino::SinoBatchItem region_resolve_item(const RoutingProblem& p,
                                        const sino::SinoInstance& instance,
                                        std::size_t sol_index,
                                        bool allow_anneal) {
  sino::SinoBatchItem item;
  item.instance = instance;
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
    std::shared_ptr<const RoutingArtifact> phase1) {
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
    art->phase1 = std::move(phase1);
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
    const std::vector<RegionSolution>& carried) {
  util::Stopwatch watch;
  const auto is_carried = [&carried](std::size_t si) {
    return si < carried.size() && !carried[si].empty();
  };

  // Every (region, dir) SINO instance is independent: each is a view over
  // the routing's region set under this budget's Kth, solved across the
  // pool by the batch driver (sino/batch.h, each region with its own
  // deterministic RNG stream), and the LSK/shield accumulation replays
  // serially in the historical (region, dir) order — so the phase's output
  // is bit-identical at any thread count, threads == 1 being the exact
  // serial path.
  const RegionSet& set = *phase1->regions;
  const std::size_t regions = p.grid().region_count();
  const std::size_t sol_count = set.size();
  const std::vector<double>& net_kth = *budget->kth;

  std::vector<double> kth(set.member_count());
  std::vector<sino::SinoBatchItem> items(sol_count);
  for (std::size_t si = 0; si < sol_count; ++si) {
    const std::span<const std::uint32_t> members = set.net_index(si);
    const std::size_t b = set.begin(si);
    for (std::size_t i = 0; i < members.size(); ++i) {
      kth[b + i] = net_kth[members[i]];
    }
    if (members.empty() || is_carried(si)) continue;
    sino::SinoBatchItem& item = items[si];
    item.instance = set.instance(si, kth.data() + b);
    if (kind == FlowKind::kIdNo) {
      item.mode = sino::SinoSolveMode::kNetOrder;
    } else if (anneal) {
      item.mode = sino::SinoSolveMode::kGreedyAnneal;
      // The historical per-region stream seed, preserved so annealed
      // Phase II results stay identical to the pre-batch flow.
      item.anneal_seed =
          p.params().seed ^ (static_cast<std::size_t>(members.front()) * 977u);
      item.anneal_iterations = p.params().anneal_iterations;
    } else {
      item.mode = sino::SinoSolveMode::kGreedy;
    }
  }
  std::vector<sino::SinoBatchResult> solved =
      sino::solve_batch(items, p.keff(), p.params().threads);

  std::vector<double> ki(set.member_count(), 0.0);
  std::vector<ktable::SlotVec> slots(sol_count);
  auto net_lsk = std::make_shared<std::vector<double>>(p.net_count(), 0.0);
  auto net_noise = std::make_shared<std::vector<double>>(p.net_count(), 0.0);
  for (std::size_t r = 0; r < regions; ++r) {
    for (grid::Dir d : grid::kBothDirs) {
      const std::size_t si = sol_index_of(r, d);
      const std::span<const std::uint32_t> members = set.net_index(si);
      if (members.empty()) continue;
      const std::size_t b = set.begin(si);
      if (is_carried(si)) {
        std::copy(carried[si].ki.begin(), carried[si].ki.end(), ki.begin() + b);
        slots[si].assign(carried[si].slots.begin(), carried[si].slots.end());
      } else {
        std::copy(solved[si].ki.begin(), solved[si].ki.end(), ki.begin() + b);
        slots[si] = std::move(solved[si].slots);
      }
      const std::span<const double> path_len = set.path_len_mm(si);
      for (std::size_t i = 0; i < members.size(); ++i) {
        (*net_lsk)[members[i]] += path_len[i] * ki[b + i];
      }
    }
  }

  auto art = std::make_shared<RegionSolveArtifact>();
  art->kind = kind;
  art->annealed = anneal;
  art->violating =
      noise_pass(p.lsk_table(), budget->bound_v, *net_lsk, *net_noise);
  art->solutions =
      RegionSolutions::pack(phase1->regions, nullptr, kth, ki, slots);
  art->congestion = std::make_shared<const grid::CongestionMap>(
      solution_congestion(p.grid(), *art->solutions));
  art->phase1 = std::move(phase1);
  art->budget = std::move(budget);
  art->net_lsk = std::move(net_lsk);
  art->net_noise = std::move(net_noise);
  art->seconds = watch.seconds();
  return art;
}

grid::CongestionMap solution_congestion(const grid::RegionGrid& grid,
                                        const RegionSolutions& solutions) {
  grid::CongestionMap cmap(grid);
  const RegionSet& set = *solutions.set();
  for (std::size_t si = 0; si < set.size(); ++si) {
    if (set.count(si) == 0) continue;
    cmap.set_segments(sol_region(si), sol_dir(si),
                      static_cast<double>(set.count(si)));
    cmap.set_shields(sol_region(si), sol_dir(si),
                     static_cast<double>(sino::SinoEvaluator::shield_count(
                         solutions.slots(si))));
  }
  return cmap;
}

namespace {

std::size_t owned_state_bytes(const RegionSolutions& solutions,
                              const std::vector<double>& net_lsk,
                              const std::vector<double>& net_noise,
                              const grid::CongestionMap& congestion) {
  return solutions.owned_bytes() +
         (net_lsk.capacity() + net_noise.capacity()) * sizeof(double) +
         congestion.owned_bytes();
}

}  // namespace

std::size_t RegionSolveArtifact::owned_bytes() const {
  return owned_state_bytes(*solutions, *net_lsk, *net_noise, *congestion);
}

std::size_t RefineArtifact::owned_bytes() const {
  return owned_state_bytes(*solutions, *net_lsk, *net_noise, *congestion);
}

// ---------------------------------------------------------------- FlowState

void FlowState::resolve_region(std::size_t sol_idx, bool allow_anneal) {
  const RegionSolution sol = solution(sol_idx);
  if (sol.empty()) return;
  const RoutingProblem& p = *problem;
  sino::SinoBatchResult solved = sino::solve_region(
      region_resolve_item(p, sol.instance, sol_idx, allow_anneal), p.keff());

  // Remove old LSK contributions (critical-path lengths; Eq. 1 is per
  // sink), swap in the new Ki, add the new contributions and refresh noise
  // for member nets.
  const std::size_t b = regions->begin(sol_idx);
  for (std::size_t i = 0; i < sol.net_index.size(); ++i) {
    net_lsk[sol.net_index[i]] -= sol.path_len_mm[i] * ki[b + i];
  }
  std::copy(solved.ki.begin(), solved.ki.end(), ki.begin() + b);
  slots[sol_idx] = std::move(solved.slots);
  for (std::size_t i = 0; i < sol.net_index.size(); ++i) {
    net_lsk[sol.net_index[i]] += sol.path_len_mm[i] * ki[b + i];
    net_noise[sol.net_index[i]] =
        p.lsk_table().voltage(net_lsk[sol.net_index[i]]);
  }

  // Refresh the region's shield count.
  congestion->set_shields(
      sol_region(sol_idx), sol_dir(sol_idx),
      static_cast<double>(sino::SinoEvaluator::shield_count(slots[sol_idx])));

  if (on_resolve) on_resolve(sol_idx);
}

double FlowState::solution_density(std::size_t sol_idx) const {
  return congestion->density(sol_region(sol_idx), sol_dir(sol_idx));
}

void FlowState::refresh_noise() {
  violating = noise_pass(problem->lsk_table(), bound_v, net_lsk, net_noise);
}

// -------------------------------------------------------------- FlowSession

FlowSession::FlowSession(const RoutingProblem& problem, SessionOptions options)
    : problem_(std::shared_ptr<const RoutingProblem>(), &problem),
      options_(std::move(options)) {}

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
  return route(router_profile(kind));
}

std::shared_ptr<RoutingArtifact> derive_routing_artifact(
    const RoutingProblem& p, const router::IdRouterOptions& options,
    std::uint64_t seed, std::shared_ptr<const router::RoutingResult> routing,
    const RoutingArtifact* carry_from) {
  auto art = std::make_shared<RoutingArtifact>();
  art->options = options;
  art->seed = seed;

  const router::Occupancy occupancy(p.grid(), routing->routes);
  // Critical source->sink paths (the per-sink scope of Eq. 1), at the
  // router profile's thread count.
  const std::vector<CriticalPath> paths = critical_paths(
      p.grid(), p.router_nets(), routing->routes, options.threads);
  auto lengths = std::make_shared<std::vector<double>>(p.net_count(), 0.0);
  for (std::size_t n = 0; n < paths.size(); ++n) {
    (*lengths)[n] = paths[n].length_um;
  }

  art->regions =
      build_region_set(p, occupancy, paths, carry_from, options.threads);
  art->routing = std::move(routing);
  art->critical_path_um = std::move(lengths);
  return art;
}

std::shared_ptr<const RoutingArtifact> compute_route(
    const RoutingProblem& p, const router::IdRouterOptions& options,
    const RoutingArtifact* carry_from) {
  util::Stopwatch watch;
  const router::IdRouter router(p.grid(), p.nss(), options);
  auto routing = std::make_shared<router::RoutingResult>(
      router.route(p.router_nets()));
  auto art = derive_routing_artifact(p, options, p.params().seed,
                                     std::move(routing), carry_from);
  art->seconds = watch.seconds();
  return art;
}

std::shared_ptr<const RoutingArtifact> FlowSession::route(
    const router::IdRouterOptions& options) {
  const RoutingProblem& p = *problem_;
  const std::uint64_t key = store::routing_key(p, options);
  return cached_stage(
      options_, route_cache_,
      {"session.route", counters_.route_requests, counters_.route_loaded,
       counters_.route_executed},
      key,
      [&](store::ArtifactStore& st) { return st.get_routing(key, p); },
      [&](const RoutingArtifact& a) {
        return a.options.same_routing_profile(options);
      },
      [&] { return compute_route(p, options); },
      [key](store::ArtifactStore& st, const RoutingArtifact& a) {
        st.put_routing(key, a);
      });
}

std::shared_ptr<const BudgetArtifact> FlowSession::budget(
    FlowKind kind, const std::shared_ptr<const RoutingArtifact>& phase1,
    double bound_v, double margin) {
  const RoutingProblem& p = *problem_;
  const BudgetRule rule = budget_rule(kind);
  // Only the margin rule applies the margin: normalize it out of the key
  // for the other rules, so a margin-only what-if on ID+NO/iSINO reuses
  // the (bit-identical) budget instead of re-running Phase II.
  if (rule != BudgetRule::kManhattanMargin) margin = 1.0;
  // Only the iSINO rule reads the routing; the Manhattan rules are
  // routing-independent and shared across profiles.
  const std::uint64_t key =
      store::budget_key(p, rule, bound_v, margin, phase1.get());
  return cached_stage(
      options_, budget_cache_,
      {"session.budget", counters_.budget_requests, counters_.budget_loaded,
       counters_.budget_executed},
      key,
      [&](store::ArtifactStore& st) { return st.get_budget(key, p, phase1); },
      [&](const BudgetArtifact& a) {
        return a.rule == rule && a.bound_v == bound_v && a.margin == margin;
      },
      [&] { return compute_budget(p, rule, bound_v, margin, phase1); },
      [key](store::ArtifactStore& st, const BudgetArtifact& a) {
        st.put_budget(key, a);
      });
}

std::shared_ptr<const RegionSolveArtifact> FlowSession::solve_regions(
    FlowKind kind, const std::shared_ptr<const RoutingArtifact>& phase1,
    const std::shared_ptr<const BudgetArtifact>& budget, bool anneal_phase2) {
  const RoutingProblem& p = *problem_;
  const bool anneal = anneal_phase2 && kind != FlowKind::kIdNo;
  const std::uint64_t key =
      store::solve_key(p, kind, anneal, *phase1, *budget);
  return cached_stage(
      options_, solve_cache_,
      {"session.solve_regions", counters_.solve_requests,
       counters_.solve_loaded, counters_.solve_executed},
      key,
      [&](store::ArtifactStore& st) {
        return st.get_region_solve(key, p, phase1, budget);
      },
      [&](const RegionSolveArtifact& a) {
        return a.kind == kind && a.annealed == anneal;
      },
      [&] { return solve_region_set(p, kind, anneal, phase1, budget); },
      [key](store::ArtifactStore& st, const RegionSolveArtifact& a) {
        st.put_region_solve(key, a);
      });
}

FlowState FlowSession::state(const RegionSolveArtifact& solve) const {
  FlowState st;
  st.problem = problem_;
  st.kind = solve.kind;
  st.bound_v = solve.budget->bound_v;
  st.phase1 = solve.phase1;
  st.budget = solve.budget;
  // Mutable copies of the artifact's per-bound state; the set is shared.
  const RegionSolutions& sols = *solve.solutions;
  st.regions = sols.set();
  st.kth.resize(st.regions->member_count());
  st.ki.resize(st.regions->member_count());
  st.slots.resize(sols.size());
  for (std::size_t si = 0; si < sols.size(); ++si) {
    const RegionSolution sol = sols[si];
    const std::size_t first = st.regions->begin(si);
    for (std::size_t i = 0; i < sol.net_index.size(); ++i) {
      st.kth[first + i] = sol.instance.kth(i);
    }
    std::copy(sol.ki.begin(), sol.ki.end(), st.ki.begin() + first);
    st.slots[si].assign(sol.slots.begin(), sol.slots.end());
  }
  st.net_lsk = *solve.net_lsk;
  st.net_noise = *solve.net_noise;
  st.congestion = std::make_unique<grid::CongestionMap>(*solve.congestion);
  st.violating = solve.violating;
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
  const RoutingProblem& p = *problem_;
  // No Phase III option changes output: the key is the solve's alone.
  const std::uint64_t key = store::refine_key(
      p, store::solve_key(p, solve->kind, solve->annealed, *solve->phase1,
                          *solve->budget));
  return cached_stage(
      options_, refine_cache_,
      {"session.refine", counters_.refine_requests, counters_.refine_loaded,
       counters_.refine_executed},
      key,
      [&](store::ArtifactStore& st) { return st.get_refine(key, p, solve); },
      [&](const RefineArtifact& a) {
        return a.base->kind == solve->kind &&
               a.base->annealed == solve->annealed;
      },
      [&] {
        util::Stopwatch watch;
        FlowState st = state(*solve);
        const RefineStats stats = LocalRefiner(p).refine(st, options);

        auto art = std::make_shared<RefineArtifact>();
        art->base = solve;
        // Only the instances refinement changed are the artifact's own.
        art->solutions = RegionSolutions::pack(st.regions, solve->solutions,
                                               st.kth, st.ki, st.slots);
        art->net_lsk =
            std::make_shared<const std::vector<double>>(std::move(st.net_lsk));
        art->net_noise = std::make_shared<const std::vector<double>>(
            std::move(st.net_noise));
        art->congestion = std::shared_ptr<const grid::CongestionMap>(
            std::move(st.congestion));
        art->violating = st.violating;
        art->unfixable = st.unfixable;
        art->stats = stats;
        art->seconds = watch.seconds();
        return art;
      },
      [key](store::ArtifactStore& st, const RefineArtifact& a) {
        st.put_refine(key, a);
      });
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
