// Incremental netlist-delta engine (see delta.h for the contract). The
// FlowSession::apply_delta member is defined here — the session header
// only forward-declares the scenario types — which keeps the delta
// machinery out of core/ while the DeltaEngine friend retains access to
// the session's caches.
//
// Why each patched artifact is bit-identical to a from-scratch run:
//
//   routing — every cached router profile routes the whole mutated
//   problem through the stage's own compute_route, so the artifact is the
//   one a fresh route() computes.
//
//   budget — per-net Kth is a pure per-net function (O(nets) table
//   lookups); it recomputes through the stage's own compute_budget.
//
//   solve — a (region, dir) SINO solution is a pure function of the
//   region's segment list, its members' Kth / critical-path lengths / S_i,
//   and the pairwise sensitivity draws, all of which slot preservation
//   keeps index-stable. Regions whose inputs are bitwise unchanged carry
//   their old solution over verbatim; the rest go through the stage's own
//   solve_region_set, which builds and solves them exactly as a full
//   solve does and replays the LSK/shield/noise accumulation over every
//   region in (region, dir) order, so the floating-point sums match a
//   from-scratch solve exactly.
//
//   refine — Phase III orders its work by global worst-violator, which a
//   regional patch cannot reproduce; refine artifacts are invalidated and
//   recompute from the (bit-identical) patched solve.
#include "scenario/delta.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/session.h"
#include "router/occupancy.h"
#include "store/artifact_store.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace rlcr::scenario {

namespace {

/// Both arms reject a kRemove / kRepin slot outside the pre-delta net
/// range before mutating anything. Unchecked, the netlist arm would index
/// past its nets and the problem arm would quietly append (with_pin_updates
/// treats any slot at or beyond the count as kAppend).
void check_slots(const NetlistDelta& delta, std::size_t count) {
  for (const NetChange& c : delta.changes) {
    if (c.kind != NetChange::Kind::kAdd && c.net >= count) {
      throw std::out_of_range("netlist delta: slot " + std::to_string(c.net) +
                              " is outside the " + std::to_string(count) +
                              " nets");
    }
  }
}

std::vector<gsino::PinUpdate> to_updates(const NetlistDelta& delta) {
  std::vector<gsino::PinUpdate> ups;
  ups.reserve(delta.changes.size());
  for (const NetChange& c : delta.changes) {
    gsino::PinUpdate u;
    u.net =
        c.kind == NetChange::Kind::kAdd ? gsino::PinUpdate::kAppend : c.net;
    if (c.kind != NetChange::Kind::kRemove) u.pins = c.pins;
    ups.push_back(std::move(u));
  }
  return ups;
}

}  // namespace

void apply_delta(netlist::Netlist& design, const NetlistDelta& delta) {
  check_slots(delta, design.net_count());
  for (const NetChange& c : delta.changes) {
    switch (c.kind) {
      case NetChange::Kind::kAdd: {
        netlist::Net net;
        net.name = c.name;
        for (const geom::PointF& p : c.pins) {
          net.pins.push_back(netlist::Pin{p, netlist::kNoCell});
        }
        design.add_net(std::move(net));
        break;
      }
      case NetChange::Kind::kRemove:
        design.net(static_cast<netlist::NetId>(c.net)).pins.clear();
        break;
      case NetChange::Kind::kRepin: {
        netlist::Net& net = design.net(static_cast<netlist::NetId>(c.net));
        net.pins.clear();
        for (const geom::PointF& p : c.pins) {
          net.pins.push_back(netlist::Pin{p, netlist::kNoCell});
        }
        break;
      }
    }
  }
}

gsino::RoutingProblem apply_delta(const gsino::RoutingProblem& problem,
                                  const NetlistDelta& delta) {
  check_slots(delta, problem.net_count());
  return problem.with_pin_updates(to_updates(delta));
}

NetlistDelta random_delta(const gsino::RoutingProblem& problem,
                          std::uint64_t seed, std::size_t changes) {
  NetlistDelta delta;
  util::Xoshiro256 rng(util::SplitMix64::mix2(seed, 0xD317A));
  const grid::RegionGrid& g = problem.grid();
  const double w = g.chip_w_um(), h = g.chip_h_um();
  const std::size_t count = problem.net_count();

  // Clustered, ECO-like pin sets: a window center uniform in the outline,
  // pins uniform inside the (clamped) window. Real ECOs are local, and a
  // local change leaves most (region, dir) cells clean — the Phase II
  // solutions the delta engine carries over. The perfbench ECO chain is
  // drawn from here, so the draw order is part of its corpus.
  auto random_pins = [&rng, w, h](std::size_t n_pins) {
    const double half_w = 0.15 * w, half_h = 0.15 * h;
    const double cx = rng.uniform(0.0, w), cy = rng.uniform(0.0, h);
    const double x0 = std::max(0.0, cx - half_w);
    const double x1 = std::min(w, cx + half_w);
    const double y0 = std::max(0.0, cy - half_h);
    const double y1 = std::min(h, cy + half_h);
    std::vector<geom::PointF> pins;
    pins.reserve(n_pins);
    for (std::size_t i = 0; i < n_pins; ++i) {
      pins.push_back(geom::PointF{rng.uniform(x0, x1), rng.uniform(y0, y1)});
    }
    return pins;
  };
  auto random_slot = [&rng, count] {
    return std::min(count - 1,
                    static_cast<std::size_t>(rng.uniform() *
                                             static_cast<double>(count)));
  };

  for (std::size_t i = 0; i < changes; ++i) {
    NetChange c;
    const double kind = rng.uniform();
    const std::size_t n_pins = 2 + static_cast<std::size_t>(rng.uniform() * 4.0);
    if (kind < 0.25 || count == 0) {
      c.kind = NetChange::Kind::kAdd;
      c.name = "delta_add_" + std::to_string(i);
      c.pins = random_pins(n_pins);
    } else if (kind < 0.45) {
      c.kind = NetChange::Kind::kRemove;
      c.net = random_slot();
    } else {
      c.kind = NetChange::Kind::kRepin;
      c.net = random_slot();
      c.pins = random_pins(n_pins);
    }
    delta.changes.push_back(std::move(c));
  }
  return delta;
}

// ---------------------------------------------------------------- engine

namespace {

struct SolvePatch {
  std::shared_ptr<const gsino::RegionSolveArtifact> artifact;
  std::size_t solved = 0;  ///< dirty non-empty (region, dir) recomputed
  std::size_t reused = 0;  ///< clean non-empty (region, dir) carried over
};

bool same_bits(double a, double b) {
  std::uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

SolvePatch patch_solve(
    const gsino::RoutingProblem& p, const gsino::RegionSolveArtifact& oldart,
    const std::shared_ptr<const gsino::RoutingArtifact>& phase1,
    const std::shared_ptr<const gsino::BudgetArtifact>& budget) {
  SolvePatch out;
  const router::Occupancy& old_occ = *oldart.phase1->occupancy;
  const router::Occupancy& new_occ = *phase1->occupancy;
  const gsino::PathIndex& old_paths = *oldart.phase1->paths;
  const gsino::PathIndex& new_paths = *phase1->paths;
  const std::vector<double>& old_kth = *oldart.budget->kth;
  const std::vector<double>& new_kth = *budget->kth;

  // A (region, dir) is clean iff everything build_region_solution reads
  // there is bitwise unchanged: the segment list (members and lengths),
  // every member's Kth and critical-path length. Member S_i and the
  // pairwise sensitivity draws are index-stable under slot preservation,
  // so an unchanged member list implies unchanged values for both. Clean
  // regions carry their solved solution over (the solvers are pure per
  // instance, with per-region seeds keyed on the member list).
  const std::size_t sol_count = p.grid().region_count() * 2;
  std::vector<const gsino::RegionSolution*> carried(sol_count, nullptr);
  for (std::size_t si = 0; si < sol_count; ++si) {
    const std::size_t r = gsino::sol_region(si);
    const grid::Dir d = gsino::sol_dir(si);
    const auto& olds = old_occ.segments(r, d);
    const auto& news = new_occ.segments(r, d);
    bool clean = olds.size() == news.size();
    for (std::size_t i = 0; clean && i < news.size(); ++i) {
      const auto n = static_cast<std::size_t>(news[i].net_index);
      clean = olds[i].net_index == news[i].net_index &&
              same_bits(olds[i].length_um, news[i].length_um) &&
              n < old_kth.size() && same_bits(old_kth[n], new_kth[n]) &&
              same_bits(old_paths.length_um(n, r, d),
                        new_paths.length_um(n, r, d));
    }
    if (clean) carried[si] = &(*oldart.solutions)[si];
    if (!news.empty()) ++(clean ? out.reused : out.solved);
  }

  out.artifact = gsino::solve_region_set(p, oldart.kind, oldart.annealed,
                                         phase1, budget, carried);
  return out;
}

}  // namespace

/// Friend of FlowSession (core/session.h): patches the session's caches
/// in place and swaps it onto the mutated problem.
class DeltaEngine {
 public:
  static DeltaReport apply(gsino::FlowSession& s, const NetlistDelta& delta);
};

DeltaReport DeltaEngine::apply(gsino::FlowSession& s,
                               const NetlistDelta& delta) {
  util::Stopwatch watch;
  DeltaReport report;
  report.changed_nets = delta.changes.size();

  auto newp = std::make_shared<const gsino::RoutingProblem>(
      apply_delta(*s.problem_, delta));
  report.problem = newp;

  // Route the mutated problem once per cached router profile, keeping an
  // old->new map so downstream entries re-key onto the new artifacts.
  // Every old artifact whose address is used as a map key stays alive
  // until its last lookup: budget entries pin their phase1, solve entries'
  // artifacts pin both their inputs.
  std::unordered_map<const gsino::RoutingArtifact*,
                     std::shared_ptr<const gsino::RoutingArtifact>>
      routes;
  for (auto& e : s.route_cache_) {
    auto art = gsino::compute_route(*newp, e.options);
    report.nets_rerouted += newp->net_count();
    ++report.routes_patched;
    if (s.options_.store) {
      s.options_.store->put_routing(store::routing_key(*newp, e.options),
                                    *art);
    }
    routes.emplace(e.artifact.get(), art);
    e.artifact = std::move(art);
  }

  // Budgets recompute through the stage path (cheap); entries whose
  // routing input is no longer cached drop and recompute on demand.
  std::unordered_map<const gsino::BudgetArtifact*,
                     std::shared_ptr<const gsino::BudgetArtifact>>
      budgets;
  for (auto it = s.budget_cache_.begin(); it != s.budget_cache_.end();) {
    auto& e = *it;
    std::shared_ptr<const gsino::RoutingArtifact> new_phase1;
    if (e.phase1) {
      const auto f = routes.find(e.phase1.get());
      if (f == routes.end()) {
        it = s.budget_cache_.erase(it);
        continue;
      }
      new_phase1 = f->second;
    }
    auto art = gsino::compute_budget(*newp, e.rule, e.bound_v, e.margin,
                                     new_phase1.get());
    if (s.options_.store) {
      s.options_.store->put_budget(
          store::budget_key(*newp, e.rule, e.bound_v, e.margin,
                            new_phase1.get()),
          *art);
    }
    budgets.emplace(e.artifact.get(), art);
    e.phase1 = std::move(new_phase1);
    e.artifact = std::move(art);
    ++it;
  }

  // Phase II solves patch per dirty (region, dir); entries whose inputs
  // are no longer cached drop and recompute on demand.
  for (auto it = s.solve_cache_.begin(); it != s.solve_cache_.end();) {
    auto& e = *it;
    const auto fr = routes.find(e.phase1);
    const auto fb = budgets.find(e.budget);
    if (fr == routes.end() || fb == budgets.end()) {
      it = s.solve_cache_.erase(it);
      continue;
    }
    SolvePatch sp = patch_solve(*newp, *e.artifact, fr->second, fb->second);
    report.regions_solved += sp.solved;
    report.regions_reused += sp.reused;
    if (s.options_.store) {
      s.options_.store->put_region_solve(
          store::solve_key(*newp, e.kind, e.anneal, *fr->second, *fb->second),
          *sp.artifact);
    }
    e.phase1 = fr->second.get();
    e.budget = fb->second.get();
    e.artifact = std::move(sp.artifact);
    ++it;
  }

  // Phase III has no regional patch (global worst-violator ordering):
  // invalidate; the next refine() recomputes from the patched solve.
  s.refine_cache_.clear();

  s.counters_.delta_applies += 1;
  s.counters_.delta_nets_rerouted += report.nets_rerouted;
  s.counters_.delta_regions_solved += report.regions_solved;
  s.counters_.delta_regions_reused += report.regions_reused;

  // Swap the session onto the mutated problem; retire the previous owned
  // problem (artifacts hold pointers into their problem's grid).
  if (s.owned_problem_) {
    s.retired_problems_.push_back(std::move(s.owned_problem_));
  }
  s.owned_problem_ = newp;
  s.problem_ = s.owned_problem_.get();

  report.seconds = watch.seconds();
  return report;
}

}  // namespace rlcr::scenario

namespace rlcr::gsino {

scenario::DeltaReport FlowSession::apply_delta(
    const scenario::NetlistDelta& delta) {
  return scenario::DeltaEngine::apply(*this, delta);
}

}  // namespace rlcr::gsino
