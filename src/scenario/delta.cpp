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
//   region set — an instance's structure is a pure function of the
//   region's segment list, its members' critical-path lengths / S_i, and
//   the pairwise sensitivity draws, all of which slot preservation keeps
//   index-stable. The patched routing copies every instance whose inputs
//   are bitwise unchanged from the old routing's set and builds the rest
//   through the one build_region_solution path.
//
//   solve — a (region, dir) SINO solution is a pure function of its
//   instance and its members' Kth. Regions whose instance and Kth are
//   bitwise unchanged carry their old slots and Ki over verbatim; the rest
//   go through the stage's own solve_region_set, which solves them exactly
//   as a full solve does and replays the LSK/shield/noise accumulation
//   over every region in (region, dir) order, so the floating-point sums
//   match a from-scratch solve exactly.
//
//   refine — Phase III orders its work by global worst-violator, which a
//   regional patch cannot reproduce; refine artifacts are invalidated and
//   recompute from the (bit-identical) patched solve.
#include "scenario/delta.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/session.h"
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
  const gsino::RegionSet& set = *phase1->regions;
  const std::vector<double>& old_kth = *oldart.budget->kth;
  const std::vector<double>& new_kth = *budget->kth;

  // A (region, dir) is clean iff its region-set inputs are unchanged
  // (gsino::same_region_inputs, the test the routing's set used to carry
  // its slice over) and every member's Kth is bitwise unchanged. Clean
  // regions carry their solved slots and Ki over (the solvers are pure per
  // instance, with per-region seeds keyed on the member list).
  std::vector<gsino::RegionSolution> carried(set.size());
  for (std::size_t si = 0; si < set.size(); ++si) {
    bool clean = gsino::same_region_inputs(*oldart.phase1, *phase1->occupancy,
                                           *phase1->paths, si);
    for (const std::uint32_t n : set.net_index(si)) {
      if (!clean) break;
      clean = n < old_kth.size() && same_bits(old_kth[n], new_kth[n]);
    }
    if (clean) carried[si] = (*oldart.solutions)[si];
    if (set.count(si) != 0) ++(clean ? out.reused : out.solved);
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
  s.counters_.delta_applies += 1;
  // Equal fingerprints: every cached artifact is already the mutated one's.
  if (newp->fingerprint() == s.problem_->fingerprint()) {
    report.seconds = watch.seconds();
    return report;
  }

  // Every entry re-files under the mutated problem's store keys, and a
  // downstream entry finds its new inputs by looking their keys up. An
  // entry whose inputs are no longer cached drops and recomputes on demand.
  const gsino::RoutingProblem& p = *newp;
  store::ArtifactStore* const st = s.options_.store.get();
  const auto find = [](const auto& cache, std::uint64_t key) {
    decltype(cache.front().artifact) hit;
    for (const auto& e : cache) {
      if (e.key == key) hit = e.artifact;
    }
    return hit;
  };

  // Routing: every cached router profile routes the mutated problem; the
  // new routing's region set copies every unchanged instance from the old.
  for (auto& e : s.route_cache_) {
    e.key = store::routing_key(p, e.artifact->options);
    e.artifact = gsino::compute_route(p, e.artifact->options, e.artifact.get());
    report.nets_rerouted += p.net_count();
    ++report.routes_patched;
    if (st) st->put_routing(e.key, *e.artifact);
  }

  // Budgets recompute through the stage path (cheap). A routed-length
  // budget re-links to the patched routing of its own router profile.
  for (auto it = s.budget_cache_.begin(); it != s.budget_cache_.end();) {
    const gsino::BudgetArtifact& old = *it->artifact;
    const auto phase1 =
        old.phase1
            ? find(s.route_cache_, store::routing_key(p, old.phase1->options))
            : nullptr;
    if (old.phase1 && !phase1) {
      it = s.budget_cache_.erase(it);
      continue;
    }
    it->key = store::budget_key(p, old.rule, old.bound_v, old.margin,
                                phase1.get());
    it->artifact = gsino::compute_budget(p, old.rule, old.bound_v, old.margin,
                                         phase1);
    if (st) st->put_budget(it->key, *it->artifact);
    ++it;
  }

  // Phase II solves patch per dirty (region, dir).
  for (auto it = s.solve_cache_.begin(); it != s.solve_cache_.end();) {
    const gsino::RegionSolveArtifact& old = *it->artifact;
    const gsino::BudgetArtifact& ob = *old.budget;
    const auto phase1 =
        find(s.route_cache_, store::routing_key(p, old.phase1->options));
    // A budget key reads only its routing's profile, so the old routing
    // names the patched budget too.
    const auto budget =
        phase1 ? find(s.budget_cache_,
                      store::budget_key(p, ob.rule, ob.bound_v, ob.margin,
                                        ob.phase1.get()))
               : nullptr;
    if (!budget) {
      it = s.solve_cache_.erase(it);
      continue;
    }
    SolvePatch sp = patch_solve(p, old, phase1, budget);
    report.regions_solved += sp.solved;
    report.regions_reused += sp.reused;
    it->key = store::solve_key(p, old.kind, old.annealed, *phase1, *budget);
    it->artifact = std::move(sp.artifact);
    if (st) st->put_region_solve(it->key, *it->artifact);
    ++it;
  }

  // Phase III has no regional patch (global worst-violator ordering):
  // invalidate; the next refine() recomputes from the patched solve.
  s.refine_cache_.clear();

  s.counters_.delta_nets_rerouted += report.nets_rerouted;
  s.counters_.delta_regions_solved += report.regions_solved;
  s.counters_.delta_regions_reused += report.regions_reused;

  // Swap the session onto the mutated problem. No artifact points into the
  // old one, so it is released here unless a FlowState still shares it.
  s.problem_ = std::move(newp);

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
