// Incremental netlist-delta engine (see delta.h for the contract). The
// FlowSession::apply_delta member is defined here — the session header
// only forward-declares the scenario types — which keeps the delta
// machinery out of core/ while the DeltaEngine friend retains access to
// the session's caches.
//
// Why each patched artifact is bit-identical to a from-scratch run:
//
//   routing — the router's information flow is regional: a pool net reads
//   and writes only (region, dir) statistics inside its own pin bounding
//   box, pre-routed nets write fixed presence derived from their own pins
//   alone, and the deletion heap's (key, id) tie-break makes each
//   bbox-connected component's deletion sequence invariant under the
//   presence of other components. So re-routing the changed nets plus the
//   bbox-connected closure of pool nets around them (seeded by the
//   changed nets' old and new bboxes), with every pre-routed net kept and
//   every unaffected pool net emptied to a no-op, reproduces the affected
//   nets' routes exactly; unaffected pool nets splice their old routes.
//   The artifact then rebuilds through derive_routing_artifact — the same
//   derivation path a fresh route() uses — on routes identical to a full
//   run's, so occupancy, segment congestion, and critical paths match bit
//   for bit.
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
#include <unordered_map>
#include <utility>

#include "core/session.h"
#include "geom/rect.h"
#include "router/id_router.h"
#include "router/occupancy.h"
#include "store/artifact_store.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace rlcr::scenario {

namespace {

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
  // pins uniform inside the (clamped) window. Chip-spanning nets would
  // make every delta's bbox closure percolate across the whole pool —
  // real ECOs are local, and locality is what gives incrementality its
  // compute-avoided headroom.
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

/// Path-compressed union-find over {pool nets} ∪ {the seed node}.
struct UnionFind {
  std::vector<std::size_t> parent;
  explicit UnionFind(std::size_t n) : parent(n) {
    for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  }
  std::size_t find(std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent[find(a)] = find(b); }
};

/// The router's pass-A classification, replicated exactly: trivial nets
/// route nothing, huge-bbox nets are pre-routed on their RSMT, the rest
/// go through the deletion loop ("pool").
struct NetClass {
  geom::Rect bbox;
  bool trivial = false;
  bool pool = false;
};

NetClass classify(const router::RouterNet& net, std::size_t huge_threshold) {
  NetClass c;
  for (const geom::Point& p : net.pins) c.bbox.expand(p);
  if (net.pins.size() < 2 || c.bbox.cell_count() <= 1) {
    c.trivial = true;
    return c;
  }
  if (static_cast<std::size_t>(c.bbox.cell_count()) > huge_threshold) {
    return c;  // pre-routed
  }
  c.pool = true;
  return c;
}

constexpr std::size_t kUnowned = static_cast<std::size_t>(-1);

/// Union `node` with every prior claimant of the rect's cells. Two rects
/// intersect iff they share at least one cell, so this yields exactly the
/// rect-intersection connectivity the closure needs.
void claim_rect(UnionFind& uf, std::vector<std::size_t>& owner,
                const grid::RegionGrid& g, const geom::Rect& r,
                std::size_t node) {
  if (r.empty()) return;
  for (std::int32_t y = r.lo.y; y <= r.hi.y; ++y) {
    for (std::int32_t x = r.lo.x; x <= r.hi.x; ++x) {
      std::size_t& o = owner[g.index(geom::Point{x, y})];
      if (o == kUnowned) {
        o = node;
      } else {
        uf.unite(node, o);
      }
    }
  }
}

struct RoutePatch {
  std::shared_ptr<gsino::RoutingArtifact> artifact;
  std::size_t rerouted = 0;  ///< pool nets the sub-run re-routed
  std::size_t reused = 0;    ///< pool nets spliced from the old artifact
};

RoutePatch patch_routing(const gsino::RoutingProblem& oldp,
                         const gsino::RoutingProblem& newp,
                         const gsino::RoutingArtifact& oldart,
                         const std::vector<std::size_t>& changed) {
  const router::IdRouterOptions& opt = oldart.options;
  const grid::RegionGrid& g = newp.grid();
  const std::vector<router::RouterNet>& nets = newp.router_nets();
  const std::size_t count = nets.size();

  std::vector<NetClass> cls(count);
  for (std::size_t n = 0; n < count; ++n) {
    cls[n] = classify(nets[n], opt.huge_net_bbox_threshold);
  }

  // Affected closure: pool nets bbox-connected (transitively) to any
  // changed net's old or new bbox. Old bboxes matter because a net that
  // interacted with a changed net's *previous* shape can re-route even
  // when the new shape moved away; unchanged pre-routed/trivial nets are
  // not connectivity carriers — their contribution to the region
  // statistics is independent of every pool route.
  UnionFind uf(count + 1);
  const std::size_t kSeedNode = count;
  std::vector<std::size_t> owner(g.region_count(), kUnowned);
  for (const std::size_t c : changed) {
    if (c < count) claim_rect(uf, owner, g, cls[c].bbox, kSeedNode);
    if (c < oldp.net_count()) {
      const NetClass oc =
          classify(oldp.router_nets()[c], opt.huge_net_bbox_threshold);
      claim_rect(uf, owner, g, oc.bbox, kSeedNode);
    }
  }
  for (std::size_t n = 0; n < count; ++n) {
    if (cls[n].pool) claim_rect(uf, owner, g, cls[n].bbox, n);
  }

  // Sub-run nets: every pre-routed net stays (cheap, deterministic, and
  // its fixed presence is read by affected pool nets); unaffected pool
  // nets empty to trivial no-ops so the deletion loop only ever sees the
  // affected components — whose projected sequence the tie-break contract
  // keeps identical to the full run's.
  RoutePatch out;
  std::vector<router::RouterNet> subnets = nets;
  std::vector<char> affected(count, 0);
  const std::size_t seed_root = uf.find(kSeedNode);
  for (std::size_t n = 0; n < count; ++n) {
    if (!cls[n].pool) continue;
    if (uf.find(n) == seed_root) {
      affected[n] = 1;
      ++out.rerouted;
    } else {
      subnets[n].pins.clear();
      ++out.reused;
    }
  }

  const router::IdRouter router(g, newp.nss(), opt);
  router::RoutingResult sub = router.route(subnets);

  // Splice, then recompute the wirelength sum in net order — the same
  // accumulation order as a full run's collect phase.
  auto routing = std::make_shared<router::RoutingResult>();
  routing->routes.resize(count);
  routing->stats = sub.stats;  // the work actually performed; never hashed
  double total = 0.0;
  for (std::size_t n = 0; n < count; ++n) {
    if (cls[n].pool && !affected[n]) {
      routing->routes[n] = oldart.routing->routes[n];
    } else {
      routing->routes[n] = std::move(sub.routes[n]);
    }
    total += routing->routes[n].wirelength_um(g);
  }
  routing->total_wirelength_um = total;

  out.artifact = gsino::derive_routing_artifact(newp, opt, newp.params().seed,
                                                std::move(routing));
  return out;
}

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

  const gsino::RoutingProblem& oldp = *s.problem_;
  auto newp =
      std::make_shared<const gsino::RoutingProblem>(apply_delta(oldp, delta));
  report.problem = newp;

  // Changed slots in the new slot space (kAdd slots number in change
  // order, matching with_pin_updates' append order).
  std::vector<std::size_t> changed;
  changed.reserve(delta.changes.size());
  std::size_t next_append = oldp.net_count();
  for (const NetChange& c : delta.changes) {
    changed.push_back(c.kind == NetChange::Kind::kAdd ? next_append++ : c.net);
  }

  // Patch every cached routing artifact (one per router profile), keeping
  // an old->new map so downstream entries re-key onto the patched inputs.
  // Every old artifact whose address is used as a map key stays alive
  // until its last lookup: budget entries pin their phase1, solve entries'
  // artifacts pin both their inputs.
  std::unordered_map<const gsino::RoutingArtifact*,
                     std::shared_ptr<const gsino::RoutingArtifact>>
      routes;
  for (auto& e : s.route_cache_) {
    util::Stopwatch stage_watch;
    RoutePatch rp = patch_routing(oldp, *newp, *e.artifact, changed);
    rp.artifact->seconds = stage_watch.seconds();
    report.nets_rerouted += rp.rerouted;
    report.nets_reused += rp.reused;
    ++report.routes_patched;
    if (s.options_.store) {
      s.options_.store->put_routing(store::routing_key(*newp, e.options),
                                    *rp.artifact);
    }
    routes.emplace(e.artifact.get(), rp.artifact);
    e.artifact = std::move(rp.artifact);
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
  s.counters_.delta_nets_reused += report.nets_reused;
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
