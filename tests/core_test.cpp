#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <unordered_map>

#include "core/budget.h"
#include "core/experiment.h"
#include "core/metrics.h"
#include "core/paths.h"
#include "core/problem.h"
#include "core/session.h"
#include "netlist/ispd98_synth.h"

namespace rlcr::gsino {
namespace {

GsinoParams fast_params() {
  GsinoParams p;
  p.lr_max_outer_pass1 = 500;
  p.lr_max_outer_pass2 = 500;
  return p;
}

RoutingProblem tiny_problem(double rate = 0.3, std::uint64_t seed = 7) {
  static netlist::SyntheticSpec spec = netlist::tiny_spec(180, 7);
  static netlist::Netlist design = netlist::generate(spec);
  GsinoParams p = fast_params();
  p.sensitivity_rate = rate;
  p.seed = seed;
  return make_problem(design, spec, p);
}

// --------------------------------------------------------------- budgeter

TEST(Budgeter, MapsBoundThroughTable) {
  const ktable::LskTable table = ktable::LskTable::from_linear(0.05, 0.01);
  const CrosstalkBudgeter b(table, 0.15);
  EXPECT_NEAR(b.lsk_budget(), (0.15 - 0.01) / 0.05, 1e-9);
  // Kth = budget / Le[mm].
  EXPECT_NEAR(b.kth_from_length(500.0), b.lsk_budget() / 0.5, 1e-9);
}

TEST(Budgeter, LongerNetsGetTighterBounds) {
  const ktable::LskTable table = ktable::LskTable::default_table();
  const CrosstalkBudgeter b(table, 0.15);
  EXPECT_GT(b.kth_from_length(200.0), b.kth_from_length(2000.0));
}

TEST(Budgeter, UniformKthCoversAllNets) {
  const RoutingProblem p = tiny_problem();
  const CrosstalkBudgeter b(p.lsk_table(), 0.15);
  const auto kth = b.uniform_kth(p);
  ASSERT_EQ(kth.size(), p.net_count());
  for (double k : kth) EXPECT_GT(k, 0.0);
}

// ------------------------------------------------------------------ paths

TEST(CriticalPath, TwoPinLShape) {
  grid::RegionGridSpec gs;
  gs.cols = 8;
  gs.rows = 8;
  gs.region_w_um = 10;
  gs.region_h_um = 10;
  const grid::RegionGrid g(gs);
  router::RouterNet net;
  net.pins = {{0, 0}, {2, 1}};
  router::NetRoute route;
  route.edges = {router::make_edge({0, 0}, {1, 0}),
                 router::make_edge({1, 0}, {2, 0}),
                 router::make_edge({2, 0}, {2, 1})};
  const CriticalPath cp = critical_path(g, net, route);
  EXPECT_DOUBLE_EQ(cp.length_um, 30.0);
  // Regions on the path: (0,0) h, (1,0) h, (2,0) h+v, (2,1) v.
  EXPECT_EQ(cp.refs.size(), 5u);
}

TEST(CriticalPath, PicksLongestSinkOnTree) {
  grid::RegionGridSpec gs;
  gs.cols = 10;
  gs.rows = 10;
  gs.region_w_um = 10;
  gs.region_h_um = 10;
  const grid::RegionGrid g(gs);
  router::RouterNet net;
  net.pins = {{0, 0}, {1, 0}, {5, 0}};  // source + near sink + far sink
  router::NetRoute route;
  for (std::int32_t x = 0; x < 5; ++x) {
    route.edges.push_back(router::make_edge({x, 0}, {x + 1, 0}));
  }
  const CriticalPath cp = critical_path(g, net, route);
  EXPECT_DOUBLE_EQ(cp.length_um, 50.0);  // to the far sink, not the near one
}

TEST(CriticalPath, BranchesAreExcluded) {
  grid::RegionGridSpec gs;
  gs.cols = 10;
  gs.rows = 10;
  gs.region_w_um = 10;
  gs.region_h_um = 10;
  const grid::RegionGrid g(gs);
  router::RouterNet net;
  net.pins = {{0, 0}, {3, 0}, {1, 2}};
  router::NetRoute route;
  route.edges = {router::make_edge({0, 0}, {1, 0}),
                 router::make_edge({1, 0}, {2, 0}),
                 router::make_edge({2, 0}, {3, 0}),
                 router::make_edge({1, 0}, {1, 1}),
                 router::make_edge({1, 1}, {1, 2})};
  const CriticalPath cp = critical_path(g, net, route);
  // Critical path is to (3,0) (30 um) or (1,2) (10+20=30)... both 30; the
  // result must be one of them, not the sum (50).
  EXPECT_DOUBLE_EQ(cp.length_um, 30.0);
  double sum = 0.0;
  for (const auto& r : cp.refs) sum += r.length_um;
  EXPECT_DOUBLE_EQ(sum, 30.0);
}

TEST(CriticalPath, EmptyForSingletons) {
  grid::RegionGridSpec gs;
  const grid::RegionGrid g(gs);
  router::RouterNet net;
  net.pins = {{0, 0}};
  EXPECT_TRUE(critical_path(g, net, {}).refs.empty());
}

// ------------------------------------------- critical-path differential

/// The hash-map implementation critical_path() had before it moved to
/// flat scratch, kept as the reference the flat one must match bit for
/// bit: BFS over per-point edge lists built in edge order, then sorted
/// per-(region, dir) incident counts on the walk back from the sink.
CriticalPath reference_critical_path(const grid::RegionGrid& grid,
                                     const router::RouterNet& net,
                                     const router::NetRoute& route) {
  CriticalPath out;
  if (net.pins.size() < 2 || route.edges.empty()) return out;

  std::unordered_map<geom::Point, std::vector<std::size_t>> adj;
  for (std::size_t e = 0; e < route.edges.size(); ++e) {
    adj[route.edges[e].a].push_back(e);
    adj[route.edges[e].b].push_back(e);
  }
  const geom::Point src = net.pins.front();
  if (!adj.count(src)) return out;

  std::unordered_map<geom::Point, std::pair<std::size_t, geom::Point>> parent;
  std::unordered_map<geom::Point, double> dist;
  std::vector<geom::Point> queue{src};
  dist[src] = 0.0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const geom::Point v = queue[head];
    for (std::size_t ei : adj[v]) {
      const router::GridEdge& e = route.edges[ei];
      const geom::Point other = (e.a == v) ? e.b : e.a;
      if (dist.count(other)) continue;
      dist[other] = dist[v] + grid.span_um(e.dir());
      parent[other] = {ei, v};
      queue.push_back(other);
    }
  }

  geom::Point best_sink = src;
  double best_dist = -1.0;
  for (std::size_t p = 1; p < net.pins.size(); ++p) {
    const auto it = dist.find(net.pins[p]);
    if (it != dist.end() && it->second > best_dist) {
      best_dist = it->second;
      best_sink = net.pins[p];
    }
  }
  if (best_dist <= 0.0) return out;
  out.length_um = best_dist;

  std::unordered_map<std::uint64_t, int> incident;
  geom::Point v = best_sink;
  while (!(v == src)) {
    const auto& [ei, up] = parent.at(v);
    const router::GridEdge& e = route.edges[ei];
    const auto d = static_cast<std::uint64_t>(e.dir());
    incident[grid.index(e.a) * 2 + d] += 1;
    incident[grid.index(e.b) * 2 + d] += 1;
    v = up;
  }
  for (const auto& [key, count] : incident) {
    const auto d = static_cast<grid::Dir>(key % 2);
    out.refs.push_back(router::NetRegionRef{
        static_cast<std::size_t>(key / 2), d, 0.5 * grid.span_um(d) * count});
  }
  std::sort(out.refs.begin(), out.refs.end(),
            [](const router::NetRegionRef& a, const router::NetRegionRef& b) {
              if (a.region != b.region) return a.region < b.region;
              return static_cast<int>(a.dir) < static_cast<int>(b.dir);
            });
  return out;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Bit-identical paths: same length bits, same refs in the same order.
void expect_same_path(const CriticalPath& want, const CriticalPath& got,
                      std::size_t n) {
  EXPECT_EQ(bits(got.length_um), bits(want.length_um)) << "net " << n;
  ASSERT_EQ(got.refs.size(), want.refs.size()) << "net " << n;
  for (std::size_t i = 0; i < want.refs.size(); ++i) {
    EXPECT_EQ(got.refs[i].region, want.refs[i].region) << "net " << n;
    EXPECT_EQ(got.refs[i].dir, want.refs[i].dir) << "net " << n;
    EXPECT_EQ(bits(got.refs[i].length_um), bits(want.refs[i].length_um))
        << "net " << n;
  }
}

TEST(CriticalPathDifferential, FlatMatchesHashMapReferenceOnIbm01Gsino) {
  const auto classes = netlist::ispd98_classes(0.25);
  const netlist::Ispd98ClassSpec* cls =
      netlist::find_ispd98_class(classes, "ibm01");
  ASSERT_NE(cls, nullptr);
  const netlist::Ispd98Instance inst = netlist::make_ispd98_instance(*cls);
  const RoutingProblem problem(inst.design, inst.gspec, GsinoParams{});
  FlowSession session(problem);
  const auto phase1 = session.route(FlowKind::kGsino);
  const grid::RegionGrid& g = problem.grid();
  const auto& nets = problem.router_nets();
  const auto& routes = phase1->routing->routes;

  // The routing includes pre-routed nets (L-shapes on the RSMT, not the
  // deletion loop's trees). It has neither cycles nor pins off the tree;
  // FlatMatchesHashMapReferenceOnRandomEdgeSets covers those shapes.
  ASSERT_GT(phase1->routing->stats.prerouted_nets, 0u);

  std::vector<CriticalPath> reference(nets.size());
  for (std::size_t n = 0; n < nets.size(); ++n) {
    reference[n] = reference_critical_path(g, nets[n], routes[n]);
    expect_same_path(reference[n], critical_path(g, nets[n], routes[n]), n);
  }
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    const std::vector<CriticalPath> all =
        critical_paths(g, nets, routes, threads);
    ASSERT_EQ(all.size(), nets.size());
    for (std::size_t n = 0; n < nets.size(); ++n) {
      expect_same_path(reference[n], all[n], n);
    }
  }

  // The region set's critical-path lengths against the historical
  // per-(net, region, dir) map, probed at every member of every instance.
  std::unordered_map<std::uint64_t, double> map;
  auto key = [](std::size_t n, std::size_t region, grid::Dir d) {
    return (static_cast<std::uint64_t>(n) << 33) | (region << 1) |
           static_cast<std::uint64_t>(d);
  };
  for (std::size_t n = 0; n < nets.size(); ++n) {
    for (const router::NetRegionRef& ref : reference[n].refs) {
      map[key(n, ref.region, ref.dir)] = ref.length_um;
    }
  }
  const RegionSet& set = *phase1->regions;
  std::size_t probes = 0;
  for (std::size_t si = 0; si < set.size(); ++si) {
    const std::span<const std::uint32_t> members = set.net_index(si);
    const std::span<const double> path_len = set.path_len_mm(si);
    for (std::size_t i = 0; i < members.size(); ++i) {
      const auto it = map.find(key(members[i], sol_region(si), sol_dir(si)));
      const double want = it == map.end() ? 0.0 : it->second;
      EXPECT_EQ(bits(path_len[i]), bits(want / 1000.0))
          << "net " << members[i] << " instance " << si;
      ++probes;
    }
  }
  EXPECT_GT(probes, map.size());

  // Every critical-path region holds its net, found through the net's
  // memberships.
  for (std::size_t n = 0; n < nets.size(); ++n) {
    for (const router::NetRegionRef& ref : reference[n].refs) {
      const std::size_t si = sol_index_of(ref.region, ref.dir);
      const auto ms = set.memberships(n);
      const auto m = std::find_if(
          ms.begin(), ms.end(),
          [si](const RegionSet::Membership& x) { return x.si == si; });
      ASSERT_NE(m, ms.end()) << "net " << n << " instance " << si;
      EXPECT_EQ(bits(set.path_len_mm(si)[m->member]),
                bits(ref.length_um / 1000.0))
          << "net " << n << " instance " << si;
    }
  }
}

TEST(CriticalPathDifferential, FlatMatchesHashMapReferenceOnRandomEdgeSets) {
  // Random edge sets on a small grid: cycles, repeated edges, disconnected
  // pieces, sinks off the edges or unreachable, and sources off the edges.
  // Region spans differ per direction, so distances tie only by shape.
  // The BFS visiting order decides which of several equal-length parents
  // a point keeps, so only an identical order reproduces the refs.
  grid::RegionGridSpec gs;
  gs.cols = 7;
  gs.rows = 6;
  gs.region_w_um = 10;
  gs.region_h_um = 13;
  const grid::RegionGrid g(gs);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  auto next = [&](std::uint64_t bound) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::int32_t>((x >> 33) % bound);
  };
  std::size_t nonempty = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    router::NetRoute route;
    const int edges = 1 + next(40);
    for (int e = 0; e < edges; ++e) {
      const geom::Point a{next(gs.cols - 1), next(gs.rows - 1)};
      const geom::Point b = next(2) ? geom::Point{a.x + 1, a.y}
                                    : geom::Point{a.x, a.y + 1};
      // Both canonical and reversed endpoint order.
      route.edges.push_back(next(2) ? router::GridEdge{a, b}
                                    : router::GridEdge{b, a});
    }
    // Pins mostly on the edges (source included), some anywhere.
    router::RouterNet net;
    const int pins = 2 + next(5);
    for (int p = 0; p < pins; ++p) {
      const router::GridEdge& e =
          route.edges[static_cast<std::size_t>(next(edges))];
      const geom::Point anywhere{next(gs.cols), next(gs.rows)};
      net.pins.push_back(next(4) == 0 ? anywhere : (next(2) ? e.a : e.b));
    }
    const CriticalPath want = reference_critical_path(g, net, route);
    nonempty += !want.refs.empty();
    expect_same_path(want, critical_path(g, net, route),
                     static_cast<std::size_t>(trial));
  }
  EXPECT_GT(nonempty, 300u);
}

// ------------------------------------------------------------------ flows

TEST(Flow, IdNoLeavesViolationsButOrdersNets) {
  const RoutingProblem p = tiny_problem(0.5);
  const FlowResult fr = FlowSession(p).run(FlowKind::kIdNo);
  EXPECT_EQ(fr.name, "ID+NO");
  // All region solutions are pure permutations (no shields).
  EXPECT_DOUBLE_EQ(fr.total_shields, 0.0);
  EXPECT_EQ(fr.net_lsk().size(), p.net_count());
}

TEST(Flow, IsinoEliminatesAllViolations) {
  const RoutingProblem p = tiny_problem(0.5);
  const FlowResult fr = FlowSession(p).run(FlowKind::kIsino);
  EXPECT_EQ(fr.violating, 0u);
}

TEST(Flow, GsinoEliminatesAllViolations) {
  const RoutingProblem p = tiny_problem(0.5);
  const FlowResult fr = FlowSession(p).run(FlowKind::kGsino);
  EXPECT_EQ(fr.violating, 0u);
  EXPECT_EQ(fr.unfixable, 0u);
}

TEST(Flow, SolutionsSatisfySinoConstraints) {
  const RoutingProblem p = tiny_problem(0.4);
  const FlowResult fr = FlowSession(p).run(FlowKind::kIsino);
  for (const RegionSolution& sol : fr.solutions()) {
    if (sol.empty()) continue;
    const sino::SinoEvaluator eval(sol.instance, p.keff());
    const sino::SinoCheck c =
        eval.check(ktable::SlotVec(sol.slots.begin(), sol.slots.end()));
    EXPECT_TRUE(c.placed_all);
    EXPECT_EQ(c.capacitive_violations, 0);
    EXPECT_EQ(c.inductive_violations, 0);
  }
}

TEST(Flow, LskAccountingIsConsistent) {
  // net_lsk must equal the sum over solutions of path_len * ki.
  const RoutingProblem p = tiny_problem(0.4);
  const FlowResult fr = FlowSession(p).run(FlowKind::kGsino);
  std::vector<double> recomputed(p.net_count(), 0.0);
  for (const RegionSolution& sol : fr.solutions()) {
    for (std::size_t i = 0; i < sol.net_index.size(); ++i) {
      recomputed[sol.net_index[i]] += sol.path_len_mm[i] * sol.ki[i];
    }
  }
  for (std::size_t n = 0; n < p.net_count(); ++n) {
    EXPECT_NEAR(recomputed[n], fr.net_lsk()[n], 1e-9) << "net " << n;
  }
}

TEST(Flow, CongestionSegmentsMatchOccupancy) {
  const RoutingProblem p = tiny_problem();
  const FlowResult fr = FlowSession(p).run(FlowKind::kIdNo);
  const router::Occupancy occ(p.grid(), fr.routing().routes);
  for (std::size_t r = 0; r < p.grid().region_count(); ++r) {
    for (grid::Dir d : grid::kBothDirs) {
      EXPECT_DOUBLE_EQ(fr.congestion->segments(r, d),
                       static_cast<double>(occ.segments(r, d).size()));
    }
  }
}

/// The region set's membership index against the occupancy it was built
/// from: each net's memberships follow Occupancy::net_refs in order, each
/// points at the net, and each instance lists its segment list's nets.
void expect_memberships_follow_occupancy(const RoutingProblem& p,
                                         const RoutingArtifact& art) {
  const router::Occupancy occ(p.grid(), art.routing->routes);
  const RegionSet& set = *art.regions;
  std::size_t total = 0;
  for (std::size_t n = 0; n < occ.net_count(); ++n) {
    const auto& refs = occ.net_refs(n);
    const auto ms = set.memberships(n);
    ASSERT_EQ(ms.size(), refs.size()) << "net " << n;
    for (std::size_t k = 0; k < ms.size(); ++k) {
      EXPECT_EQ(ms[k].si, sol_index_of(refs[k].region, refs[k].dir))
          << "net " << n << " ref " << k;
      ASSERT_LT(ms[k].member, set.count(ms[k].si)) << "net " << n;
      EXPECT_EQ(set.net_index(ms[k].si)[ms[k].member], n) << "net " << n;
    }
    total += ms.size();
  }
  EXPECT_EQ(total, set.member_count());
  for (std::size_t si = 0; si < set.size(); ++si) {
    const auto& segs = occ.segments(sol_region(si), sol_dir(si));
    ASSERT_EQ(segs.size(), set.count(si)) << "instance " << si;
    for (std::size_t i = 0; i < segs.size(); ++i) {
      EXPECT_EQ(static_cast<std::uint32_t>(segs[i].net_index),
                set.net_index(si)[i])
          << "instance " << si;
    }
  }
}

TEST(RegionSet, MembershipsRankEachInstancesNetsInIndexOrder) {
  // Nets 0..2 over 4 instances: net 0 in {1, 3}, net 1 in {1}, net 2 in
  // {0, 1}.
  const RegionSet set(4, {0, 2, 3, 5}, {1, 3, 1, 0, 1});
  EXPECT_EQ(set.size(), 4u);
  EXPECT_EQ(set.member_count(), 5u);
  EXPECT_EQ(set.count(0), 1u);
  EXPECT_EQ(set.count(1), 3u);
  EXPECT_EQ(set.count(2), 0u);
  const auto ms = set.memberships(2);
  ASSERT_EQ(ms.size(), 2u);
  EXPECT_EQ(ms[0].si, 0u);
  EXPECT_EQ(ms[0].member, 0u);
  EXPECT_EQ(ms[1].si, 1u);
  EXPECT_EQ(ms[1].member, 2u);
  // The index is counted: at least its entries and one offset per net.
  EXPECT_GE(set.owned_bytes(),
            5 * (sizeof(RegionSet::Membership) + sizeof(std::uint32_t)) +
                4 * sizeof(std::uint32_t));
}

TEST(RegionSet, MembershipsFollowOccupancyOnTinyProblem) {
  const RoutingProblem p = tiny_problem();
  FlowSession session(p);
  for (const FlowKind kind : {FlowKind::kIdNo, FlowKind::kGsino}) {
    SCOPED_TRACE(flow_name(kind));
    expect_memberships_follow_occupancy(p, *session.route(kind));
  }
}

TEST(RegionSet, MembershipsFollowOccupancyOnIbm01) {
  const auto classes = netlist::ispd98_classes(0.05);
  const netlist::Ispd98ClassSpec* cls =
      netlist::find_ispd98_class(classes, "ibm01");
  ASSERT_NE(cls, nullptr);
  const netlist::Ispd98Instance inst = netlist::make_ispd98_instance(*cls);
  const RoutingProblem p(inst.design, inst.gspec, GsinoParams{});
  FlowSession session(p);
  expect_memberships_follow_occupancy(p, *session.route(FlowKind::kGsino));
}

TEST(Flow, WirelengthAggregatesAreCoherent) {
  const RoutingProblem p = tiny_problem();
  const FlowResult fr = FlowSession(p).run(FlowKind::kIdNo);
  EXPECT_NEAR(fr.avg_wirelength_um * static_cast<double>(p.net_count()),
              fr.total_wirelength_um, 1e-6);
  EXPECT_GT(fr.area.width_um, 0.0);
  EXPECT_GT(fr.area.height_um, 0.0);
}

TEST(Flow, DeterministicAcrossRuns) {
  const RoutingProblem p = tiny_problem();
  const FlowResult a = FlowSession(p).run(FlowKind::kGsino);
  const FlowResult b = FlowSession(p).run(FlowKind::kGsino);
  EXPECT_EQ(a.violating, b.violating);
  EXPECT_DOUBLE_EQ(a.total_wirelength_um, b.total_wirelength_um);
  EXPECT_DOUBLE_EQ(a.total_shields, b.total_shields);
  EXPECT_DOUBLE_EQ(a.area.width_um, b.area.width_um);
}

TEST(Flow, FlowNames) {
  EXPECT_STREQ(flow_name(FlowKind::kIdNo), "ID+NO");
  EXPECT_STREQ(flow_name(FlowKind::kIsino), "iSINO");
  EXPECT_STREQ(flow_name(FlowKind::kGsino), "GSINO");
}

// ---------------------------------------------------------------- metrics

TEST(Metrics, SummarizeCopiesFields) {
  const RoutingProblem p = tiny_problem();
  const FlowResult fr = FlowSession(p).run(FlowKind::kIdNo);
  const FlowSummary s = summarize(fr, p);
  EXPECT_EQ(s.name, "ID+NO");
  EXPECT_EQ(s.total_nets, p.net_count());
  EXPECT_EQ(s.violating, fr.violating);
  EXPECT_DOUBLE_EQ(s.avg_wirelength_um, fr.avg_wirelength_um);
  EXPECT_DOUBLE_EQ(s.area_um2(), fr.area.width_um * fr.area.height_um);
}

std::vector<CircuitRun> fake_runs() {
  std::vector<CircuitRun> runs;
  for (double rate : {0.30, 0.50}) {
    CircuitRun r;
    r.circuit = "fake01";
    r.rate = rate;
    r.total_nets = 1000;
    r.idno.name = "ID+NO";
    r.idno.total_nets = 1000;
    r.idno.violating = rate == 0.30 ? 150 : 220;
    r.idno.avg_wirelength_um = 640.0;
    r.idno.area_width_um = 1500.0;
    r.idno.area_height_um = 1800.0;
    r.gsino = r.idno;
    r.gsino.name = "GSINO";
    r.gsino.violating = 0;
    r.gsino.avg_wirelength_um = 680.0;
    r.gsino.area_width_um = 1580.0;
    r.isino = r.gsino;
    r.isino.name = "iSINO";
    r.isino.area_width_um = 1700.0;
    r.has_isino = r.has_gsino = true;
    runs.push_back(r);
  }
  return runs;
}

TEST(Metrics, Table1RendersBothRates) {
  const auto t = render_table1(fake_runs());
  const std::string s = t.to_string();
  EXPECT_NE(s.find("fake01"), std::string::npos);
  EXPECT_NE(s.find("150"), std::string::npos);
  EXPECT_NE(s.find("15.00%"), std::string::npos);
  EXPECT_NE(s.find("220"), std::string::npos);
}

TEST(Metrics, Table2ShowsOverhead) {
  const std::string s = render_table2(fake_runs()).to_string();
  EXPECT_NE(s.find("640"), std::string::npos);
  EXPECT_NE(s.find("680"), std::string::npos);
  EXPECT_NE(s.find("6.25%"), std::string::npos);  // 680/640 - 1
}

TEST(Metrics, Table3ShowsAreas) {
  const std::string s = render_table3(fake_runs()).to_string();
  EXPECT_NE(s.find("1500 x 1800"), std::string::npos);
  EXPECT_NE(s.find("1700 x 1800"), std::string::npos);
}

// -------------------------------------------------------------- experiment

TEST(Experiment, RunOneProducesAllFlows) {
  netlist::SyntheticSpec spec = netlist::tiny_spec(120, 3);
  const CircuitRun run =
      ExperimentRunner::run_one(spec, 0.3, fast_params(), true, true);
  EXPECT_EQ(run.circuit, "tiny");
  EXPECT_EQ(run.total_nets, 120u);
  EXPECT_TRUE(run.has_isino);
  EXPECT_TRUE(run.has_gsino);
  EXPECT_EQ(run.isino.violating, 0u);
  EXPECT_EQ(run.gsino.violating, 0u);
}

TEST(Experiment, ScaleFromEnvParsesAndClamps) {
  ::unsetenv("RLCROUTE_SCALE");
  EXPECT_DOUBLE_EQ(scale_from_env(0.5), 0.5);
  ::setenv("RLCROUTE_SCALE", "0.25", 1);
  EXPECT_DOUBLE_EQ(scale_from_env(0.5), 0.25);
  ::setenv("RLCROUTE_SCALE", "junk", 1);
  EXPECT_DOUBLE_EQ(scale_from_env(0.5), 0.5);
  ::setenv("RLCROUTE_SCALE", "-1", 1);
  EXPECT_DOUBLE_EQ(scale_from_env(0.5), 0.5);
  ::unsetenv("RLCROUTE_SCALE");
}

}  // namespace
}  // namespace rlcr::gsino
