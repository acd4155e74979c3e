#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "grid/region_grid.h"
#include "router/id_router.h"
#include "router/maze.h"
#include "router/occupancy.h"
#include "router/route_types.h"
#include "sino/nss.h"
#include "util/rng.h"

#include "golden_util.h"

namespace rlcr::router {
namespace {

grid::RegionGrid make_grid(std::int32_t cols = 12, std::int32_t rows = 12,
                           int cap = 8) {
  grid::RegionGridSpec s;
  s.cols = cols;
  s.rows = rows;
  s.region_w_um = 20.0;
  s.region_h_um = 25.0;
  s.h_capacity = cap;
  s.v_capacity = cap;
  return grid::RegionGrid(s);
}

std::vector<RouterNet> random_nets(const grid::RegionGrid& g, std::size_t count,
                                   std::uint64_t seed, std::int32_t spread = 4) {
  util::Xoshiro256 rng(seed);
  std::vector<RouterNet> nets(count);
  for (std::size_t i = 0; i < count; ++i) {
    nets[i].id = static_cast<std::int32_t>(i);
    nets[i].si = 0.3;
    const std::int32_t cx = static_cast<std::int32_t>(rng.below(
        static_cast<std::uint64_t>(g.cols())));
    const std::int32_t cy = static_cast<std::int32_t>(rng.below(
        static_cast<std::uint64_t>(g.rows())));
    const std::size_t degree = 2 + rng.below(3);
    for (std::size_t p = 0; p < degree; ++p) {
      geom::Point pt{
          std::clamp(cx + static_cast<std::int32_t>(rng.range(-spread, spread)),
                     0, g.cols() - 1),
          std::clamp(cy + static_cast<std::int32_t>(rng.range(-spread, spread)),
                     0, g.rows() - 1)};
      if (std::find(nets[i].pins.begin(), nets[i].pins.end(), pt) ==
          nets[i].pins.end()) {
        nets[i].pins.push_back(pt);
      }
    }
    if (nets[i].pins.size() < 2) {
      nets[i].pins.push_back(
          geom::Point{(cx + 1) % g.cols(), (cy + 1) % g.rows()});
    }
  }
  return nets;
}

TEST(RouteTypes, MakeEdgeCanonicalizes) {
  const GridEdge e = make_edge({3, 2}, {2, 2});
  EXPECT_EQ(e.a, (geom::Point{2, 2}));
  EXPECT_EQ(e.b, (geom::Point{3, 2}));
  EXPECT_EQ(e.dir(), grid::Dir::kHorizontal);
  EXPECT_EQ(make_edge({1, 1}, {1, 2}).dir(), grid::Dir::kVertical);
}

TEST(RouteTypes, WirelengthSumsSpans) {
  const grid::RegionGrid g = make_grid();
  NetRoute r;
  r.edges = {make_edge({0, 0}, {1, 0}), make_edge({1, 0}, {1, 1})};
  EXPECT_DOUBLE_EQ(r.wirelength_um(g), 20.0 + 25.0);
}

TEST(RouteTypes, ConnectsDetectsGaps) {
  NetRoute r;
  r.edges = {make_edge({0, 0}, {1, 0})};
  EXPECT_TRUE(r.connects({{0, 0}, {1, 0}}));
  EXPECT_FALSE(r.connects({{0, 0}, {2, 0}}));
  EXPECT_TRUE(r.connects({{5, 5}}));  // single pin is trivially connected
}

// -------------------------------------------------------------- ID router

TEST(IdRouter, StraightTwoPinNetIsMinimal) {
  const grid::RegionGrid g = make_grid();
  const sino::NssModel nss;
  const IdRouter router(g, nss);
  std::vector<RouterNet> nets(1);
  nets[0].id = 0;
  nets[0].pins = {{1, 3}, {7, 3}};
  const RoutingResult res = router.route(nets);
  EXPECT_EQ(res.routes[0].edges.size(), 6u);
  EXPECT_TRUE(res.routes[0].connects(nets[0].pins));
  EXPECT_DOUBLE_EQ(res.total_wirelength_um, 6 * 20.0);
}

TEST(IdRouter, SingleRegionNetGetsEmptyRoute) {
  const grid::RegionGrid g = make_grid();
  const sino::NssModel nss;
  const IdRouter router(g, nss);
  std::vector<RouterNet> nets(1);
  nets[0].pins = {{2, 2}};
  const RoutingResult res = router.route(nets);
  EXPECT_TRUE(res.routes[0].edges.empty());
}

TEST(IdRouter, AllNetsConnected) {
  const grid::RegionGrid g = make_grid();
  const sino::NssModel nss;
  const IdRouter router(g, nss);
  const auto nets = random_nets(g, 120, 5);
  const RoutingResult res = router.route(nets);
  ASSERT_EQ(res.routes.size(), nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) {
    EXPECT_TRUE(res.routes[i].connects(nets[i].pins)) << "net " << i;
  }
}

TEST(IdRouter, RoutesAreTreesNotCyclic) {
  const grid::RegionGrid g = make_grid();
  const sino::NssModel nss;
  const IdRouter router(g, nss);
  const auto nets = random_nets(g, 80, 11);
  const RoutingResult res = router.route(nets);
  for (const NetRoute& r : res.routes) {
    // A tree over its touched vertices: |E| = |V| - 1.
    std::unordered_set<geom::Point> vertices;
    for (const GridEdge& e : r.edges) {
      vertices.insert(e.a);
      vertices.insert(e.b);
    }
    if (!r.edges.empty()) {
      EXPECT_EQ(r.edges.size(), vertices.size() - 1);
    }
  }
}

TEST(IdRouter, DetourGuardBoundsPathLength) {
  const grid::RegionGrid g = make_grid(16, 16);
  const sino::NssModel nss;
  IdRouterOptions opt;
  opt.max_detour_factor = 1.3;
  opt.detour_slack = 1;
  const IdRouter router(g, nss, opt);
  const auto nets = random_nets(g, 150, 21, 6);
  const RoutingResult res = router.route(nets);
  for (std::size_t i = 0; i < nets.size(); ++i) {
    if (res.routes[i].edges.empty()) continue;
    // Route wire length <= guard * HPWL-ish bound. Using the per-net tree:
    // every edge is on some source->pin path, and each path respects the
    // guard; the whole tree is bounded by the sum over sinks.
    double bound = 0.0;
    for (std::size_t p = 1; p < nets[i].pins.size(); ++p) {
      const auto dist = geom::manhattan(nets[i].pins[0], nets[i].pins[p]);
      bound += (opt.max_detour_factor * static_cast<double>(dist) +
                opt.detour_slack + 1) *
               std::max(g.region_w_um(), g.region_h_um());
    }
    EXPECT_LE(res.routes[i].wirelength_um(g), bound + 1e-6) << "net " << i;
  }
}

TEST(IdRouter, HugeNetsArePreRouted) {
  const grid::RegionGrid g = make_grid(24, 24);
  const sino::NssModel nss;
  IdRouterOptions opt;
  opt.huge_net_bbox_threshold = 20;  // force the pre-route path
  const IdRouter router(g, nss, opt);
  std::vector<RouterNet> nets(1);
  nets[0].id = 0;
  nets[0].pins = {{0, 0}, {20, 15}, {3, 18}};
  const RoutingResult res = router.route(nets);
  EXPECT_EQ(res.stats.prerouted_nets, 1u);
  EXPECT_TRUE(res.routes[0].connects(nets[0].pins));
}

TEST(IdRouter, DeterministicAcrossRuns) {
  const grid::RegionGrid g = make_grid();
  const sino::NssModel nss;
  const IdRouter router(g, nss);
  const auto nets = random_nets(g, 60, 31);
  const RoutingResult a = router.route(nets);
  const RoutingResult b = router.route(nets);
  ASSERT_EQ(a.routes.size(), b.routes.size());
  for (std::size_t i = 0; i < a.routes.size(); ++i) {
    EXPECT_EQ(a.routes[i].edges.size(), b.routes[i].edges.size());
    for (std::size_t e = 0; e < a.routes[i].edges.size(); ++e) {
      EXPECT_EQ(a.routes[i].edges[e], b.routes[i].edges[e]);
    }
  }
}

TEST(IdRouter, ShieldReservationChangesDemandPicture) {
  // With reserve_shields the router sees higher utilization; the routing
  // still connects everything (behavioural smoke check of the Nss path).
  const grid::RegionGrid g = make_grid(10, 10, 4);
  const sino::NssModel nss;
  IdRouterOptions opt;
  opt.reserve_shields = true;
  const IdRouter router(g, nss, opt);
  auto nets = random_nets(g, 100, 41);
  for (auto& n : nets) n.si = 0.6;  // strong shield pressure
  const RoutingResult res = router.route(nets);
  for (std::size_t i = 0; i < nets.size(); ++i) {
    EXPECT_TRUE(res.routes[i].connects(nets[i].pins));
  }
}

// -------------------------------------------------------------- occupancy

TEST(Occupancy, CountsPresenceAndLengths) {
  const grid::RegionGrid g = make_grid();
  std::vector<NetRoute> routes(1);
  routes[0].net_id = 0;
  // L-shape through 3 regions: (0,0)-(1,0)-(1,1).
  routes[0].edges = {make_edge({0, 0}, {1, 0}), make_edge({1, 0}, {1, 1})};
  const Occupancy occ(g, routes);

  // Region (0,0): one H edge incident -> half a span.
  const auto& h00 = occ.segments(g.index({0, 0}), grid::Dir::kHorizontal);
  ASSERT_EQ(h00.size(), 1u);
  EXPECT_DOUBLE_EQ(h00[0].length_um, 10.0);
  // Region (1,0): one H edge and one V edge.
  EXPECT_EQ(occ.segments(g.index({1, 0}), grid::Dir::kHorizontal).size(), 1u);
  EXPECT_EQ(occ.segments(g.index({1, 0}), grid::Dir::kVertical).size(), 1u);
  // Net view: total length equals route wirelength.
  EXPECT_DOUBLE_EQ(occ.net_length_um(0), routes[0].wirelength_um(g));
}

TEST(Occupancy, ThroughCrossingGetsFullSpan) {
  const grid::RegionGrid g = make_grid();
  std::vector<NetRoute> routes(1);
  routes[0].edges = {make_edge({0, 0}, {1, 0}), make_edge({1, 0}, {2, 0})};
  const Occupancy occ(g, routes);
  const auto& mid = occ.segments(g.index({1, 0}), grid::Dir::kHorizontal);
  ASSERT_EQ(mid.size(), 1u);
  EXPECT_DOUBLE_EQ(mid[0].length_um, 20.0);  // both halves
}

TEST(Occupancy, FillSegmentsMatchesCounts) {
  const grid::RegionGrid g = make_grid();
  const sino::NssModel nss;
  const auto nets = random_nets(g, 60, 3);
  const RoutingResult res = IdRouter(g, nss).route(nets);
  const Occupancy occ(g, res.routes);
  grid::CongestionMap cmap(g);
  occ.fill_segments(cmap);
  for (std::size_t r = 0; r < g.region_count(); ++r) {
    for (grid::Dir d : grid::kBothDirs) {
      EXPECT_DOUBLE_EQ(cmap.segments(r, d),
                       static_cast<double>(occ.segments(r, d).size()));
    }
  }
}

TEST(Occupancy, NetLengthsSumToTotalWirelength) {
  const grid::RegionGrid g = make_grid();
  const sino::NssModel nss;
  const auto nets = random_nets(g, 50, 13);
  const RoutingResult res = IdRouter(g, nss).route(nets);
  const Occupancy occ(g, res.routes);
  double total = 0.0;
  for (std::size_t n = 0; n < nets.size(); ++n) total += occ.net_length_um(n);
  EXPECT_NEAR(total, res.total_wirelength_um, 1e-6);
}

// ------------------------------------------------------------ maze router

TEST(Maze, ConnectsAllNets) {
  const grid::RegionGrid g = make_grid();
  const MazeRouter maze(g);
  const auto nets = random_nets(g, 100, 17);
  const RoutingResult res = maze.route(nets);
  for (std::size_t i = 0; i < nets.size(); ++i) {
    EXPECT_TRUE(res.routes[i].connects(nets[i].pins)) << "net " << i;
  }
}

TEST(Maze, TwoPinShortestWhenUncongested) {
  const grid::RegionGrid g = make_grid();
  const MazeRouter maze(g);
  std::vector<RouterNet> nets(1);
  nets[0].pins = {{0, 0}, {4, 3}};
  const RoutingResult res = maze.route(nets);
  EXPECT_EQ(res.routes[0].edges.size(), 7u);  // Manhattan distance
}

// ---------------------------------------------------- golden regression
//
// Values captured from the pre-incremental (seed) router implementation on
// fixed generator seeds. They pin exact routes (an FNV-1a hash over every
// net's sorted edge list), wire length, presence overflow, and the deletion
// outcome counts, proving the incremental engine (indexed heap, lazy
// density caches, bounded BFS, certificates) is behavior-preserving.
// The internal `reinserts` counter is deliberately NOT pinned: frozen nets
// now bulk-lock without per-pop revalidation, which changes how often heap
// keys are re-touched but not any routing decision.

std::size_t total_edges(const RoutingResult& res) {
  std::size_t n = 0;
  for (const NetRoute& r : res.routes) n += r.edges.size();
  return n;
}

TEST(IdRouterGolden, Grid12Seed5) {
  const grid::RegionGrid g = make_grid();
  const sino::NssModel nss;
  const RoutingResult res = IdRouter(g, nss).route(random_nets(g, 120, 5));
  EXPECT_DOUBLE_EQ(res.total_wirelength_um, 21865.0);
  EXPECT_EQ(total_edges(res), 972u);
  EXPECT_EQ(route_hash(res), 4419766033887167485ULL);
  EXPECT_DOUBLE_EQ(total_overflow(g, res), 30.0);
  EXPECT_EQ(res.stats.edges_deleted, 1229u);
  EXPECT_EQ(res.stats.edges_locked, 2633u);
}

TEST(IdRouterGolden, Grid12Seed31) {
  const grid::RegionGrid g = make_grid();
  const sino::NssModel nss;
  const RoutingResult res = IdRouter(g, nss).route(random_nets(g, 60, 31));
  EXPECT_DOUBLE_EQ(res.total_wirelength_um, 11605.0);
  EXPECT_EQ(total_edges(res), 514u);
  EXPECT_EQ(route_hash(res), 17639182734577684655ULL);
  EXPECT_DOUBLE_EQ(total_overflow(g, res), 0.0);
}

TEST(IdRouterGolden, Grid16Seed21) {
  const grid::RegionGrid g = make_grid(16, 16);
  const sino::NssModel nss;
  const RoutingResult res = IdRouter(g, nss).route(random_nets(g, 150, 21, 6));
  EXPECT_DOUBLE_EQ(res.total_wirelength_um, 42050.0);
  EXPECT_EQ(total_edges(res), 1872u);
  EXPECT_EQ(route_hash(res), 13807695867672252962ULL);
  EXPECT_DOUBLE_EQ(total_overflow(g, res), 125.0);
  EXPECT_EQ(res.stats.edges_deleted, 2697u);
  EXPECT_EQ(res.stats.edges_locked, 6973u);
}

TEST(IdRouterGolden, Grid10HighSensitivity) {
  const grid::RegionGrid g = make_grid(10, 10, 4);
  const sino::NssModel nss;
  auto nets = random_nets(g, 100, 41);
  for (auto& n : nets) n.si = 0.6;
  const RoutingResult res = IdRouter(g, nss).route(nets);
  EXPECT_DOUBLE_EQ(res.total_wirelength_um, 16550.0);
  EXPECT_EQ(route_hash(res), 10488068979805551661ULL);
  EXPECT_DOUBLE_EQ(total_overflow(g, res), 408.0);
}

TEST(IdRouterGolden, Grid32Seed7) {
  const grid::RegionGrid g = make_grid(32, 32, 12);
  const sino::NssModel nss;
  const RoutingResult res = IdRouter(g, nss).route(random_nets(g, 300, 7, 5));
  EXPECT_DOUBLE_EQ(res.total_wirelength_um, 75220.0);
  EXPECT_EQ(total_edges(res), 3346u);
  EXPECT_EQ(route_hash(res), 12328737626875344377ULL);
  EXPECT_EQ(res.stats.edges_deleted, 5271u);
  EXPECT_EQ(res.stats.edges_locked, 11392u);
}

TEST(IdRouterGolden, PreRoutedHugeNet) {
  const grid::RegionGrid g = make_grid(24, 24);
  const sino::NssModel nss;
  IdRouterOptions opt;
  opt.huge_net_bbox_threshold = 20;
  std::vector<RouterNet> nets(1);
  nets[0].id = 0;
  nets[0].pins = {{0, 0}, {20, 15}, {3, 18}};
  const RoutingResult res = IdRouter(g, nss, opt).route(nets);
  EXPECT_DOUBLE_EQ(res.total_wirelength_um, 850.0);
  EXPECT_EQ(total_edges(res), 38u);
  EXPECT_EQ(route_hash(res), 13553872594035981539ULL);
}

// The Dijkstra search reproduces the seed maze router bit for bit.
TEST(MazeGolden, DijkstraModeMatchesSeed) {
  const MazeOptions opt;
  {
    const grid::RegionGrid g = make_grid();
    const RoutingResult res = MazeRouter(g, opt).route(random_nets(g, 100, 17));
    EXPECT_DOUBLE_EQ(res.total_wirelength_um, 15795.0);
    EXPECT_EQ(total_edges(res), 702u);
    EXPECT_EQ(route_hash(res), 6889147554860165043ULL);
    EXPECT_DOUBLE_EQ(total_overflow(g, res), 2.0);
  }
  {
    const grid::RegionGrid g = make_grid(8, 8, 1);
    const RoutingResult res = MazeRouter(g, opt).route(random_nets(g, 40, 23));
    EXPECT_DOUBLE_EQ(res.total_wirelength_um, 6415.0);
    EXPECT_EQ(total_edges(res), 287u);
    EXPECT_EQ(route_hash(res), 227774984786367575ULL);
  }
  {
    const grid::RegionGrid g = make_grid(32, 32, 12);
    const RoutingResult res = MazeRouter(g, opt).route(random_nets(g, 200, 9, 5));
    EXPECT_DOUBLE_EQ(res.total_wirelength_um, 41860.0);
    EXPECT_EQ(total_edges(res), 1855u);
    EXPECT_EQ(route_hash(res), 16457129758403932149ULL);
  }
}

TEST(MazeGolden, OptionsStillRouteEverything) {
  const grid::RegionGrid g = make_grid(16, 16, 2);
  const auto nets = random_nets(g, 120, 99, 6);
  const RoutingResult res = MazeRouter(g).route(nets);
  for (std::size_t i = 0; i < nets.size(); ++i) {
    EXPECT_TRUE(res.routes[i].connects(nets[i].pins)) << "net " << i;
  }
}

TEST(Maze, OrderDependenceExists) {
  // Routing the same nets in reverse order can change someone's route —
  // the order dependence the paper avoids by choosing ID.
  const grid::RegionGrid g = make_grid(8, 8, 1);  // tiny capacity
  const MazeRouter maze(g);
  auto nets = random_nets(g, 40, 23);
  const RoutingResult fwd = maze.route(nets);
  std::reverse(nets.begin(), nets.end());
  const RoutingResult rev = maze.route(nets);
  std::reverse(nets.begin(), nets.end());
  // Compare total wirelength: not guaranteed different, but with capacity 1
  // and 40 nets collisions are overwhelming; allow equality but check the
  // mechanism ran.
  EXPECT_GT(fwd.total_wirelength_um, 0.0);
  EXPECT_GT(rev.total_wirelength_um, 0.0);
}

}  // namespace
}  // namespace rlcr::router
