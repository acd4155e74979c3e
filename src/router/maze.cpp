#include "router/maze.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <vector>

#include "obs/trace.h"
#include "rsmt/steiner.h"
#include "steiner/tree_builder.h"
#include "steiner/tree_cache.h"
#include "util/stopwatch.h"

namespace rlcr::router {

namespace {

/// Priority-queue entry: (key, vertex). Ordered lexicographically, so equal
/// keys deterministically pop the smaller global vertex id — row-major
/// (y, x), the same order the historical window-local ids gave.
using QE = std::pair<double, std::int32_t>;

}  // namespace

MazeRouter::MazeRouter(const grid::RegionGrid& grid, const MazeOptions& options)
    : grid_(&grid), options_(options) {}

RoutingResult MazeRouter::route(const std::vector<RouterNet>& nets) const {
  util::Stopwatch watch;
  RoutingResult result;
  result.routes.resize(nets.size());

  const std::size_t vcount = grid_->region_count();

  // Shared usage per (region, dir): tracks consumed so far.
  std::vector<double> usage[2];
  for (auto& u : usage) u.assign(vcount, 0.0);

  // Persistent search scratch, allocated once and reused across every 2-pin
  // connection of every net. Validity is tracked by epoch stamps instead of
  // O(window) clears: dist/prev are live only where dist_mark matches the
  // current search epoch, membership in the net's routed tree only where
  // reached_mark matches the net epoch. Vertices are global region indices
  // (row-major), so no per-net local remapping is needed.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(vcount, kInf);
  std::vector<std::int32_t> prev(vcount, -1);
  std::vector<std::uint32_t> dist_mark(vcount, 0);
  std::vector<std::uint32_t> reached_mark(vcount, 0);
  std::vector<std::uint32_t> present_mark(vcount * 2, 0);
  std::uint32_t search_epoch = 0, net_epoch = 0, present_epoch = 0;
  std::vector<std::int32_t> reached_list;
  std::vector<QE> pq;  // min-heap via std::push_heap/pop_heap + greater<>

  // Decomposition topologies come from the tree builder; the cache
  // collapses identical pin configurations across nets.
  steiner::TreeCache tree_cache;
  const steiner::TreeBuilder tree_builder({}, &tree_cache);

  auto edge_cost = [&](geom::Point a, geom::Point b) {
    const grid::Dir d = (a.y == b.y) ? grid::Dir::kHorizontal : grid::Dir::kVertical;
    const int di = static_cast<int>(d);
    const double cap = grid_->capacity(d);
    const double u =
        0.5 * (usage[di][grid_->index(a)] + usage[di][grid_->index(b)]);
    const double over = std::max(0.0, (u + 1.0 - cap) / cap);
    return 1.0 + options_.congestion_penalty * over;
  };

  for (std::size_t n = 0; n < nets.size(); ++n) {
    const RouterNet& net = nets[n];
    NetRoute& route = result.routes[n];
    route.net_id = net.id;
    if (net.pins.size() < 2) continue;
    RLCR_TRACE_SPAN(net_span, "maze.net", "router");
    net_span.arg("pins", static_cast<double>(net.pins.size()));

    geom::Rect window;
    for (const geom::Point& p : net.pins) window.expand(p);
    window = window.inflated(options_.bbox_margin, grid_->cols(), grid_->rows());

    ++net_epoch;
    reached_list.clear();
    auto reach = [&](std::int32_t v) {
      reached_mark[static_cast<std::size_t>(v)] = net_epoch;
      reached_list.push_back(v);
    };
    auto is_reached = [&](std::int32_t v) {
      return reached_mark[static_cast<std::size_t>(v)] == net_epoch;
    };
    reach(static_cast<std::int32_t>(grid_->index(net.pins[0])));

    std::vector<GridEdge>& tree_edges = route.edges;  // built in place

    // Route 2-pin connections along the RSMT topology, connecting each new
    // terminal to the set of already-reached vertices.
    const std::shared_ptr<const rsmt::Tree> topo_ptr =
        tree_builder.build(net.pins);
    const rsmt::Tree& topo = *topo_ptr;
    for (const auto& [ta, tb] : topo.edges) {
      const geom::Point target_a = topo.nodes[static_cast<std::size_t>(ta)];
      const geom::Point target_b = topo.nodes[static_cast<std::size_t>(tb)];
      // Pick whichever endpoint is not yet reached as the goal; if both are
      // unreached, route between them directly.
      geom::Point goal = target_b;
      if (is_reached(static_cast<std::int32_t>(grid_->index(target_b))) &&
          !is_reached(static_cast<std::int32_t>(grid_->index(target_a)))) {
        goal = target_a;
      } else if (is_reached(static_cast<std::int32_t>(grid_->index(target_b))) &&
                 is_reached(static_cast<std::int32_t>(grid_->index(target_a)))) {
        continue;  // both endpoints already in the tree
      }
      const std::int32_t goal_v = static_cast<std::int32_t>(grid_->index(goal));

      // Multi-source shortest path from the routed tree to `goal`, seeded
      // frontier-only: interior tree vertices (all four neighbours already
      // reached) can never start an improving path, so only boundary
      // vertices enter the queue. All reached vertices still get dist 0 so
      // relaxations into the tree are rejected.
      ++search_epoch;
      pq.clear();
      for (const std::int32_t v : reached_list) {
        dist[static_cast<std::size_t>(v)] = 0.0;
        prev[static_cast<std::size_t>(v)] = -1;
        dist_mark[static_cast<std::size_t>(v)] = search_epoch;
      }
      for (const std::int32_t v : reached_list) {
        const geom::Point pv = grid_->at(static_cast<std::size_t>(v));
        const geom::Point nbrs[4] = {{pv.x - 1, pv.y}, {pv.x + 1, pv.y},
                                     {pv.x, pv.y - 1}, {pv.x, pv.y + 1}};
        for (const geom::Point& pn : nbrs) {
          if (!window.contains(pn)) continue;
          if (!is_reached(static_cast<std::int32_t>(grid_->index(pn)))) {
            pq.emplace_back(0.0, v);
            break;
          }
        }
      }
      std::make_heap(pq.begin(), pq.end(), std::greater<>{});

      while (!pq.empty()) {
        const auto [kv, v] = pq.front();
        std::pop_heap(pq.begin(), pq.end(), std::greater<>{});
        pq.pop_back();
        const geom::Point pv = grid_->at(static_cast<std::size_t>(v));
        if (kv > dist[static_cast<std::size_t>(v)]) continue;
        if (v == goal_v) break;
        const geom::Point nbrs[4] = {{pv.x - 1, pv.y}, {pv.x + 1, pv.y},
                                     {pv.x, pv.y - 1}, {pv.x, pv.y + 1}};
        const double dv = dist[static_cast<std::size_t>(v)];
        for (const geom::Point& pn : nbrs) {
          if (!window.contains(pn)) continue;
          const auto u = static_cast<std::size_t>(grid_->index(pn));
          const double cost = dv + edge_cost(pv, pn);
          if (dist_mark[u] != search_epoch) {
            dist_mark[u] = search_epoch;
            dist[u] = kInf;
          }
          if (cost < dist[u]) {
            dist[u] = cost;
            prev[u] = v;
            pq.emplace_back(cost, static_cast<std::int32_t>(u));
            std::push_heap(pq.begin(), pq.end(), std::greater<>{});
          }
        }
      }
      // Backtrack, marking the path reached and collecting edges. Each
      // backtracked vertex joins the tree exactly once, so the edges are
      // unique without any hash-set dedup.
      std::int32_t v = goal_v;
      while (prev[static_cast<std::size_t>(v)] >= 0 && !is_reached(v)) {
        const std::int32_t p = prev[static_cast<std::size_t>(v)];
        tree_edges.push_back(make_edge(grid_->at(static_cast<std::size_t>(v)),
                                       grid_->at(static_cast<std::size_t>(p))));
        reach(v);
        v = p;
      }
      if (!is_reached(goal_v)) reach(goal_v);
    }

    // Deterministic order for downstream consumers.
    std::sort(route.edges.begin(), route.edges.end(),
              [](const GridEdge& x, const GridEdge& y) {
                if (x.a != y.a) return x.a < y.a;
                return x.b < y.b;
              });

    // Commit usage: one track per (region, dir) the net is present in
    // (stamped first-touch instead of a per-net hash set).
    ++present_epoch;
    for (const GridEdge& e : route.edges) {
      const int d = static_cast<int>(e.dir());
      for (const geom::Point p : {e.a, e.b}) {
        const std::size_t key = grid_->index(p) * 2 + static_cast<unsigned>(d);
        if (present_mark[key] != present_epoch) {
          present_mark[key] = present_epoch;
          usage[d][grid_->index(p)] += 1.0;
        }
      }
    }
    result.total_wirelength_um += route.wirelength_um(*grid_);
  }
  result.stats.runtime_s = watch.seconds();
  return result;
}

}  // namespace rlcr::router
