#include "core/paths.h"

#include <algorithm>
#include <cstdint>

#include "parallel/parallel_for.h"

namespace rlcr::gsino {

namespace {

constexpr std::int32_t kUnreached = -2;  ///< parent_edge of an unvisited point
constexpr std::int32_t kRoot = -1;       ///< parent_edge of the source

/// Flat working set of one critical-path extraction, reused across the
/// nets a worker handles: the route's distinct points as sorted region
/// ids (a point's local id is its rank), CSR adjacency filled in edge
/// order, BFS state, and the walked-back (region * 2 + dir) keys.
struct PathScratch {
  std::vector<std::size_t> points;
  std::vector<std::int32_t> ends;  ///< local endpoint ids, two per edge
  std::vector<std::int32_t> adj_offset;
  std::vector<std::int32_t> adj_cursor;
  std::vector<std::int32_t> adj_edges;
  std::vector<std::int32_t> parent_edge;
  std::vector<double> dist;  ///< um from the source
  std::vector<std::int32_t> queue;
  std::vector<std::uint64_t> keys;

  /// Local id of a region, or -1 when no route edge touches it.
  std::int32_t local(std::size_t region) const {
    const auto it = std::lower_bound(points.begin(), points.end(), region);
    if (it == points.end() || *it != region) return -1;
    return static_cast<std::int32_t>(it - points.begin());
  }
};

/// BFS from the source over the routed edges, in the order a per-point
/// adjacency list built edge by edge yields; the critical sink is the
/// reachable sink farthest from the source (first one wins ties).
CriticalPath extract(const grid::RegionGrid& grid, const router::RouterNet& net,
                     const router::NetRoute& route, PathScratch& sc) {
  CriticalPath out;
  if (net.pins.size() < 2 || route.edges.empty()) return out;
  const std::size_t edge_count = route.edges.size();

  sc.points.clear();
  for (const router::GridEdge& e : route.edges) {
    sc.points.push_back(grid.index(e.a));
    sc.points.push_back(grid.index(e.b));
  }
  std::sort(sc.points.begin(), sc.points.end());
  sc.points.erase(std::unique(sc.points.begin(), sc.points.end()),
                  sc.points.end());
  const std::int32_t src = sc.local(grid.index(net.pins.front()));
  if (src < 0) return out;
  const std::size_t vcount = sc.points.size();

  sc.ends.resize(2 * edge_count);
  sc.adj_offset.assign(vcount + 1, 0);
  for (std::size_t e = 0; e < edge_count; ++e) {
    const std::int32_t a = sc.local(grid.index(route.edges[e].a));
    const std::int32_t b = sc.local(grid.index(route.edges[e].b));
    sc.ends[2 * e] = a;
    sc.ends[2 * e + 1] = b;
    ++sc.adj_offset[static_cast<std::size_t>(a) + 1];
    ++sc.adj_offset[static_cast<std::size_t>(b) + 1];
  }
  for (std::size_t v = 1; v <= vcount; ++v) {
    sc.adj_offset[v] += sc.adj_offset[v - 1];
  }
  // Filled in edge order, so each point's list is in edge order too.
  sc.adj_cursor.assign(sc.adj_offset.begin(), sc.adj_offset.end() - 1);
  sc.adj_edges.resize(2 * edge_count);
  for (std::size_t i = 0; i < 2 * edge_count; ++i) {
    const auto v = static_cast<std::size_t>(sc.ends[i]);
    sc.adj_edges[static_cast<std::size_t>(sc.adj_cursor[v]++)] =
        static_cast<std::int32_t>(i / 2);
  }

  sc.parent_edge.assign(vcount, kUnreached);
  sc.dist.assign(vcount, 0.0);
  sc.queue.clear();
  sc.queue.push_back(src);
  sc.parent_edge[static_cast<std::size_t>(src)] = kRoot;
  for (std::size_t head = 0; head < sc.queue.size(); ++head) {
    const auto v = static_cast<std::size_t>(sc.queue[head]);
    for (std::int32_t i = sc.adj_offset[v]; i < sc.adj_offset[v + 1]; ++i) {
      const auto ei =
          static_cast<std::size_t>(sc.adj_edges[static_cast<std::size_t>(i)]);
      const std::int32_t a = sc.ends[2 * ei];
      const std::int32_t other =
          a == static_cast<std::int32_t>(v) ? sc.ends[2 * ei + 1] : a;
      const auto uo = static_cast<std::size_t>(other);
      if (sc.parent_edge[uo] != kUnreached) continue;
      sc.dist[uo] = sc.dist[v] + grid.span_um(route.edges[ei].dir());
      sc.parent_edge[uo] = static_cast<std::int32_t>(ei);
      sc.queue.push_back(other);
    }
  }

  std::int32_t best_sink = src;
  double best_dist = -1.0;
  for (std::size_t p = 1; p < net.pins.size(); ++p) {
    const std::int32_t v = sc.local(grid.index(net.pins[p]));
    if (v < 0 || sc.parent_edge[static_cast<std::size_t>(v)] == kUnreached) {
      continue;
    }
    if (sc.dist[static_cast<std::size_t>(v)] > best_dist) {
      best_dist = sc.dist[static_cast<std::size_t>(v)];
      best_sink = v;
    }
  }
  if (best_dist <= 0.0) return out;
  out.length_um = best_dist;

  // Walk back to the source collecting incident-edge counts per
  // (region, dir) as sorted runs of keys, then convert to half-span
  // lengths exactly like the occupancy does for whole trees.
  sc.keys.clear();
  for (std::int32_t v = best_sink; v != src;) {
    const auto ei =
        static_cast<std::size_t>(sc.parent_edge[static_cast<std::size_t>(v)]);
    const auto d = static_cast<std::uint64_t>(route.edges[ei].dir());
    const std::int32_t a = sc.ends[2 * ei];
    const std::int32_t b = sc.ends[2 * ei + 1];
    sc.keys.push_back(sc.points[static_cast<std::size_t>(a)] * 2 + d);
    sc.keys.push_back(sc.points[static_cast<std::size_t>(b)] * 2 + d);
    v = (a == v) ? b : a;
  }
  std::sort(sc.keys.begin(), sc.keys.end());
  for (std::size_t i = 0; i < sc.keys.size();) {
    std::size_t j = i + 1;
    while (j < sc.keys.size() && sc.keys[j] == sc.keys[i]) ++j;
    const auto d = static_cast<grid::Dir>(sc.keys[i] % 2);
    const int count = static_cast<int>(j - i);
    out.refs.push_back(router::NetRegionRef{
        static_cast<std::size_t>(sc.keys[i] / 2), d,
        0.5 * grid.span_um(d) * count});
    i = j;
  }
  return out;
}

}  // namespace

CriticalPath critical_path(const grid::RegionGrid& grid,
                           const router::RouterNet& net,
                           const router::NetRoute& route) {
  PathScratch scratch;
  return extract(grid, net, route, scratch);
}

std::vector<CriticalPath> critical_paths(
    const grid::RegionGrid& grid, const std::vector<router::RouterNet>& nets,
    const std::vector<router::NetRoute>& routes, int threads) {
  std::vector<CriticalPath> out(nets.size());
  std::vector<PathScratch> scratch(
      static_cast<std::size_t>(parallel::resolve_threads(threads)));
  constexpr std::size_t kNetGrain = 256;  // nets per chunk (fixed)
  parallel::parallel_for(
      nets.size(), kNetGrain, threads,
      [&](std::size_t begin, std::size_t end, int worker) {
        PathScratch& sc = scratch[static_cast<std::size_t>(worker)];
        for (std::size_t n = begin; n < end; ++n) {
          out[n] = extract(grid, nets[n], routes[n], sc);
        }
      });
  return out;
}

}  // namespace rlcr::gsino
