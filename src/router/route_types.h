// Global-routing input/output types shared by the ID and maze routers.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"
#include "grid/region_grid.h"

namespace rlcr::router {

/// A net as the global router sees it: pins mapped to routing regions
/// (deduplicated), plus the sensitivity rate used for shield estimation.
struct RouterNet {
  std::int32_t id = -1;            ///< caller's net identifier
  std::vector<geom::Point> pins;   ///< distinct region coordinates; [0]=source
  double si = 0.0;                 ///< sensitivity rate S_i
};

/// An edge between two adjacent regions; canonical form has a <= b.
struct GridEdge {
  geom::Point a, b;

  grid::Dir dir() const {
    return a.y == b.y ? grid::Dir::kHorizontal : grid::Dir::kVertical;
  }
  friend constexpr bool operator==(const GridEdge&, const GridEdge&) = default;
};

/// Canonicalize so that a <= b (lexicographic).
inline GridEdge make_edge(geom::Point p, geom::Point q) {
  return (q < p) ? GridEdge{q, p} : GridEdge{p, q};
}

/// Hash for canonical grid edges. The combiner is order-sensitive and runs
/// the mix through a SplitMix64 finalizer, unlike the earlier
/// `h(a)*1000003 ^ h(b)` local helpers, whose XOR made symmetric pairs and
/// axis-translated edges collide systematically.
struct GridEdgeHash {
  std::size_t operator()(const GridEdge& e) const noexcept {
    const std::hash<geom::Point> h;
    std::uint64_t z = static_cast<std::uint64_t>(h(e.a));
    z ^= static_cast<std::uint64_t>(h(e.b)) + 0x9e3779b97f4a7c15ULL + (z << 6) +
         (z >> 2);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }
};

/// The routed tree of one net over the region graph.
struct NetRoute {
  std::int32_t net_id = -1;
  std::vector<GridEdge> edges;

  /// Wire length: each region-boundary crossing spans half of each adjacent
  /// region, i.e. one full region pitch in its direction.
  double wirelength_um(const grid::RegionGrid& grid) const;

  /// True if `edges` connect all of `pins` (single component); used by
  /// tests and by the flow's internal sanity checks.
  bool connects(const std::vector<geom::Point>& pins) const;
};

struct RoutingStats {
  std::size_t edges_initial = 0;
  std::size_t edges_deleted = 0;
  std::size_t edges_locked = 0;
  std::size_t reinserts = 0;
  std::size_t prerouted_nets = 0;
  /// Nets whose base topology silently degraded from iterated 1-Steiner to
  /// plain RMST because their pin count exceeds
  /// rsmt::SteinerOptions::max_pins_exact. Counted once per non-trivial net
  /// during the serial sizing pass, so the value is deterministic and
  /// independent of tree-cache hits or thread count.
  std::size_t rsmt_fallback_nets = 0;
  /// Always 0: the deletion loop no longer speculates. Kept only because
  /// the repository benchmark still reads them for its
  /// router.spec_commit_ratio layer; to be dropped with that layer.
  std::size_t spec_attempted = 0;
  std::size_t spec_committed = 0;
  double runtime_s = 0.0;
};

struct RoutingResult {
  std::vector<NetRoute> routes;  ///< parallel to the input net vector
  double total_wirelength_um = 0.0;
  RoutingStats stats;
};

/// FNV-1a over every net's (id, edge count, edge list): the golden-seed
/// regression hash pinned by the router/integration/session tests, and the
/// fidelity oracle of the persistent artifact store (store/serial.cpp
/// embeds it at save time and re-verifies it after load). Hash values are
/// platform-stable (util/hash.h folds little-endian).
std::uint64_t route_hash(const RoutingResult& res);

}  // namespace rlcr::router
