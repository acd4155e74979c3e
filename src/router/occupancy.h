// Region occupancy: which nets cross which regions in which direction, and
// how much wire each contributes. This is the bridge from global routing to
// the per-region SINO problems of Phase II and to LSK evaluation (Eq. 1).
//
// Conventions (consistent across the whole library):
//   - A net is "present" in (region, direction) when its route has at least
//     one boundary edge of that direction incident to the region; it then
//     occupies one track of that direction there.
//   - Its wire length inside the region is half the region span per
//     incident edge: a through-crossing (2 edges) spans the whole region, a
//     terminating segment (1 edge) half of it.
#pragma once

#include <cstdint>
#include <vector>

#include "grid/congestion.h"
#include "grid/region_grid.h"
#include "router/route_types.h"

namespace rlcr::router {

/// One net's presence in one (region, direction).
struct Segment {
  std::int32_t net_index = -1;  ///< index into the RouterNet/NetRoute vectors
  double length_um = 0.0;
};

/// A (region, direction, length) reference from the net's point of view.
struct NetRegionRef {
  std::size_t region = 0;
  grid::Dir dir = grid::Dir::kHorizontal;
  double length_um = 0.0;
};

class Occupancy {
 public:
  Occupancy(const grid::RegionGrid& grid, const std::vector<NetRoute>& routes);

  /// Nets occupying tracks of direction d in a region (empty for regions
  /// no route touches).
  const std::vector<Segment>& segments(std::size_t region, grid::Dir d) const {
    return by_region_[static_cast<std::size_t>(d)][region];
  }

  /// All (region, dir, length) entries of one net.
  const std::vector<NetRegionRef>& net_refs(std::size_t net_index) const {
    return by_net_[net_index];
  }

  std::size_t net_count() const { return by_net_.size(); }

  /// Total routed length of a net (sum over its refs).
  double net_length_um(std::size_t net_index) const;

  /// Write segment counts into a freshly constructed (all-zero) congestion
  /// map; shield counts are untouched, and unoccupied regions are left at
  /// the map's zero default. Not a reset: reusing a map across routings
  /// would keep stale counts in regions the new routing misses.
  void fill_segments(grid::CongestionMap& cmap) const;

 private:
  std::vector<std::vector<Segment>> by_region_[2];
  std::vector<std::vector<NetRegionRef>> by_net_;
};

}  // namespace rlcr::router
