// Per-region track accounting and the routing-area model.
//
// Track utilization follows the paper's Eq. (2) terminology:
//   HU(R) = Nns + Nss   (net segments + shields on horizontal tracks)
//   HD(R) = HU(R) / HC(R)
//   HOFR(R) = max(0, HU - HC) / HC   (relative overflow)
// and symmetrically for vertical tracks.
//
// Routing area (the paper's Table 3 metric, "product of the maximum row and
// column lengths") is modeled by letting each region expand when its track
// requirement exceeds capacity: extra vertical tracks widen a region, extra
// horizontal tracks make it taller. The chip's routing width is the longest
// row of (possibly widened) regions; its height the tallest column.
#pragma once

#include <cstddef>
#include <vector>

#include "grid/region_grid.h"

namespace rlcr::grid {

/// Mutable track-usage state over its own copy of a RegionGrid (so it
/// outlives its problem). Segment and shield counts are doubles so the
/// router can work with the fractional shield *estimates* of Eq. (3)
/// before any SINO solution exists; each is one flat array per direction.
class CongestionMap {
 public:
  explicit CongestionMap(const RegionGrid& grid);

  const RegionGrid& grid() const { return grid_; }

  double segments(std::size_t region, Dir d) const {
    return seg_[static_cast<std::size_t>(d)][region];
  }
  double shields(std::size_t region, Dir d) const {
    return shield_[static_cast<std::size_t>(d)][region];
  }
  void set_segments(std::size_t region, Dir d, double v) {
    seg_[static_cast<std::size_t>(d)][region] = v;
  }
  void set_shields(std::size_t region, Dir d, double v) {
    shield_[static_cast<std::size_t>(d)][region] = v;
  }
  void add_segments(std::size_t region, Dir d, double delta) {
    seg_[static_cast<std::size_t>(d)][region] += delta;
  }
  void add_shields(std::size_t region, Dir d, double delta) {
    shield_[static_cast<std::size_t>(d)][region] += delta;
  }

  /// HU / VU: segments + shields.
  double utilization(std::size_t region, Dir d) const {
    return segments(region, d) + shields(region, d);
  }
  /// HD / VD: utilization over capacity.
  double density(std::size_t region, Dir d) const {
    return utilization(region, d) / grid_.capacity(d);
  }
  /// HOFR / VOFR: relative overflow (0 when under capacity).
  double relative_overflow(std::size_t region, Dir d) const {
    const double over = utilization(region, d) - grid_.capacity(d);
    return over > 0.0 ? over / grid_.capacity(d) : 0.0;
  }

  void clear();

  /// Maximum density over all regions and directions.
  double max_density() const;
  /// Sum of absolute overflow (tracks beyond capacity) over all regions.
  double total_overflow() const;
  /// Total shield count over all regions.
  double total_shields() const;

  /// Heap bytes of the count arrays.
  std::size_t owned_bytes() const {
    return (seg_[0].capacity() + seg_[1].capacity() + shield_[0].capacity() +
            shield_[1].capacity()) *
           sizeof(double);
  }

 private:
  RegionGrid grid_;
  std::vector<double> seg_[2];
  std::vector<double> shield_[2];
};

/// Routing-area result (Table 3 metric).
struct RoutingArea {
  double width_um = 0.0;   ///< maximum row length
  double height_um = 0.0;  ///< maximum column length
  double area_um2() const { return width_um * height_um; }
};

/// Expansion-based routing area: regions over capacity grow proportionally.
RoutingArea compute_routing_area(const CongestionMap& cmap);

}  // namespace rlcr::grid
