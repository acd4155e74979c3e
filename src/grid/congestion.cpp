#include "grid/congestion.h"

#include <algorithm>

namespace rlcr::grid {

CongestionMap::CongestionMap(const RegionGrid& grid) : grid_(grid) {
  for (auto& v : seg_) v.assign(grid.region_count(), 0.0);
  for (auto& v : shield_) v.assign(grid.region_count(), 0.0);
}

void CongestionMap::clear() {
  for (auto& v : seg_) std::fill(v.begin(), v.end(), 0.0);
  for (auto& v : shield_) std::fill(v.begin(), v.end(), 0.0);
}

double CongestionMap::max_density() const {
  double best = 0.0;
  for (std::size_t r = 0; r < grid_.region_count(); ++r) {
    for (Dir d : kBothDirs) best = std::max(best, density(r, d));
  }
  return best;
}

double CongestionMap::total_overflow() const {
  double acc = 0.0;
  for (std::size_t r = 0; r < grid_.region_count(); ++r) {
    for (Dir d : kBothDirs) {
      const double over = utilization(r, d) - grid_.capacity(d);
      if (over > 0.0) acc += over;
    }
  }
  return acc;
}

double CongestionMap::total_shields() const {
  double acc = 0.0;
  for (std::size_t r = 0; r < grid_.region_count(); ++r) {
    for (Dir d : kBothDirs) {
      const double s = shields(r, d);
      if (s != 0.0) acc += s;
    }
  }
  return acc;
}

RoutingArea compute_routing_area(const CongestionMap& cmap) {
  const RegionGrid& g = cmap.grid();
  RoutingArea out;

  // A region needing more vertical tracks than VC widens by the ratio;
  // more horizontal tracks than HC make it taller.
  for (std::int32_t row = 0; row < g.rows(); ++row) {
    double row_len = 0.0;
    for (std::int32_t col = 0; col < g.cols(); ++col) {
      const std::size_t r = g.index({col, row});
      const double need = cmap.utilization(r, Dir::kVertical);
      const double ratio = std::max(1.0, need / g.capacity(Dir::kVertical));
      row_len += g.region_w_um() * ratio;
    }
    out.width_um = std::max(out.width_um, row_len);
  }
  for (std::int32_t col = 0; col < g.cols(); ++col) {
    double col_len = 0.0;
    for (std::int32_t row = 0; row < g.rows(); ++row) {
      const std::size_t r = g.index({col, row});
      const double need = cmap.utilization(r, Dir::kHorizontal);
      const double ratio = std::max(1.0, need / g.capacity(Dir::kHorizontal));
      col_len += g.region_h_um() * ratio;
    }
    out.height_um = std::max(out.height_um, col_len);
  }
  return out;
}

}  // namespace rlcr::grid
