#include "router/occupancy.h"

#include <unordered_map>

namespace rlcr::router {

Occupancy::Occupancy(const grid::RegionGrid& grid,
                     const std::vector<NetRoute>& routes)
    : grid_(grid) {
  for (auto& v : by_region_) v.resize(grid.region_count());
  by_net_.resize(routes.size());

  // Count incident edges per (region, dir) for each net, then convert to
  // presence + length.
  std::unordered_map<std::uint64_t, int> incident;  // region*2+dir -> count
  for (std::size_t n = 0; n < routes.size(); ++n) {
    incident.clear();
    for (const GridEdge& e : routes[n].edges) {
      const auto d = static_cast<std::uint64_t>(e.dir());
      incident[grid.index(e.a) * 2 + d] += 1;
      incident[grid.index(e.b) * 2 + d] += 1;
    }
    for (const auto& [key, count] : incident) {
      const std::size_t region = key / 2;
      const auto d = static_cast<grid::Dir>(key % 2);
      const double len = 0.5 * grid.span_um(d) * count;
      by_region_[key % 2][region].push_back(
          Segment{static_cast<std::int32_t>(n), len});
      by_net_[n].push_back(NetRegionRef{region, d, len});
    }
  }
}

double Occupancy::net_length_um(std::size_t net_index) const {
  double acc = 0.0;
  for (const NetRegionRef& r : by_net_[net_index]) acc += r.length_um;
  return acc;
}

void Occupancy::fill_segments(grid::CongestionMap& cmap) const {
  // Unoccupied regions keep the map's value-initialized 0.0.
  for (int d = 0; d < 2; ++d) {
    for (std::size_t r = 0; r < grid_.region_count(); ++r) {
      const auto& segs = by_region_[static_cast<std::size_t>(d)][r];
      if (segs.empty()) continue;
      cmap.set_segments(r, static_cast<grid::Dir>(d),
                        static_cast<double>(segs.size()));
    }
  }
}

}  // namespace rlcr::router
