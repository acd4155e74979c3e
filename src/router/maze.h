// Sequential maze (Dijkstra) router: the order-dependent baseline.
//
// The paper motivates ID by its independence from net ordering (Section
// 3.1); this router is the contrast case for the ablation bench. Each net
// is decomposed into 2-pin connections along its RSMT topology and routed
// one net at a time with congestion-aware edge costs; earlier nets grab
// cheap resources and later nets pay for it.
//
// The searches share epoch-stamped persistent scratch (dist/prev/visited
// valid only under the current stamp), seed the multi-source wavefront from
// the routed tree's frontier vertices only, and commit track usage through
// stamped first-touch vectors — no per-connection allocation, no per-net
// hash sets.
#pragma once

#include <cstdint>

#include "grid/region_grid.h"
#include "router/route_types.h"

namespace rlcr::router {

struct MazeOptions {
  double congestion_penalty = 4.0;  ///< cost multiplier per unit overflow
  std::int32_t bbox_margin = 8;     ///< search window inflation (regions)
};

class MazeRouter {
 public:
  MazeRouter(const grid::RegionGrid& grid, const MazeOptions& options = {});

  /// Route nets in input order (the order-dependence is the point).
  RoutingResult route(const std::vector<RouterNet>& nets) const;

 private:
  const grid::RegionGrid* grid_;
  MazeOptions options_;
};

}  // namespace rlcr::router
