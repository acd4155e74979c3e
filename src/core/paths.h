// Critical source->sink path extraction.
//
// The crosstalk constraint is per sink (Formulation 1), so the LSK sum of
// Eq. (1) runs over the regions of a source->sink path — not over the whole
// routed tree. A multi-pin net's branches to other sinks contribute nothing
// to a given sink's noise. This module extracts, for every net, the
// longest source->sink path in its routed tree (the "critical" path: with
// Ki <= Kth enforced per region, the longest path carries the largest LSK
// bound), expressed as the same per-(region, direction) length references
// the occupancy uses.
#pragma once

#include <vector>

#include "grid/region_grid.h"
#include "router/occupancy.h"
#include "router/route_types.h"

namespace rlcr::gsino {

/// The critical path of one net.
struct CriticalPath {
  std::vector<router::NetRegionRef> refs;  ///< per-(region, dir) lengths
  double length_um = 0.0;                  ///< total path wire length
};

/// Critical path of a single routed net. Returns an empty path for nets
/// with fewer than two pins or an empty route. The refs are sorted by
/// (region, dir), one per pair.
CriticalPath critical_path(const grid::RegionGrid& grid,
                           const router::RouterNet& net,
                           const router::NetRoute& route);

/// All nets at once (parallel vectors), as fixed chunks of nets on the
/// shared pool (src/parallel) with per-worker scratch. Each net's path
/// depends on that net alone, so the output is bit-identical at any
/// `threads` value (0 = auto, 1 = serial on the calling thread).
std::vector<CriticalPath> critical_paths(
    const grid::RegionGrid& grid, const std::vector<router::RouterNet>& nets,
    const std::vector<router::NetRoute>& routes, int threads);

}  // namespace rlcr::gsino
