// Synthetic IBM-scale benchmark generation.
//
// The paper evaluates on ISPD'98/IBM circuits ibm01-ibm06 placed by DRAGON;
// neither the circuits nor DRAGON are redistributable here, so this module
// generates placed netlists calibrated to the published statistics of those
// circuits: signal-net counts (back-derived from the paper's Table 1), chip
// outlines (Table 3's ID+NO areas), routing-grid dimensions and per-region
// track capacities in the style of the ISPD98-derived global-routing suite.
// Net degree follows the heavy-2-pin distribution typical of the IBM suite;
// pin locations mix local (clustered) and global (chip-span) nets plus a few
// congestion hotspots, which is what gives global routing its non-uniform
// density structure.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "grid/region_grid.h"
#include "netlist/netlist.h"

namespace rlcr::netlist {

/// Parameters of one synthetic circuit. Defaults produce an ibm01-like
/// instance; `ibm_suite()` returns the six calibrated instances.
struct SyntheticSpec {
  std::string name = "synth";
  std::size_t num_nets = 13056;
  std::int32_t grid_cols = 64;  ///< routing regions per row
  std::int32_t grid_rows = 64;  ///< routing regions per column
  double chip_w_um = 1533.0;
  double chip_h_um = 1824.0;
  int h_capacity = 14;  ///< horizontal tracks per region
  int v_capacity = 12;  ///< vertical tracks per region

  double local_sigma_regions = 2.6;   ///< pin spread of local nets (region units)
  double global_net_fraction = 0.05;  ///< nets spanning a large chip fraction
  double hotspot_fraction = 0.15;     ///< nets centred on congestion hotspots
  int hotspot_count = 4;
  double hotspot_sigma_regions = 7.0;

  std::uint64_t seed = 1;

  /// Uniformly scales the net count (for fast tests: scale = 0.05 gives a
  /// few hundred nets with the same statistical structure).
  double scale = 1.0;

  /// The routing fabric for this spec (region dims = chip / grid).
  grid::RegionGridSpec grid_spec() const;
};

/// Generate a placed netlist from a spec. Deterministic in (spec, seed).
Netlist generate(const SyntheticSpec& spec);

/// The six calibrated ibm01-ibm06 stand-ins used by the experiment benches.
/// `scale` uniformly shrinks every circuit (1.0 = full published size).
std::vector<SyntheticSpec> ibm_suite(double scale = 1.0);

/// A small fully-deterministic instance for unit tests: `nets` nets on an
/// 8x8 grid with modest capacities.
SyntheticSpec tiny_spec(std::size_t nets = 200, std::uint64_t seed = 7);

}  // namespace rlcr::netlist
