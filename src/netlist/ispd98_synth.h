// ISPD'98-class instance generation and discovery.
//
// The paper evaluates on ibm01-ibm06 of the ISPD'98 suite. The genuine
// circuits are not redistributable, so this module provides the six size
// classes two ways behind one entry point (make_ispd98_instance):
//
//   1. When RLCR_ISPD98_DIR points at a directory holding the real files
//      (<dir>/ibm01.netD [+ ibm01.are], with .net/<name>/ layouts also
//      probed — see ispd98_netd_path), the netD circuit is parsed
//      (netlist/ispd98.h), given the class's chip outline, and placed by
//      the built-in min-cut bisection placer.
//
//   2. Otherwise a deterministic synthetic instance is generated whose
//      module/net/pin/pad counts are the published statistics of the real
//      circuit and whose structure follows the suite's shape: cell-backed
//      pins (every pin references a module, exactly like the parser's
//      output), a heavy-2-pin degree distribution calibrated per class to
//      the published pins/nets mean, pads on the chip periphery with
//      pad-terminated I/O nets in proportion to the published pad ratio,
//      and clustered cell placement standing in for DRAGON locality.
//      Generation is deterministic in the spec: every stochastic choice
//      draws from per-purpose Xoshiro256 streams split from the class
//      seed (the RNG-stream discipline of netlist/synthetic.cpp), and
//      tests pin a structural fingerprint so the instances cannot drift
//      across PRs.
//
// Routing-grid shapes are finer than the proxy tiers (tens of thousands
// of regions for the large classes) with per-region capacities chosen to
// land mean track demand in the 60-90% routable regime.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "grid/region_grid.h"
#include "netlist/ispd98.h"
#include "netlist/netlist.h"

namespace rlcr::netlist {

/// One ibm size class: published suite statistics plus the routing fabric
/// the harness runs it on.
struct Ispd98ClassSpec {
  std::string name;      ///< "ibm01" .. "ibm06"
  std::size_t modules = 0;  ///< total modules (cells + pads)
  std::size_t nets = 0;
  std::size_t pins = 0;
  std::size_t pads = 0;
  std::int32_t grid_cols = 64;
  std::int32_t grid_rows = 64;
  double chip_w_um = 1000.0;
  double chip_h_um = 1000.0;
  int h_capacity = 12;
  int v_capacity = 10;
  std::uint64_t seed = 1;
  /// The shrink this spec was produced at (ispd98_classes' argument).
  /// Genuine-file substitution only applies at 1.0: a scaled fabric under
  /// the full-size real circuit would inflate per-region demand by
  /// ~1/scale, so scaled specs always generate the (correctly scaled)
  /// synthetic stand-in.
  double scale = 1.0;

  double mean_degree() const {
    return nets == 0 ? 0.0
                     : static_cast<double>(pins) / static_cast<double>(nets);
  }
  double pad_ratio() const {
    return modules == 0 ? 0.0
                        : static_cast<double>(pads) / static_cast<double>(modules);
  }
  /// The routing fabric for this class (region dims = chip / grid).
  grid::RegionGridSpec grid_spec() const;
};

/// The six calibrated classes. `scale` shrinks density-preservingly like
/// netlist::ibm_suite: counts scale by `scale`, grid and chip by
/// sqrt(scale), so per-region demand — and hence the routability regime —
/// stays representative (used by tests and the CI smoke tier).
std::vector<Ispd98ClassSpec> ispd98_classes(double scale = 1.0);

/// Class by name, or nullptr.
const Ispd98ClassSpec* find_ispd98_class(
    const std::vector<Ispd98ClassSpec>& classes, const std::string& name);

/// Generate the synthetic stand-in for one class. Deterministic in the
/// spec; pins are cell-backed and already materialized.
Netlist generate_ispd98(const Ispd98ClassSpec& spec);

/// Structural fingerprint of a netlist (outline, cells with positions and
/// pad flags, nets with cell references and pin positions), platform-
/// stable via util/hash.h. Tests pin generate_ispd98(ibm01) to a golden
/// value so the generator is locked across PRs.
std::uint64_t netlist_fingerprint(const Netlist& nl);

/// First existing candidate netD path for a class under `dir`
/// (<dir>/<name>.netD, .net, and <dir>/<name>/<name>.netD, .net), or ""
/// when none exists.
std::string ispd98_netd_path(const std::string& dir, const std::string& name);

/// A ready-to-route instance of one class.
struct Ispd98Instance {
  Netlist design;
  grid::RegionGridSpec gspec;
  bool real = false;      ///< parsed from RLCR_ISPD98_DIR
  std::string source;     ///< "synthetic" or the netD path loaded
  Ispd98Stats parse_stats;  ///< populated for real files only
};

/// Build an instance: the genuine circuit when RLCR_ISPD98_DIR holds it
/// (parsed, outlined, min-cut placed), the synthetic stand-in otherwise.
Ispd98Instance make_ispd98_instance(const Ispd98ClassSpec& spec);

}  // namespace rlcr::netlist
