// Scenario-matrix driver: campaigns of (circuit class x scenario kind)
// cells over shared routing artifacts.
//
// A cell is one what-if campaign on one ISPD'98 class:
//
//   kBoundSweep  — GSINO re-solved at a ladder of crosstalk bounds
//                  through one FlowSession; every re-solve past the first
//                  reuses the Phase I artifact (budget/solve/refine only).
//   kTechSweep   — the three flows at multi-corner `params.tech` points
//                  (typical / slow / fast); within each corner ID+NO and
//                  iSINO share one routing artifact under the fairness
//                  rule.
//   kDeltaChain  — a seeded random-ECO chain driven through
//                  FlowSession::apply_delta (src/scenario/delta.h): each
//                  step routes the mutated problem and re-solves only
//                  dirty regions.
//   kEcoSlice    — a structured ECO: a slice of existing nets re-pinned
//                  into one window of the chip, applied as a single
//                  delta.
//
// Every cell reports the work it avoided (cache hits, reused region
// solves) and carries its own differential check: the
// final state is recomputed from scratch in a fresh session and must
// match bit for bit (`fingerprint_match`). tools/check_scenarios.py
// gates CI on matrix completeness, compute_avoided > 0 for the kinds
// that claim reuse, and fingerprint_match == 1 everywhere.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/params.h"
#include "grid/region_grid.h"
#include "netlist/netlist.h"

namespace rlcr::store {
class ArtifactStore;
}  // namespace rlcr::store

namespace rlcr::scenario {

enum class ScenarioKind { kBoundSweep, kTechSweep, kDeltaChain, kEcoSlice };

/// Stable snake_case name ("bound_sweep", ...) used in bench counters,
/// CLI output, and check_scenarios.py.
const char* kind_name(ScenarioKind kind);

constexpr ScenarioKind kAllScenarioKinds[] = {
    ScenarioKind::kBoundSweep, ScenarioKind::kTechSweep,
    ScenarioKind::kDeltaChain, ScenarioKind::kEcoSlice};

/// One (class, kind) campaign result.
struct ScenarioCell {
  std::string circuit;
  ScenarioKind kind = ScenarioKind::kBoundSweep;
  std::size_t runs = 0;  ///< flow results produced across the campaign
  /// FNV-1a over every run's state fingerprint, in campaign order — one
  /// number pinning the whole cell bit for bit.
  std::uint64_t fingerprint = 0;
  /// Work incrementality avoided: stage cache hits, plus reused region
  /// solves for the delta kinds. Zero means the campaign recomputed
  /// everything.
  std::size_t compute_avoided = 0;
  /// 1 iff the campaign's final state matched a from-scratch recompute in
  /// a fresh session (the cell-internal differential check).
  std::size_t fingerprint_match = 0;
  std::size_t total_nets = 0;
  double seconds = 0.0;
};

struct MatrixOptions {
  /// Density-preserving shrink of the ISPD'98 classes (1.0 = published
  /// sizes), as in netlist::ispd98_classes.
  double scale = 1.0;
  /// Indices into ispd98_classes() (0 = ibm01 ... 5 = ibm06).
  std::vector<int> circuits = {0, 1, 2, 3, 4, 5};
  std::vector<ScenarioKind> kinds = {
      ScenarioKind::kBoundSweep, ScenarioKind::kTechSweep,
      ScenarioKind::kDeltaChain, ScenarioKind::kEcoSlice};
  gsino::GsinoParams params;
  /// Optional persistent store, forwarded into every cell's sessions.
  std::shared_ptr<store::ArtifactStore> store;
};

class ScenarioMatrix {
 public:
  explicit ScenarioMatrix(MatrixOptions options)
      : options_(std::move(options)) {}

  /// One cell per (circuit, kind), in circuit-major order. Each class's
  /// instance is materialized once and shared by its kinds.
  std::vector<ScenarioCell> run() const;

  /// One campaign over an already-materialized design and fabric.
  static ScenarioCell run_cell(
      const std::string& circuit, const netlist::Netlist& design,
      const grid::RegionGridSpec& gspec, ScenarioKind kind,
      const gsino::GsinoParams& params,
      std::shared_ptr<store::ArtifactStore> store = {});

 private:
  MatrixOptions options_;
};

}  // namespace rlcr::scenario
