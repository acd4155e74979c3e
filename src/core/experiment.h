// Experiment harness: runs the paper's circuit suite through the three
// flows and produces the CircuitRun rows the table renderers consume.
// Shared by the table benches, the ablation bench, and the examples.
//
// Each (circuit, rate) cell runs through one FlowSession, so ID+NO and
// iSINO share a single Phase I routing artifact (their router profiles
// are identical under the paper's fairness rule) and only GSINO routes a
// second time — two Phase I executions per cell instead of three, with
// bit-identical table outputs.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "grid/region_grid.h"
#include "netlist/synthetic.h"

namespace rlcr::store {
class ArtifactStore;
}  // namespace rlcr::store

namespace rlcr::gsino {

struct ExperimentOptions {
  /// Uniform shrink of the published circuit sizes. 1.0 reproduces the
  /// full-size suite; smaller values give fast smoke runs with the same
  /// statistical structure.
  double scale = 1.0;
  std::vector<double> rates = {0.30, 0.50};
  /// Indices into netlist::ibm_suite() (0 = ibm01 ... 5 = ibm06).
  std::vector<int> circuits = {0, 1, 2, 3, 4, 5};
  /// Run the ISPD'98 classes (netlist/ispd98_synth.h) instead of the
  /// proxy ibm_suite: Tables 1-3 at the published circuit sizes — the
  /// genuine netD circuits when RLCR_ISPD98_DIR holds them, the
  /// calibrated synthetic stand-ins otherwise. `scale` and `circuits`
  /// apply unchanged (circuit indices select among ibm01..ibm06 either
  /// way).
  bool ispd98 = false;
  bool run_isino = true;
  bool run_gsino = true;
  GsinoParams params;
  /// Optional persistent artifact store, forwarded into every cell's
  /// FlowSession: a re-run of the suite (same circuits, rates, params,
  /// seed) warm-starts Phase I and budgeting from the records a previous
  /// run — possibly in another process — published.
  std::shared_ptr<store::ArtifactStore> store;
};

/// Honours the RLCROUTE_SCALE environment variable (a double); returns
/// `fallback` when unset or invalid. Lets the shipped benches run at full
/// published size by default while CI uses a smaller scale.
double scale_from_env(double fallback);

class ExperimentRunner {
 public:
  explicit ExperimentRunner(ExperimentOptions options)
      : options_(std::move(options)) {}

  /// One CircuitRun per (circuit, rate).
  std::vector<CircuitRun> run() const;

  /// Single circuit x rate, returning the table-ready summaries; used by
  /// tests and the quickstart example. The three flows run through one
  /// FlowSession (shared routing artifact).
  static CircuitRun run_one(const netlist::SyntheticSpec& spec, double rate,
                            const GsinoParams& params, bool run_isino = true,
                            bool run_gsino = true,
                            std::shared_ptr<store::ArtifactStore> store = {});

  /// Same cell over an already-materialized design and routing fabric —
  /// the entry the ISPD'98 path and the scenario matrix drive (their
  /// designs come from make_ispd98_instance, not a SyntheticSpec).
  static CircuitRun run_one(const std::string& name,
                            const netlist::Netlist& design,
                            const grid::RegionGridSpec& gspec, double rate,
                            const GsinoParams& params, bool run_isino = true,
                            bool run_gsino = true,
                            std::shared_ptr<store::ArtifactStore> store = {});

 private:
  ExperimentOptions options_;
};

}  // namespace rlcr::gsino
