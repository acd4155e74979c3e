// Compact flow summaries and the paper's table formats.
#pragma once

#include <string>
#include <vector>

#include "core/session.h"
#include "util/table_printer.h"

namespace rlcr::gsino {

/// Everything the experiment tables need, without the heavyweight per-region
/// state of a FlowResult.
struct FlowSummary {
  std::string name;
  std::size_t total_nets = 0;
  std::size_t violating = 0;
  std::size_t unfixable = 0;
  double avg_wirelength_um = 0.0;
  double total_wirelength_um = 0.0;
  double area_width_um = 0.0;
  double area_height_um = 0.0;
  double total_shields = 0.0;
  FlowTiming timing;

  double area_um2() const { return area_width_um * area_height_um; }
  double violating_fraction() const {
    return total_nets == 0
               ? 0.0
               : static_cast<double>(violating) / static_cast<double>(total_nets);
  }
};

FlowSummary summarize(const FlowResult& fr, const RoutingProblem& problem);

/// One benchmark circuit evaluated at one sensitivity rate.
struct CircuitRun {
  std::string circuit;
  double rate = 0.0;
  std::size_t total_nets = 0;
  FlowSummary idno;
  FlowSummary isino;
  FlowSummary gsino;
  bool has_isino = false;
  bool has_gsino = false;
};

/// Paper Table 1: crosstalk-violating nets of ID+NO, one column block per
/// sensitivity rate.
util::TablePrinter render_table1(const std::vector<CircuitRun>& runs);

/// Paper Table 2: average wire lengths of ID+NO vs GSINO (with overhead %).
util::TablePrinter render_table2(const std::vector<CircuitRun>& runs);

/// Paper Table 3: routing areas of ID+NO, iSINO, GSINO (with overhead %).
util::TablePrinter render_table3(const std::vector<CircuitRun>& runs);

}  // namespace rlcr::gsino
