// Phase III: two-pass iterative local refinement (the paper's Fig. 2),
// operating on a FlowState (the mutable working state a FlowSession builds
// over a RegionSolveArtifact).
//
// Pass 1 (eliminate crosstalk violations): Phase I budgeted with Manhattan
// distances, so detoured nets can exceed their noise bound. For the net
// with the worst violation, tighten its Kth in the least congested region
// it crosses (letting that region absorb one more shield) and re-run SINO
// there; repeat until the net meets its bound, then move to the next
// violating net.
//
// Pass 2 (reduce routing congestion): in the most congested region, give
// nets with slack (noise headroom) looser Kth in proportion to that slack
// and re-run SINO; accept the new solution only if it removes at least one
// shield and causes no new violations. A rejected region is done; an
// accepted one stays a candidate while it keeps a shield. The pick comes
// off a monotone max-queue (util/monotone_queue.h) keyed on density, built
// once over the candidates. A step changes only the picked region's shield
// count, so only its key moves, and only down: an accepted step removes a
// shield, and density = (segments + shields) / capacity. The pick leaves
// the queue, and an accepted pick that is still a candidate goes back with
// its lower density. Queue ids are reversed solution indices, so density
// ties go to the lowest index and regions are visited in exactly the order
// of a full argmax scan per step (tests/refine_test.cpp pins this against
// the scan).
//
// Pass 1 is inherently sequential (each step's worst-violator pick reads
// every earlier fix) and pass 2 accepts or rejects one region at a time,
// so both run on the calling thread.
#pragma once

#include "core/session.h"

namespace rlcr::gsino {

class LocalRefiner {
 public:
  explicit LocalRefiner(const RoutingProblem& problem) : problem_(&problem) {}

  /// Run pass 1 then pass 2 on a flow state produced by Phase II.
  RefineStats refine(FlowState& fs, const RefineOptions& options = {}) const;

  /// Individual passes (exposed for tests and the benches). Pass 1 reads
  /// no option; `options` stays so callers that pass their RefineOptions
  /// keep compiling.
  void eliminate_violations(FlowState& fs, RefineStats& stats,
                            const RefineOptions& options = {}) const;
  void reduce_congestion(FlowState& fs, RefineStats& stats) const;

 private:
  const RoutingProblem* problem_;
};

}  // namespace rlcr::gsino
