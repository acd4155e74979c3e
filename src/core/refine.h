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
// off an indexed max-heap (util/indexed_heap.h) keyed on density, built
// once over the candidates: a step changes only the picked region's shield
// count, so only its key moves (update on accept, erase when it leaves the
// candidate set). Heap ids are reversed solution indices, so density ties
// go to the lowest index and regions are visited in exactly the order of a
// full argmax scan per step (tests/refine_test.cpp pins this against the
// scan).
//
// Batched pass 2 (RefineOptions::batch_pass2): instead of one region per
// step, each sweep picks a maximal net-disjoint set of eligible congested
// regions (descending density), loosens them all, re-solves them in one
// sino::solve_batch call across the pool, and then accepts/rejects each
// individually. Net-disjointness makes the per-region accept checks
// independent, so the sweep's outcome is deterministic and bit-identical
// at any thread count; it visits regions in a different order than the
// serial pass, so batched results differ from batch_pass2=false (the
// goldens pin the serial pass).
//
// Pass 1 is inherently sequential (each step's worst-violator pick reads
// every earlier fix), so it runs on the calling thread; only batched pass 2
// fans out across the pool.
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
  void reduce_congestion_batched(FlowState& fs, RefineStats& stats,
                                 const RefineOptions& options) const;

 private:
  const RoutingProblem* problem_;
};

}  // namespace rlcr::gsino
