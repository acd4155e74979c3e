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
// Speculative pass 1 (RefineOptions::speculate_batch, parallel/speculate.h):
// pass 1 is inherently sequential — each outer step's worst-violator pick
// and fix attempt read the state every earlier attempt committed. With
// speculation on, up to `speculate_batch` whole fix attempts (for the k
// worst violating nets) are evaluated concurrently on copy-on-write
// overlays of a frozen snapshot, each recording the (region, LSK-entry)
// read set it touched. The unchanged serial order then applies a memoized
// attempt only when its read set is still at the snapshot versions —
// proving the overlay equals, bit for bit, what the serial attempt would
// have computed — and replays invalidated attempts serially. Unlike
// batch_pass2, this changes neither the visit order nor the output: the
// refined state is bit-identical to the serial pass at every
// (threads, speculate_batch) combination, so every golden holds.
#pragma once

#include "core/session.h"

namespace rlcr::gsino {

class LocalRefiner {
 public:
  explicit LocalRefiner(const RoutingProblem& problem) : problem_(&problem) {}

  /// Run pass 1 then pass 2 on a flow state produced by Phase II.
  RefineStats refine(FlowState& fs, const RefineOptions& options = {}) const;

  /// Individual passes (exposed for tests and the ablation bench). Pass 1
  /// speculates fix attempts across the pool when
  /// options.speculate_batch > 1 and the effective thread count is > 1;
  /// its refined state is bit-identical to the serial pass either way
  /// (parallel/speculate.h).
  void eliminate_violations(FlowState& fs, RefineStats& stats,
                            const RefineOptions& options = {}) const;
  void reduce_congestion(FlowState& fs, RefineStats& stats) const;
  void reduce_congestion_batched(FlowState& fs, RefineStats& stats,
                                 const RefineOptions& options) const;

 private:
  const RoutingProblem* problem_;
};

}  // namespace rlcr::gsino
