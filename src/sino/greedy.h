// Greedy constructive SINO solver.
//
// Nets are placed in decreasing sensitivity order; each net is appended to
// the current track stack, with a shield inserted first whenever appending
// directly would violate capacitive freeness against the previous occupant
// or push any net's Ki beyond its Kth. A final compaction pass removes
// shields that turn out to be unnecessary. Fast enough to run in every
// routing region of a full chip, and the seed for the annealing solver.
//
// Both passes know whether their stack is violation-free: it is after
// every accepted edit. While it is, every trial is checked with
// SinoEvaluator::violation_free_after, which tests only what the trial's
// edit can break. The from-scratch violation_free runs only on a stack in
// an unknown state: after the greedy's shield fallback gave up on a net.
#pragma once

#include "sino/evaluator.h"

namespace rlcr::sino {

/// Build a SINO solution for `eval.instance()`. The result uses exactly
/// the slots it needs (no trailing empties).
SlotVec solve_greedy(const SinoEvaluator& eval);

/// Shield-compaction pass shared with the annealer: removes, left to right,
/// each shield whose removal leaves no capacitive or inductive violation.
/// `violation_free` says whether `slots` is violation-free; the caller
/// knows it. A violating stack still violates after any removal, so it
/// keeps every shield. Either way trailing empties are dropped. Returns
/// the number removed.
int compact_shields(SlotVec& slots, const SinoEvaluator& eval,
                    bool violation_free);

}  // namespace rlcr::sino
