// Greedy constructive SINO solver.
//
// Nets are placed in decreasing sensitivity order; each net is appended to
// the current track stack, with a shield inserted first whenever appending
// directly would violate capacitive freeness against the previous occupant
// or push any net's Ki beyond its Kth. A final compaction pass removes
// shields that turn out to be unnecessary. Fast enough to run in every
// routing region of a full chip, and the seed for the annealing solver.
#pragma once

#include "sino/evaluator.h"

namespace rlcr::sino {

/// Build a SINO solution for `instance`. The result uses exactly the slots
/// it needs (no trailing empties).
SlotVec solve_greedy(const SinoInstance& instance, const ktable::KeffModel& keff);

/// Shield-compaction pass shared with the annealer: removes, left to right,
/// each shield whose removal leaves no capacitive or inductive violation.
/// Returns the number removed.
int compact_shields(SlotVec& slots, const SinoEvaluator& eval);

}  // namespace rlcr::sino
