// Feasibility and cost evaluation of SINO solutions.
//
// A solution is a slot vector (ktable::SlotVec) whose non-negative entries
// are indices into the instance's net list. The evaluator answers the two
// constraint questions of [4] — capacitive freeness and inductive bounds —
// plus the area and violation measures the solvers optimize.
//
// Two ways to ask "is this stack violation-free?":
//   - violation_free(slots, focus) answers from scratch: every adjacency
//     and every net's Ki. It is for stacks in an unknown state and is the
//     tests' reference.
//   - violation_free_after(slots, edit) answers for a stack that was
//     violation-free before one edit (a net inserted, or a shield
//     removed). It tests only what the edit can break. The greedy and
//     compaction reach feasibility through it alone while their stack is
//     known to be violation-free.
// One evaluator serves one region solve (sino::solve_region builds it and
// hands it to the greedy and the annealer), so its constructor's O(n^2)
// pass and its ki_sums() count are per solve.
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "ktable/keff.h"
#include "sino/instance.h"

namespace rlcr::sino {

using ktable::kEmptySlot;
using ktable::kShieldSlot;
using ktable::SlotVec;

/// Violation summary of one solution.
struct SinoCheck {
  int capacitive_violations = 0;  ///< sensitive pairs on adjacent tracks
  double inductive_excess = 0.0;  ///< sum of max(0, Ki - Kth) over nets
  int inductive_violations = 0;   ///< nets with Ki > Kth
  bool placed_all = false;        ///< every net appears exactly once

  bool violation_free() const {
    return capacitive_violations == 0 && inductive_violations == 0;
  }
  bool feasible() const { return placed_all && violation_free(); }
};

/// One edit to a stack, as SinoEvaluator::violation_free_after takes it.
struct SinoEdit {
  enum class Kind { kNetInserted, kShieldRemoved };
  Kind kind = Kind::kNetInserted;
  /// kNetInserted: the slot that now holds the inserted net.
  /// kShieldRemoved: the slot the removed shield left behind (the first
  /// slot right of it, or slots.size() when it was the last slot).
  std::size_t at = 0;

  static SinoEdit net_inserted(std::size_t pos) {
    return {Kind::kNetInserted, pos};
  }
  static SinoEdit shield_removed(std::size_t gap) {
    return {Kind::kShieldRemoved, gap};
  }
};

class SinoEvaluator {
 public:
  /// Keeps a copy of the view and reads every net's Kth and sensitivities
  /// once, here: build a new evaluator after changing the instance's
  /// storage.
  SinoEvaluator(const SinoInstance& instance, const ktable::KeffModel& keff);

  const SinoInstance& instance() const { return instance_; }
  const ktable::KeffModel& keff() const { return *keff_; }

  /// Total inductive coupling Ki of the net in slot `slot_index`, counting
  /// only aggressors the instance marks as sensitive to it. O(slots).
  /// Stops early once the partial sum exceeds `stop_above` (see
  /// KeffModel::total_coupling).
  double ki(const SlotVec& slots, std::size_t slot_index,
            double stop_above = std::numeric_limits<double>::infinity()) const;

  /// Ki for every net, indexed by net index (not slot).
  std::vector<double> all_ki(const SlotVec& slots) const;

  /// Full violation summary; O(slots^2).
  SinoCheck check(const SlotVec& slots) const;

  /// check(slots).feasible(), given `ki` = all_ki(slots): every net placed
  /// once, no capacitive violation and every Ki within its Kth. Runs no
  /// Ki sum.
  bool feasible(const SlotVec& slots, std::span<const double> ki) const;

  /// True when `slots` has no capacitive and no inductive violation; stacks
  /// that do not place every net pass too (the greedy builds partial ones).
  /// `slots` must hold each net at most once, as every solver's stacks do.
  /// Same answer as check() with both violation counts zero, but allocates
  /// nothing and stops at the first violation. `focus` is a slot whose
  /// neighbourhood just changed (an inserted net, or the slot a removed
  /// shield left behind): its capacitive neighbours and its net's Ki are
  /// tested first so a bad edit fails fast. The answer does not depend on
  /// `focus`.
  bool violation_free(const SlotVec& slots, std::size_t focus) const;

  /// violation_free(slots, edit.at) for a stack `slots` that was
  /// violation-free before `edit` (and holds each net at most once). Tests
  /// only what the edit can break (src/core/README.md, "The SINO kernel"):
  ///   - a net x inserted: its two adjacencies, its Ki, and the Ki of each
  ///     net sensitive to x. Every other net keeps its aggressors in the
  ///     same order at the same or a larger distance, so its Ki cannot
  ///     rise. Shields inserted anywhere after x cannot raise a Ki or add
  ///     an adjacency either, so the answer stays exact for them;
  ///   - a shield removed: the one adjacency across the gap, and the Ki of
  ///     each net with a sensitive aggressor on the other side of the gap.
  ///     No other pair's distance or shield count changes.
  bool violation_free_after(const SlotVec& slots, SinoEdit edit) const;

  /// Ki sums this evaluator has run (ki(), directly or through all_ki,
  /// check and the feasibility checks); the kernel's deterministic work
  /// count. A plain member: an evaluator serves one solve on one thread.
  std::size_t ki_sums() const { return ki_sums_; }

  /// Occupied tracks (nets + shields); the SINO area objective.
  static int area(std::span<const ktable::Slot> slots);
  static int shield_count(std::span<const ktable::Slot> slots);

  /// Scalar objective for the annealer: area + penalty * violations, from
  /// `c` = check(slots).
  static double cost(const SinoCheck& c, const SlotVec& slots,
                     double violation_penalty);

 private:
  /// Do two capacitively adjacent slots hold mutually sensitive nets?
  bool conflict(ktable::Slot a, ktable::Slot b) const {
    return a >= 0 && b >= 0 &&
           instance_.sensitive(static_cast<std::size_t>(a),
                                static_cast<std::size_t>(b));
  }
  /// Does the net in slot `s` exceed its Kth? `slots` holds each net at
  /// most once.
  bool over_bound(const SlotVec& slots, std::size_t s) const {
    const auto net = static_cast<std::size_t>(slots[s]);
    if (never_over_[net]) return false;
    const double bound = instance_.kth(net);
    return ki(slots, s, bound) > bound;
  }
  /// Does a slot in [lo, hi) hold a net sensitive to `net`?
  bool attacked_from(const SlotVec& slots, std::size_t net, std::size_t lo,
                     std::size_t hi) const;

  SinoInstance instance_;
  const ktable::KeffModel* keff_;
  /// Per net: no stack holding each net at most once can push its Ki past
  /// its Kth, so its Ki need not be computed to rule out a violation.
  std::vector<char> never_over_;
  mutable std::size_t ki_sums_ = 0;
};

}  // namespace rlcr::sino
