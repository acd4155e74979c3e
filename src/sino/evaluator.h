// Feasibility and cost evaluation of SINO solutions.
//
// A solution is a slot vector (ktable::SlotVec) whose non-negative entries
// are indices into the instance's net list. The evaluator answers the two
// constraint questions of [4] — capacitive freeness and inductive bounds —
// plus the area and violation measures the solvers optimize.
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

  bool feasible() const {
    return placed_all && capacitive_violations == 0 && inductive_violations == 0;
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

  SinoInstance instance_;
  const ktable::KeffModel* keff_;
  /// Per net: no stack holding each net at most once can push its Ki past
  /// its Kth, so its Ki need not be computed to rule out a violation.
  std::vector<char> never_over_;
};

}  // namespace rlcr::sino
