#include "sino/greedy.h"

#include <algorithm>
#include <numeric>

namespace rlcr::sino {

SlotVec solve_greedy(const SinoEvaluator& eval) {
  const SinoInstance& instance = eval.instance();
  const std::size_t n = instance.net_count();

  // Most-sensitive-first placement: high-S_i nets constrain the layout the
  // most, so they go in while the stack is still flexible.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return instance.si(a) > instance.si(b);
  });

  SlotVec slots;
  slots.reserve(n * 2);

  // Whether `slots` is violation-free before the current net goes in. It
  // is after every net that found a place; it stops being so only when
  // the shield fallback below gives up.
  bool known_free = true;
  // Does the stack with the current net at `pos` have no violation? From
  // a violation-free stack only the insertion's own effects are tested.
  const auto fits = [&](std::size_t pos) {
    return known_free
               ? eval.violation_free_after(slots, SinoEdit::net_inserted(pos))
               : eval.violation_free(slots, pos);
  };

  for (std::size_t net : order) {
    // Ordering first, shields last: try every insertion position without a
    // shield (append first — it is free when it works), and only spend a
    // shield when no arrangement accommodates the net. This is what keeps
    // the solution near the min-area ideal: a well-chosen ordering absorbs
    // most capacitive conflicts for free.
    bool placed = false;
    const auto positions = slots.size() + 1;
    for (std::size_t k = 0; k < positions; ++k) {
      const std::size_t pos = slots.size() - k;  // append, then walk left
      slots.insert(slots.begin() + static_cast<std::ptrdiff_t>(pos),
                   static_cast<ktable::Slot>(net));
      if (fits(pos)) {
        placed = true;
        break;
      }
      slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(pos));
    }

    if (!placed) {
      // Shield + net at the end: a trailing shield changes no coupling and
      // no adjacency, so this is one more insertion.
      slots.push_back(kShieldSlot);
      slots.push_back(static_cast<ktable::Slot>(net));
      placed = fits(slots.size() - 1);

      // Rare fallback: an inductive bound is still violated (capacitive
      // cannot be, the shield blocks the only adjacency). Interleave
      // further shields through the stack — every inserted shield
      // attenuates all couplings crossing it — until feasible, up to a
      // small budget. Each shield goes in left of the net, which stays
      // last; a shield never raises a Ki nor adds an adjacency, so the
      // insertion check stays exact.
      for (int extra = 0; extra < 6 && !placed; ++extra) {
        // Alternate: left of the new net, then progressively deeper
        // between the earlier nets (covering aggressors on the far side
        // too).
        const std::size_t pos =
            (extra % 2 == 0)
                ? slots.size() - 1
                : slots.size() / 2 - static_cast<std::size_t>(extra / 2) % (slots.size() / 2 + 1);
        slots.insert(slots.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(pos, slots.size())),
                     kShieldSlot);
        placed = fits(slots.size() - 1);
      }
    }
    known_free = placed;
  }

  compact_shields(slots, eval, known_free);
  return slots;
}

int compact_shields(SlotVec& slots, const SinoEvaluator& eval,
                    bool violation_free) {
  // One left-to-right sweep that, after a removal, resumes at the removed
  // slot. Restarting from slot 0 instead would change nothing: a shield
  // left of the resume point was kept because removing it left a
  // violation, and removing another shield never lowers a Ki nor breaks a
  // capacitive adjacency, so that violation is still there
  // (src/core/README.md, "The SINO kernel"). The same argument makes a
  // violating stack keep every shield, so it is not swept at all. The
  // stack is violation-free before every trial, so each trial checks only
  // what its removal can break.
  int removed = 0;
  for (std::size_t s = 0; violation_free && s < slots.size();) {
    if (slots[s] != kShieldSlot) {
      ++s;
      continue;
    }
    slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(s));
    if (eval.violation_free_after(slots, SinoEdit::shield_removed(s))) {
      ++removed;
      continue;
    }
    slots.insert(slots.begin() + static_cast<std::ptrdiff_t>(s), kShieldSlot);
    ++s;
  }
  // Drop trailing empties if any crept in.
  while (!slots.empty() && slots.back() == kEmptySlot) slots.pop_back();
  return removed;
}

}  // namespace rlcr::sino
