#include "sino/greedy.h"

#include <algorithm>
#include <numeric>

namespace rlcr::sino {

SlotVec solve_greedy(const SinoInstance& instance,
                     const ktable::KeffModel& keff) {
  const SinoEvaluator eval(instance, keff);
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
      if (eval.violation_free(slots, pos)) {
        placed = true;
        break;
      }
      slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(pos));
    }
    if (placed) continue;

    // Shield + net at the end.
    slots.push_back(kShieldSlot);
    slots.push_back(static_cast<ktable::Slot>(net));
    if (eval.violation_free(slots, slots.size() - 1)) continue;

    // Rare fallback: an inductive bound is still violated (capacitive
    // cannot be, the shield blocks the only adjacency). Interleave further
    // shields through the stack — every inserted shield attenuates all
    // couplings crossing it — until feasible, up to a small budget.
    for (int extra = 0;
         extra < 6 && !eval.violation_free(slots, slots.size() - 1); ++extra) {
      // Alternate: left of the new net, then progressively deeper between
      // the earlier nets (covering aggressors on the far side too).
      const std::size_t pos =
          (extra % 2 == 0)
              ? slots.size() - 1
              : slots.size() / 2 - static_cast<std::size_t>(extra / 2) % (slots.size() / 2 + 1);
      slots.insert(slots.begin() + static_cast<std::ptrdiff_t>(
                                       std::min(pos, slots.size())),
                   kShieldSlot);
    }
  }

  compact_shields(slots, eval);
  return slots;
}

int compact_shields(SlotVec& slots, const SinoEvaluator& eval) {
  // One left-to-right sweep that, after a removal, resumes at the removed
  // slot. Restarting from slot 0 instead would change nothing: a shield
  // left of the resume point was kept because removing it left a
  // violation, and removing another shield never lowers a Ki nor breaks a
  // capacitive adjacency, so that violation is still there
  // (src/core/README.md, "The SINO kernel").
  int removed = 0;
  for (std::size_t s = 0; s < slots.size();) {
    if (slots[s] != kShieldSlot) {
      ++s;
      continue;
    }
    slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(s));
    if (eval.violation_free(slots, s)) {
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
