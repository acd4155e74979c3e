#include "sino/evaluator.h"

#include <algorithm>

namespace rlcr::sino {

SinoEvaluator::SinoEvaluator(const SinoInstance& instance,
                             const ktable::KeffModel& keff)
    : instance_(instance), keff_(&keff), never_over_(instance.net_count(), 0) {
  // In a stack holding each net at most once, Ki of net v sums at most one
  // term per net sensitive to v, and no term exceeds profile(1): coupling
  // never grows with distance or shield count (KeffModel's parameter
  // ranges). Rounding is monotone, so the computed Ki is at most the same
  // left-to-right float sum of that many profile(1) terms. When that sum
  // is within Kth, no placement can violate the net's bound.
  const double term_max = keff.profile(1);
  const std::size_t n = instance.net_count();
  for (std::size_t v = 0; v < n; ++v) {
    std::size_t terms = 0;
    for (std::size_t u = 0; u < n; ++u) terms += instance.sensitive(v, u);
    double ki_max = 0.0;
    for (std::size_t k = 0; k < terms; ++k) ki_max += term_max;
    never_over_[v] = ki_max <= instance.kth(v);
  }
}

double SinoEvaluator::ki(const SlotVec& slots, std::size_t slot_index,
                         double stop_above) const {
  const auto victim_net = slots[slot_index];
  if (victim_net < 0) return 0.0;
  const auto v = static_cast<std::size_t>(victim_net);
  ++ki_sums_;
  return keff_->total_coupling(
      slots, slot_index,
      [&](ktable::Slot other) {
        return instance_.sensitive(v, static_cast<std::size_t>(other));
      },
      stop_above);
}

std::vector<double> SinoEvaluator::all_ki(const SlotVec& slots) const {
  std::vector<double> out(instance_.net_count(), 0.0);
  for (std::size_t s = 0; s < slots.size(); ++s) {
    if (slots[s] >= 0) {
      out[static_cast<std::size_t>(slots[s])] = ki(slots, s);
    }
  }
  return out;
}

SinoCheck SinoEvaluator::check(const SlotVec& slots) const {
  SinoCheck result;

  // Placement completeness: every net exactly once.
  std::vector<int> seen(instance_.net_count(), 0);
  bool at_most_once = true;
  for (ktable::Slot s : slots) {
    if (s >= 0) {
      const auto i = static_cast<std::size_t>(s);
      if (i >= seen.size() || seen[i]++) at_most_once = false;
    }
  }
  result.placed_all = at_most_once && std::find(seen.begin(), seen.end(), 0) ==
                                          seen.end();

  // Capacitive: scan each occupied slot's next occupied slot to the right;
  // that single pair is the only capacitively-adjacent pair across the gap.
  std::ptrdiff_t prev = -1;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    if (slots[s] == kEmptySlot) continue;
    if (prev >= 0 && conflict(slots[static_cast<std::size_t>(prev)], slots[s])) {
      ++result.capacitive_violations;
    }
    prev = static_cast<std::ptrdiff_t>(s);
  }

  // Inductive: Ki vs Kth per net.
  for (std::size_t s = 0; s < slots.size(); ++s) {
    if (slots[s] < 0) continue;
    const auto net_idx = static_cast<std::size_t>(slots[s]);
    if (at_most_once && never_over_[net_idx]) continue;
    const double k = ki(slots, s);
    const double bound = instance_.kth(net_idx);
    if (k > bound) {
      ++result.inductive_violations;
      result.inductive_excess += k - bound;
    }
  }
  return result;
}

bool SinoEvaluator::feasible(const SlotVec& slots,
                             std::span<const double> ki) const {
  std::vector<char> seen(instance_.net_count(), 0);
  std::size_t placed = 0;
  std::size_t prev = slots.size();
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const ktable::Slot v = slots[s];
    if (v == kEmptySlot) continue;
    if (prev < slots.size() && conflict(slots[prev], v)) return false;
    prev = s;
    if (v < 0) continue;
    const auto net = static_cast<std::size_t>(v);
    if (net >= seen.size() || seen[net]) return false;
    seen[net] = 1;
    ++placed;
    if (ki[net] > instance_.kth(net)) return false;
  }
  return placed == seen.size();
}

bool SinoEvaluator::violation_free(const SlotVec& slots,
                                   std::size_t focus) const {
  const std::size_t n = slots.size();
  focus = std::min(focus, n);

  // Local capacitive test: the occupied slots on either side of `focus`
  // (`r` is the first at or right of it), and `r`'s right neighbour.
  std::size_t l = focus;
  while (l > 0 && slots[l - 1] == kEmptySlot) --l;
  std::size_t r = focus;
  while (r < n && slots[r] == kEmptySlot) ++r;
  if (r < n) {
    if (l > 0 && conflict(slots[l - 1], slots[r])) return false;
    std::size_t next = r + 1;
    while (next < n && slots[next] == kEmptySlot) ++next;
    if (next < n && conflict(slots[r], slots[next])) return false;
  }

  // Every capacitive adjacency, as check() counts them.
  std::size_t prev = n;
  for (std::size_t s = 0; s < n; ++s) {
    if (slots[s] == kEmptySlot) continue;
    if (prev < n && conflict(slots[prev], slots[s])) return false;
    prev = s;
  }

  // Inductive: the focus net first, then every other net.
  const bool focus_net = r < n && slots[r] >= 0;
  if (focus_net && over_bound(slots, r)) return false;
  for (std::size_t s = 0; s < n; ++s) {
    if (slots[s] < 0 || (focus_net && s == r)) continue;
    if (over_bound(slots, s)) return false;
  }
  return true;
}

bool SinoEvaluator::attacked_from(const SlotVec& slots, std::size_t net,
                                  std::size_t lo, std::size_t hi) const {
  for (std::size_t s = lo; s < hi; ++s) {
    if (slots[s] >= 0 &&
        instance_.sensitive(net, static_cast<std::size_t>(slots[s]))) {
      return true;
    }
  }
  return false;
}

bool SinoEvaluator::violation_free_after(const SlotVec& slots,
                                         SinoEdit edit) const {
  const std::size_t n = slots.size();
  const std::size_t at = std::min(edit.at, n);
  // The occupied slots either side of the edit: `l` is one past the last
  // occupied slot left of `at`, `r` the first occupied slot right of it
  // (right of the inserted net itself, for an insertion).
  std::size_t l = at;
  while (l > 0 && slots[l - 1] == kEmptySlot) --l;
  std::size_t r = edit.kind == SinoEdit::Kind::kNetInserted ? at + 1 : at;
  while (r < n && slots[r] == kEmptySlot) ++r;

  if (edit.kind == SinoEdit::Kind::kNetInserted) {
    // The net's two new adjacencies, its Ki, then the Ki of every net it
    // attacks (sensitivity is symmetric: those are the nets sensitive to
    // it).
    const ktable::Slot x = slots[at];
    if (l > 0 && conflict(slots[l - 1], x)) return false;
    if (r < n && conflict(x, slots[r])) return false;
    if (over_bound(slots, at)) return false;
    const auto xi = static_cast<std::size_t>(x);
    for (std::size_t s = 0; s < n; ++s) {
      if (s == at || slots[s] < 0) continue;
      if (instance_.sensitive(static_cast<std::size_t>(slots[s]), xi) &&
          over_bound(slots, s)) {
        return false;
      }
    }
    return true;
  }

  // Shield removed: the one adjacency across the gap, then every net with
  // a sensitive aggressor on the other side of it, the gap's two
  // neighbours first (their couplings across it grew the most).
  if (l > 0 && r < n && conflict(slots[l - 1], slots[r])) return false;
  const auto rises = [&](std::size_t s) {
    const auto net = static_cast<std::size_t>(slots[s]);
    if (never_over_[net]) return false;
    const bool across = s < at ? attacked_from(slots, net, at, n)
                               : attacked_from(slots, net, 0, at);
    return across && over_bound(slots, s);
  };
  const std::size_t left = l > 0 && slots[l - 1] >= 0 ? l - 1 : n;
  const std::size_t right = r < n && slots[r] >= 0 ? r : n;
  if (left < n && rises(left)) return false;
  if (right < n && rises(right)) return false;
  for (std::size_t s = 0; s < n; ++s) {
    if (slots[s] < 0 || s == left || s == right) continue;
    if (rises(s)) return false;
  }
  return true;
}

int SinoEvaluator::area(std::span<const ktable::Slot> slots) {
  int n = 0;
  for (ktable::Slot s : slots) {
    if (s != kEmptySlot) ++n;
  }
  return n;
}

int SinoEvaluator::shield_count(std::span<const ktable::Slot> slots) {
  int n = 0;
  for (ktable::Slot s : slots) {
    if (s == kShieldSlot) ++n;
  }
  return n;
}

double SinoEvaluator::cost(const SinoCheck& c, const SlotVec& slots,
                           double violation_penalty) {
  double penalty = violation_penalty *
                   (c.capacitive_violations + c.inductive_violations);
  penalty += violation_penalty * c.inductive_excess;
  if (!c.placed_all) penalty += 1e6;
  return static_cast<double>(area(slots)) + penalty;
}

}  // namespace rlcr::sino
