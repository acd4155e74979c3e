#include "sino/anneal.h"

#include <algorithm>
#include <cmath>

#include "sino/greedy.h"
#include "util/rng.h"

namespace rlcr::sino {

namespace {

/// Remove trailing empty slots (canonical form keeps area honest).
void trim(SlotVec& slots) {
  while (!slots.empty() && slots.back() == kEmptySlot) slots.pop_back();
}

}  // namespace

AnnealResult solve_anneal(const SinoEvaluator& eval,
                          const AnnealOptions& options) {
  return solve_anneal(eval, solve_greedy(eval), options);
}

AnnealResult solve_anneal(const SinoEvaluator& eval, SlotVec start,
                          const AnnealOptions& options) {
  util::Xoshiro256 rng(util::SplitMix64::mix2(options.seed, 0xA22EA1));

  SlotVec current = std::move(start);
  trim(current);
  const SinoCheck start_check = eval.check(current);
  double current_cost =
      SinoEvaluator::cost(start_check, current, options.violation_penalty);

  AnnealResult best;
  best.slots = current;
  best.cost = current_cost;
  best.feasible = start_check.feasible();
  // Whether best.slots is violation-free (compaction's precondition).
  bool best_free = start_check.violation_free();

  if (eval.instance().net_count() == 0) return best;

  const double cool =
      std::pow(options.t_end / options.t_start,
               1.0 / std::max(1, options.iterations - 1));
  double temp = options.t_start;

  SlotVec trial;  // reused across iterations: swapped with `current` on accept
  for (int it = 0; it < options.iterations; ++it, temp *= cool) {
    trial.assign(current.begin(), current.end());
    const double move = rng.uniform();

    if (move < 0.40 && trial.size() >= 2) {
      // Swap two slots (any occupancy kinds).
      const auto a = static_cast<std::size_t>(rng.below(trial.size()));
      const auto b = static_cast<std::size_t>(rng.below(trial.size()));
      std::swap(trial[a], trial[b]);
    } else if (move < 0.65 && trial.size() >= 2) {
      // Relocate one slot's occupant to a random position (rotate range).
      const auto a = static_cast<std::size_t>(rng.below(trial.size()));
      const auto b = static_cast<std::size_t>(rng.below(trial.size()));
      if (a != b) {
        const ktable::Slot v = trial[a];
        trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(a));
        trial.insert(trial.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(b, trial.size())),
                     v);
      }
    } else if (move < 0.85) {
      // Insert a shield at a random position.
      const auto pos = static_cast<std::size_t>(rng.below(trial.size() + 1));
      trial.insert(trial.begin() + static_cast<std::ptrdiff_t>(pos), kShieldSlot);
    } else {
      // Remove a random shield (if there is one): the pick-th shield from
      // the left.
      const auto shields =
          static_cast<std::size_t>(SinoEvaluator::shield_count(trial));
      if (shields == 0) continue;
      auto pick = static_cast<std::size_t>(rng.below(shields));
      auto at = trial.begin();
      for (;; ++at) {
        if (*at == kShieldSlot && pick-- == 0) break;
      }
      trial.erase(at);
    }
    trim(trial);

    const SinoCheck trial_check = eval.check(trial);
    const double trial_cost =
        SinoEvaluator::cost(trial_check, trial, options.violation_penalty);
    const double delta = trial_cost - current_cost;
    if (delta <= 0.0 || rng.uniform() < std::exp(-delta / temp)) {
      current.swap(trial);
      current_cost = trial_cost;
      ++best.moves_accepted;
      const bool feasible = trial_check.feasible();
      if ((feasible && !best.feasible) ||
          (feasible == best.feasible && current_cost < best.cost)) {
        best.slots = current;
        best.cost = current_cost;
        best.feasible = feasible;
        best_free = trial_check.violation_free();
      }
    }
  }

  // Final polish: drop any shield the best solution does not need.
  compact_shields(best.slots, eval, best_free);
  const SinoCheck final_check = eval.check(best.slots);
  best.cost =
      SinoEvaluator::cost(final_check, best.slots, options.violation_penalty);
  best.feasible = final_check.feasible();
  return best;
}

}  // namespace rlcr::sino
