// Deterministic batch driver for per-region SINO solves.
//
// Phase II of the flow is embarrassingly parallel: every (region, dir)
// instance is independent (each SinoInstance views its own slice of the
// routing's region set and of the solve's Kth), so the batch driver fans the solves out across the
// shared pool (src/parallel) and returns results slot-indexed — one result
// per item, written by exactly one chunk, so the output is independent of
// scheduling by construction. Annealing randomness is per-item: each item
// carries its own seed, from which the solver derives an independent
// deterministic RNG stream (util/rng.h), so no generator state is shared
// across items and results are bit-identical at any thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "ktable/keff.h"
#include "sino/instance.h"
#include "util/rng.h"

namespace rlcr::sino {

/// How one batch item is solved; mirrors the flow kinds of core/session.h.
enum class SinoSolveMode {
  kNetOrder,      ///< ordering only, no shields (the ID+NO baseline)
  kGreedy,        ///< greedy constructive solve
  kGreedyAnneal,  ///< greedy, then annealing when the greedy result is
                  ///< infeasible (GSINO/iSINO with anneal_phase2)
};

struct SinoBatchItem {
  /// Instance to solve (a view); empty instances yield an empty result.
  SinoInstance instance;
  SinoSolveMode mode = SinoSolveMode::kGreedy;
  /// Seed of this item's private annealing RNG stream. Callers with no
  /// seeding convention of their own should derive it as
  /// stream_seed(base_seed, item_index).
  std::uint64_t anneal_seed = 1;
  int anneal_iterations = 3000;
};

struct SinoBatchResult {
  ktable::SlotVec slots;
  std::vector<double> ki;  ///< per instance net, Ki under `slots`
  bool feasible = false;
  bool annealed = false;  ///< annealing ran (mode kGreedyAnneal, greedy infeasible)
};

/// An independent per-item RNG stream seed: SplitMix64-mixed so neighbouring
/// item indices land in uncorrelated parts of the stream space.
inline std::uint64_t stream_seed(std::uint64_t base, std::uint64_t item) {
  return util::SplitMix64::mix2(base, item);
}

/// Solve one item: the single region-solve path behind Phase II, every
/// Phase III re-solve and solve_batch. Greedy; in kGreedyAnneal mode, an
/// infeasible greedy result is handed to the annealer, whose solution is
/// kept only when feasible; then Ki of every net under the final slots.
SinoBatchResult solve_region(const SinoBatchItem& item,
                             const ktable::KeffModel& keff);

/// Solve every item across the pool. Results are parallel to `items`.
/// `threads` counts pool participants: 0 = auto (RLCR_THREADS env var, else
/// hardware concurrency), 1 = the exact serial path. Results are identical
/// at any value — solves are independent and results are slot-indexed.
std::vector<SinoBatchResult> solve_batch(const std::vector<SinoBatchItem>& items,
                                         const ktable::KeffModel& keff,
                                         int threads = 0);

}  // namespace rlcr::sino
