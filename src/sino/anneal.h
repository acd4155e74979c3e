// Simulated-annealing SINO solver for min-area solutions.
//
// SINO is NP-hard [4]; the greedy constructor is fast but conservative with
// shields. The annealer starts from the greedy solution and explores
// net swaps, net moves, and shield insertion/removal under a geometric
// cooling schedule, tracking the best feasible solution seen. It is used
// where solution quality matters more than speed: fitting the Nss
// coefficients of Eq. (3) and the `sino_explorer` example.
#pragma once

#include <cstdint>

#include "sino/evaluator.h"

namespace rlcr::sino {

struct AnnealOptions {
  std::uint64_t seed = 1;
  int iterations = 20000;
  double t_start = 4.0;
  double t_end = 0.05;
  double violation_penalty = 50.0;
};

struct AnnealResult {
  SlotVec slots;
  bool feasible = false;
  double cost = 0.0;
  int moves_accepted = 0;
};

/// Anneal from the greedy solution of `eval.instance()`.
AnnealResult solve_anneal(const SinoEvaluator& eval,
                          const AnnealOptions& options = {});

/// Anneal from `start` (a greedy solution the caller already holds).
AnnealResult solve_anneal(const SinoEvaluator& eval, SlotVec start,
                          const AnnealOptions& options);

}  // namespace rlcr::sino
