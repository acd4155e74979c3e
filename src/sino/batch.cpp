#include "sino/batch.h"

#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "sino/anneal.h"
#include "sino/evaluator.h"
#include "sino/greedy.h"
#include "sino/net_order.h"

namespace rlcr::sino {

SinoBatchResult solve_region(const SinoBatchItem& item,
                             const ktable::KeffModel& keff) {
  SinoBatchResult out;
  if (item.instance.net_count() == 0) return out;
  const SinoInstance& inst = item.instance;
  const SinoEvaluator eval(inst, keff);

  // One evaluator and one Ki pass: feasibility comes from the Ki the
  // result carries anyway. Only an annealed replacement needs its own.
  out.slots = item.mode == SinoSolveMode::kNetOrder
                  ? solve_net_order(inst, keff).slots
                  : solve_greedy(eval);
  out.ki = eval.all_ki(out.slots);
  out.feasible = eval.feasible(out.slots, out.ki);
  if (item.mode == SinoSolveMode::kGreedyAnneal && !out.feasible) {
    AnnealOptions ao;
    ao.seed = item.anneal_seed;
    ao.iterations = item.anneal_iterations;
    AnnealResult best = solve_anneal(eval, out.slots, ao);
    out.annealed = true;
    if (best.feasible) {
      out.slots = std::move(best.slots);
      out.ki = eval.all_ki(out.slots);
      out.feasible = true;
    }
  }
  return out;
}

std::vector<SinoBatchResult> solve_batch(const std::vector<SinoBatchItem>& items,
                                         const ktable::KeffModel& keff,
                                         int threads) {
  // Items per chunk: fixed, never a function of the thread count (the
  // determinism contract of src/parallel).
  constexpr std::size_t kGrain = 8;
  return parallel::parallel_map<SinoBatchResult>(
      items.size(), kGrain, threads, [&](std::size_t i) {
        const SinoBatchItem& item = items[i];
        if (item.instance.net_count() == 0) return SinoBatchResult{};
        RLCR_TRACE_SPAN(span, "sino.solve", "sino");
        span.arg("nets", static_cast<double>(item.instance.net_count()));
        return solve_region(item, keff);
      });
}

}  // namespace rlcr::sino
