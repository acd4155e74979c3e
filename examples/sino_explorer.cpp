// SINO explorer: play with a single routing region.
//
//   $ ./sino_explorer [nets] [rate] [kth]
//
// Builds one region's SINO instance, solves it with net ordering only, the
// greedy constructor, and simulated annealing, and prints the resulting
// track stacks side by side — a direct view of the shield-vs-ordering
// trade-off that drives the whole paper.
#include <cstdio>
#include <iostream>
#include <cstdlib>
#include <string>

#include "sino/anneal.h"
#include "sino/evaluator.h"
#include "sino/greedy.h"
#include "sino/net_order.h"
#include "util/rng.h"

using namespace rlcr;
using namespace rlcr::sino;

namespace {

std::string render(const ktable::SlotVec& slots) {
  std::string s;
  for (ktable::Slot v : slots) {
    if (v == ktable::kShieldSlot) {
      s += " [G]";
    } else if (v == ktable::kEmptySlot) {
      s += " [ ]";
    } else {
      s += " [" + std::to_string(v) + "]";
    }
  }
  return s;
}

void report(const char* name, const ktable::SlotVec& slots,
            const SinoEvaluator& eval) {
  const SinoCheck c = eval.check(slots);
  std::printf("%-22s area=%2d shields=%d cap_viol=%d ind_viol=%d\n  %s\n",
              name, SinoEvaluator::area(slots),
              SinoEvaluator::shield_count(slots), c.capacitive_violations,
              c.inductive_violations, render(slots).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 10;
  const double rate = argc > 2 ? std::atof(argv[2]) : 0.4;
  const double kth = argc > 3 ? std::atof(argv[3]) : 1.2;

  std::printf("single-region SINO instance: %zu nets, rate %.2f, Kth %.2f\n",
              n, rate, kth);

  util::Xoshiro256 rng(2002);
  std::vector<SinoNet> nets(n);
  for (std::size_t i = 0; i < n; ++i) {
    nets[i] = SinoNet{rate, kth};
  }
  OwnedInstance inst(nets);
  int pairs = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.bernoulli(rate)) {
        inst.set_sensitive(i, j);
        ++pairs;
      }
    }
  }
  std::printf("sensitive pairs: %d of %zu\n\n", pairs, n * (n - 1) / 2);

  const ktable::KeffModel keff;
  const SinoEvaluator eval(inst, keff);

  // Net ordering only (the "NO" of ID+NO): no area cost, but inductive and
  // possibly capacitive violations remain.
  const NetOrderResult ordered = solve_net_order(inst, keff);
  report("net ordering only", ordered.slots, eval);

  // Greedy SINO: feasible, fast, slightly shield-happy.
  const ktable::SlotVec greedy = solve_greedy(eval);
  report("greedy SINO", greedy, eval);

  // Simulated annealing: min-area SINO (the [4] objective).
  AnnealOptions opt;
  opt.iterations = 30000;
  const AnnealResult annealed = solve_anneal(eval, opt);
  report("annealed SINO", annealed.slots, eval);

  std::printf(
      "\n[G] = shield tied to the P/G network; numbers are net indices.\n"
      "Greedy vs annealed area is the min-area SINO gap; ordering-only\n"
      "shows why conventional routing (Table 1) violates: no shields.\n");

  // What-if Kth sweep: the region-level version of the session API's
  // bound re-solves — the same instance re-solved under a sweep of
  // coupling bounds, showing how shield demand responds to the budget a
  // flow-level what-if (FlowSession::run with Scenario::bound_v) hands
  // each region.
  std::printf("\nwhat-if Kth sweep (same instance, re-solved greedily):\n");
  for (double f : {0.5, 0.75, 1.0, 1.5, 2.0}) {
    OwnedInstance sweep = inst;
    for (std::size_t i = 0; i < sweep.net_count(); ++i) {
      sweep.set_kth(i, kth * f);
    }
    const ktable::SlotVec slots = solve_greedy(SinoEvaluator(sweep, keff));
    std::printf("  Kth %.2f: area %2d, shields %d\n", kth * f,
                SinoEvaluator::area(slots), SinoEvaluator::shield_count(slots));
  }
  return 0;
}
