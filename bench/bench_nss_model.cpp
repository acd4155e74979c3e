// Validates Eq. (3), the shield-count estimator used by GSINO's Phase I
// weights. The paper's technical report fits coefficients a1..a6 against
// min-area SINO solutions and reports <= 10% estimation error; this bench
// reruns that procedure with the library's SINO solvers and reports the
// achieved accuracy, overall and on shield-heavy regions (where relative
// error is meaningful — a region needing 0-1 shields makes any relative
// metric explode).
#include <cstdio>
#include <algorithm>
#include <iostream>

#include "sino/anneal.h"
#include "sino/greedy.h"
#include "sino/nss.h"
#include "util/rng.h"
#include "util/table_printer.h"

using namespace rlcr;

int main() {
  std::printf("== bench_nss_model: Eq. (3) shield-count estimator ==\n\n");
  const ktable::KeffModel keff;

  sino::NssFitOptions opt;
  opt.samples = 300;
  const sino::NssFitReport report = sino::fit_nss(keff, opt);

  util::TablePrinter coef("Fitted coefficients (Eq. 3 order a1..a6)");
  coef.set_header({"a1", "a2", "a3", "a4", "a5", "a6"});
  coef.add_row({util::fmt_double(report.coefficients.a[0], 4),
                util::fmt_double(report.coefficients.a[1], 4),
                util::fmt_double(report.coefficients.a[2], 4),
                util::fmt_double(report.coefficients.a[3], 4),
                util::fmt_double(report.coefficients.a[4], 4),
                util::fmt_double(report.coefficients.a[5], 4)});
  coef.print(std::cout);

  std::printf(
      "\nFit over %d sampled regions (Nns in [%d, %d], rates in "
      "[%.2f, %.2f]):\n"
      "  mean |error| %.2f tracks, max |error| %.2f tracks\n"
      "  mean relative error %.1f%% (vs max(1, true Nss))\n",
      report.samples, opt.min_nets, opt.max_nets, opt.min_rate, opt.max_rate,
      report.mean_abs_error, report.max_abs_error,
      100.0 * report.mean_rel_error);

  // Accuracy on shield-heavy regions, evaluated on FRESH samples (not the
  // fitting set), which is where the paper's <= 10% claim matters: these
  // are the regions whose weight the router actually needs to get right.
  const sino::NssModel model(report.coefficients);
  util::Xoshiro256 rng(777);
  int heavy = 0;
  double heavy_rel = 0.0, heavy_abs = 0.0;
  for (int s = 0; s < 150; ++s) {
    const auto nns = static_cast<std::size_t>(rng.range(8, 24));
    const double rate = rng.uniform(0.3, 0.7);
    std::vector<sino::SinoNet> nets(nns);
    for (std::size_t i = 0; i < nns; ++i) {
      nets[i] = sino::SinoNet{
          std::clamp(rng.uniform(rate * 0.5, rate * 1.5), 0.0, 1.0),
          rng.uniform(0.8, 2.0)};
    }
    sino::OwnedInstance inst(nets);
    for (std::size_t i = 0; i < nns; ++i)
      for (std::size_t j = i + 1; j < nns; ++j)
        if (rng.bernoulli(std::min(1.0, inst.si(i) * inst.si(j) / rate)))
          inst.set_sensitive(i, j);
    sino::AnnealOptions ao;
    ao.seed = rng();
    ao.iterations = 3000;
    const sino::SinoEvaluator eval(inst, keff);
    const auto greedy = sino::solve_greedy(eval);
    const auto best = sino::solve_anneal(eval, greedy, ao);
    const auto& sol = best.feasible ? best.slots : greedy;
    const int truth = sino::SinoEvaluator::shield_count(sol);
    if (truth < 3) continue;
    const double est = model.estimate(inst);
    ++heavy;
    heavy_abs += std::abs(est - truth);
    heavy_rel += std::abs(est - truth) / truth;
  }
  if (heavy > 0) {
    std::printf(
        "\nHeld-out shield-heavy regions (true Nss >= 3, %d samples):\n"
        "  mean |error| %.2f tracks, mean relative error %.1f%%\n"
        "  (paper's TR claims <= 10%% on its fitting range)\n",
        heavy, heavy_abs / heavy, 100.0 * heavy_rel / heavy);
  }
  return 0;
}
