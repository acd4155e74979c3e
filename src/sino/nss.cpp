#include "sino/nss.h"

#include <algorithm>
#include <cmath>

#include "sino/anneal.h"
#include "sino/greedy.h"
#include "util/matrix.h"
#include "util/rng.h"

namespace rlcr::sino {

double NssModel::estimate(double nns, double sum_si, double sum_si2) const {
  if (nns <= 0.0) return 0.0;
  const auto& a = c_.a;
  const double v = a[0] * sum_si2 + a[1] * sum_si2 / nns + a[2] * sum_si +
                   a[3] * sum_si / nns + a[4] * nns + a[5];
  return std::max(0.0, v);
}

double NssModel::estimate(const SinoInstance& instance) const {
  return estimate(static_cast<double>(instance.net_count()), instance.sum_si(),
                  instance.sum_si2());
}

NssCoefficients NssModel::default_coefficients() {
  // From fit_nss() with default options against the default KeffModel
  // (regenerated by bench_nss_model; see EXPERIMENTS.md).
  NssCoefficients c;
  c.a = {0.42174, 1.90922, 0.18227, -1.74625, -0.02112, 0.15539};
  return c;
}

NssFitReport fit_nss(const ktable::KeffModel& keff, const NssFitOptions& options) {
  util::Xoshiro256 rng(util::SplitMix64::mix2(options.seed, 0x255));

  std::vector<std::array<double, 6>> rows;
  std::vector<double> targets;
  rows.reserve(static_cast<std::size_t>(options.samples));
  targets.reserve(static_cast<std::size_t>(options.samples));

  for (int s = 0; s < options.samples; ++s) {
    const auto nns = static_cast<std::size_t>(
        rng.range(options.min_nets, options.max_nets));
    const double rate = rng.uniform(options.min_rate, options.max_rate);
    const double kth_base = rng.uniform(options.min_kth, options.max_kth);

    std::vector<SinoNet> nets(nns);
    for (std::size_t i = 0; i < nns; ++i) {
      nets[i].si = std::clamp(rng.uniform(rate * 0.5, rate * 1.5), 0.0, 1.0);
      nets[i].kth = kth_base * rng.uniform(0.8, 1.2);
    }
    OwnedInstance inst(nets);
    for (std::size_t i = 0; i < nns; ++i) {
      for (std::size_t j = i + 1; j < nns; ++j) {
        const double p = std::min(1.0, inst.si(i) * inst.si(j) / rate);
        if (rng.bernoulli(p)) inst.set_sensitive(i, j);
      }
    }

    AnnealOptions ao;
    ao.seed = rng();
    ao.iterations = options.anneal_iterations;
    const SinoEvaluator eval(inst, keff);
    const SlotVec greedy = solve_greedy(eval);
    const AnnealResult best = solve_anneal(eval, greedy, ao);
    const SlotVec& sol = best.feasible ? best.slots : greedy;
    const int nss = SinoEvaluator::shield_count(sol);

    const double sum_si = inst.sum_si();
    const double sum_si2 = inst.sum_si2();
    const double dn = static_cast<double>(nns);
    rows.push_back({sum_si2, sum_si2 / dn, sum_si, sum_si / dn, dn, 1.0});
    targets.push_back(static_cast<double>(nss));
  }

  // Least squares for a1..a6.
  util::Matrix a(rows.size(), 6);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < 6; ++c) a(r, c) = rows[r][c];
  }
  const std::vector<double> coef = util::least_squares(a, targets, 1e-6);

  NssFitReport report;
  std::copy_n(coef.begin(), 6, report.coefficients.a.begin());
  report.samples = static_cast<int>(rows.size());

  const NssModel model(report.coefficients);
  double sum_abs = 0.0, sum_rel = 0.0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const double est = model.estimate(rows[r][4], rows[r][2], rows[r][0]);
    const double err = std::abs(est - targets[r]);
    const double rel = err / std::max(1.0, targets[r]);
    sum_abs += err;
    sum_rel += rel;
    report.max_abs_error = std::max(report.max_abs_error, err);
    report.max_rel_error = std::max(report.max_rel_error, rel);
  }
  if (!rows.empty()) {
    report.mean_abs_error = sum_abs / static_cast<double>(rows.size());
    report.mean_rel_error = sum_rel / static_cast<double>(rows.size());
  }
  return report;
}

}  // namespace rlcr::sino
