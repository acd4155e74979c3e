#include "core/refine.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "util/monotone_queue.h"

namespace rlcr::gsino {

namespace {

/// Snapshot of one region's state, for accept/reject reverts.
struct RegionBackup {
  std::size_t sol_index = 0;
  std::vector<double> kth, ki;     ///< per member
  ktable::SlotVec slots;
  std::vector<double> lsk, noise;  ///< per member net
  double shields_before = 0.0;
};

RegionBackup snapshot(const FlowState& fs, std::size_t si) {
  const RegionSolution sol = fs.solution(si);
  RegionBackup b;
  b.sol_index = si;
  b.ki.assign(sol.ki.begin(), sol.ki.end());
  b.kth.reserve(sol.net_index.size());
  b.lsk.reserve(sol.net_index.size());
  b.noise.reserve(sol.net_index.size());
  for (std::size_t i = 0; i < sol.net_index.size(); ++i) {
    b.kth.push_back(sol.instance.kth(i));
    b.lsk.push_back(fs.net_lsk[sol.net_index[i]]);
    b.noise.push_back(fs.net_noise[sol.net_index[i]]);
  }
  b.slots = fs.slots[si];
  b.shields_before = fs.congestion->shields(sol_region(si), sol_dir(si));
  return b;
}

void restore(FlowState& fs, const RegionBackup& b) {
  const std::size_t first = fs.regions->begin(b.sol_index);
  std::copy(b.kth.begin(), b.kth.end(), fs.kth.begin() + first);
  std::copy(b.ki.begin(), b.ki.end(), fs.ki.begin() + first);
  fs.slots[b.sol_index] = b.slots;
  const std::span<const std::uint32_t> members =
      fs.regions->net_index(b.sol_index);
  for (std::size_t i = 0; i < members.size(); ++i) {
    fs.net_lsk[members[i]] = b.lsk[i];
    fs.net_noise[members[i]] = b.noise[i];
  }
  fs.congestion->set_shields(sol_region(b.sol_index), sol_dir(b.sol_index),
                             b.shields_before);
}

/// Pass 2's Kth loosening: convert each member net's noise slack into a
/// per-mm coupling allowance (Fig. 2 pass 2 inner loop). A net whose
/// critical path does not run through this region tolerates any coupling
/// here; give it generous headroom.
void loosen_kth(FlowState& fs, std::size_t si, double lsk_budget) {
  const RegionSolution sol = fs.solution(si);
  const std::span<double> kth = fs.kth_of(si);
  for (std::size_t i = 0; i < sol.net_index.size(); ++i) {
    const std::size_t n = sol.net_index[i];
    const double ki_now = sol.ki[i];
    if (sol.path_len_mm[i] <= 0.0) {
      kth[i] = std::max(kth[i], 3.0 * (ki_now + 1.0));
      continue;
    }
    const double slack_lsk = lsk_budget - fs.net_lsk[n];
    if (slack_lsk <= 0.0) continue;
    const double dk = 0.9 * slack_lsk / sol.path_len_mm[i];
    kth[i] = std::max(kth[i], ki_now + dk);
  }
}

/// Accept iff the re-solve removed at least one shield and no member net
/// violates the bound.
bool accepted(const FlowState& fs, const RegionBackup& b) {
  const double shields_after =
      fs.congestion->shields(sol_region(b.sol_index), sol_dir(b.sol_index));
  if (shields_after >= b.shields_before) return false;
  for (const std::uint32_t n : fs.regions->net_index(b.sol_index)) {
    if (fs.net_noise[n] > fs.bound_v + 1e-9) return false;
  }
  return true;
}

/// What one fix attempt concluded.
struct FixOutcome {
  bool fixed = false;
  int resolves = 0;
};

/// The Fig. 2 pass-1 inner loop for one violating net: repeatedly tighten
/// the bound in the least congested region the net crosses and re-solve
/// it, until the net meets the noise bound or no region is left to tighten.
FixOutcome attempt_fix(FlowState& fs, std::size_t worst,
                       const GsinoParams& params, double lsk_budget) {
  FixOutcome out;
  for (int inner = 0; inner < params.lr_max_inner_pass1; ++inner) {
    // Least congested (region, dir) the net crosses where it still has
    // coupling worth removing, in the region set's membership order (ties
    // go to the first).
    double best_density = std::numeric_limits<double>::infinity();
    std::size_t best_sol = 0;
    std::size_t best_member = 0;
    double best_len = 0.0;
    bool have = false;
    for (const RegionSet::Membership& m : fs.regions->memberships(worst)) {
      const std::size_t si = m.si, cmi = m.member;
      const RegionSolution cand = fs.solution(si);
      // Skip regions off the net's critical path, with negligible
      // contribution, or whose bound has bottomed out.
      const double contribution = cand.path_len_mm[cmi] * cand.ki[cmi];
      if (contribution < 1e-6 || cand.instance.kth(cmi) <= 2e-6) continue;
      const double dens = fs.solution_density(si);
      if (dens < best_density) {
        best_density = dens;
        best_sol = si;
        best_member = cmi;
        best_len = cand.path_len_mm[cmi];
        have = true;
      }
    }
    if (!have) break;

    const RegionSolution sol = fs.solution(best_sol);
    const auto mi = best_member;

    // Tighten the bound so the re-solve must add shielding (Fig. 2:
    // "decrease Kth ... by allowing one more shield"). The target removes
    // the whole remaining excess from this region when it can, otherwise
    // drives this region's contribution to (almost) nothing and the next
    // iteration moves on to another region.
    const double excess = fs.net_lsk[worst] - lsk_budget;
    const double contribution = sol.path_len_mm[mi] * sol.ki[mi];
    const double target_contribution = contribution - 1.1 * excess;
    double& kth = fs.kth_of(best_sol)[mi];
    const double targeted =
        best_len > 0.0 ? target_contribution / best_len : 0.0;
    kth = std::clamp(std::min(targeted, kth * params.lr_kth_shrink), 1e-6, kth);

    fs.resolve_region(best_sol, /*allow_anneal=*/true);
    ++out.resolves;

    if (fs.net_noise[worst] <= fs.bound_v + 1e-9) {
      out.fixed = true;
      break;
    }
  }
  return out;
}

}  // namespace

RefineStats LocalRefiner::refine(FlowState& fs,
                                 const RefineOptions& options) const {
  RefineStats stats;
  eliminate_violations(fs, stats, options);
  reduce_congestion(fs, stats);
  fs.refresh_noise();
  return stats;
}

void LocalRefiner::eliminate_violations(FlowState& fs, RefineStats& stats,
                                        const RefineOptions& /*options*/) const {
  RLCR_TRACE_SPAN(pass_span, "refine.pass1", "refine");
  const RoutingProblem& p = *problem_;
  const auto& params = p.params();
  const double lsk_budget = p.lsk_table().lsk_budget(fs.bound_v);
  std::unordered_set<std::size_t> gave_up;

  for (int outer = 0; outer < params.lr_max_outer_pass1; ++outer) {
    // Net with the most severe violation (strict >, so the lowest index
    // wins ties).
    double worst_noise = fs.bound_v + 1e-9;
    std::size_t worst = 0;
    bool found = false;
    for (std::size_t n = 0; n < fs.net_noise.size(); ++n) {
      if (gave_up.count(n)) continue;
      if (fs.net_noise[n] > worst_noise) {
        worst_noise = fs.net_noise[n];
        worst = n;
        found = true;
      }
    }
    if (!found) break;

    const FixOutcome out = attempt_fix(fs, worst, params, lsk_budget);
    stats.pass1_resolves += out.resolves;
    if (out.fixed) {
      ++stats.pass1_nets_fixed;
    } else {
      gave_up.insert(worst);
      ++stats.pass1_gave_up;
    }
  }
  fs.unfixable = gave_up.size();
  fs.refresh_noise();
}

void LocalRefiner::reduce_congestion(FlowState& fs, RefineStats& stats) const {
  RLCR_TRACE_SPAN(pass_span, "refine.pass2", "refine");
  const RoutingProblem& p = *problem_;
  const auto& params = p.params();
  const double lsk_budget = p.lsk_table().lsk_budget(fs.bound_v);

  // Candidates: non-empty solutions with at least one shield and positive
  // density, keyed on density. A step changes only the picked region's
  // shield count, so only its key moves, and only down: an accepted step
  // removes a shield, which lowers density = (segments + shields) /
  // capacity. The pick leaves the queue, and an accepted pick that is
  // still eligible goes back with its lower key, so the monotone queue
  // serves it. The queue takes the largest (key, id); storing solution si
  // under id n-1-si sends density ties to the lowest index, so regions are
  // visited in argmax-scan order.
  const std::size_t n = fs.solution_count();
  const auto queue_id = [n](std::size_t si) {
    return static_cast<std::int32_t>(n - 1 - si);
  };
  const auto eligible = [&](std::size_t si, double dens) {
    return fs.congestion->shields(sol_region(si), sol_dir(si)) >= 1.0 &&
           dens > 0.0;
  };
  util::MonotoneMaxQueue queue;
  queue.build([&](auto visit) {
    for (std::size_t si = 0; si < n; ++si) {
      if (fs.regions->count(si) == 0) continue;
      const double dens = fs.solution_density(si);
      if (eligible(si, dens)) visit({dens, queue_id(si), 0});
    }
  });

  for (int outer = 0; outer < params.lr_max_outer_pass2 && queue.settle();
       ++outer) {
    const std::size_t pick = n - 1 - static_cast<std::size_t>(queue.top().id);
    queue.pop();

    const RegionBackup backup = snapshot(fs, pick);
    loosen_kth(fs, pick, lsk_budget);
    fs.resolve_region(pick, /*allow_anneal=*/false);

    if (accepted(fs, backup)) {
      const double shields_after =
          fs.congestion->shields(sol_region(pick), sol_dir(pick));
      stats.pass2_shields_removed +=
          static_cast<int>(backup.shields_before - shields_after);
      ++stats.pass2_accepted;
      // Stay a candidate while a shield is left: more slack may be
      // harvestable here. Termination is still guaranteed because every
      // acceptance removes at least one shield and the total shield count
      // is finite.
      const double dens = fs.solution_density(pick);
      if (eligible(pick, dens)) queue.push({dens, queue_id(pick), 0});
    } else {
      restore(fs, backup);
      ++stats.pass2_rejected;
    }
  }
}

}  // namespace rlcr::gsino
