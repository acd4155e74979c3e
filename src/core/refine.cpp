#include "core/refine.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_set>
#include <vector>

#include "obs/trace.h"
#include "util/indexed_heap.h"

namespace rlcr::gsino {

namespace {

/// Instance-net position of a global net inside a region solution, or -1.
std::ptrdiff_t find_member(const RegionSolution& sol, std::size_t net) {
  for (std::size_t i = 0; i < sol.net_index.size(); ++i) {
    if (sol.net_index[i] == net) return static_cast<std::ptrdiff_t>(i);
  }
  return -1;
}

/// Snapshot of one region's state, for accept/reject reverts.
struct RegionBackup {
  std::size_t sol_index = 0;
  RegionSolution solution;
  std::vector<double> lsk, noise;  ///< per member net
  double shields_before = 0.0;
};

RegionBackup snapshot(const FlowState& fs, std::size_t si) {
  RegionBackup b;
  b.sol_index = si;
  b.solution = fs.solutions[si];
  b.lsk.reserve(b.solution.net_index.size());
  b.noise.reserve(b.solution.net_index.size());
  for (std::size_t n : b.solution.net_index) {
    b.lsk.push_back(fs.net_lsk[n]);
    b.noise.push_back(fs.net_noise[n]);
  }
  b.shields_before = fs.congestion->shields(sol_region(si), sol_dir(si));
  return b;
}

void restore(FlowState& fs, const RegionBackup& b) {
  fs.solutions[b.sol_index] = b.solution;
  const RegionSolution& sol = fs.solutions[b.sol_index];
  for (std::size_t i = 0; i < sol.net_index.size(); ++i) {
    fs.net_lsk[sol.net_index[i]] = b.lsk[i];
    fs.net_noise[sol.net_index[i]] = b.noise[i];
  }
  fs.congestion->set_shields(sol_region(b.sol_index), sol_dir(b.sol_index),
                             b.shields_before);
}

/// Pass 2's Kth loosening: convert each member net's noise slack into a
/// per-mm coupling allowance (Fig. 2 pass 2 inner loop). A net whose
/// critical path does not run through this region tolerates any coupling
/// here; give it generous headroom.
void loosen_kth(FlowState& fs, std::size_t si, double lsk_budget) {
  RegionSolution& sol = fs.solutions[si];
  for (std::size_t i = 0; i < sol.net_index.size(); ++i) {
    const std::size_t n = sol.net_index[i];
    sino::SinoNet& snet = sol.instance.net(i);
    const double ki_now = i < sol.ki.size() ? sol.ki[i] : 0.0;
    if (sol.path_len_mm[i] <= 0.0) {
      snet.kth = std::max(snet.kth, 3.0 * (ki_now + 1.0));
      continue;
    }
    const double slack_lsk = lsk_budget - fs.net_lsk[n];
    if (slack_lsk <= 0.0) continue;
    const double dk = 0.9 * slack_lsk / sol.path_len_mm[i];
    snet.kth = std::max(snet.kth, ki_now + dk);
  }
}

/// Accept iff the re-solve removed at least one shield and no member net
/// violates the bound.
bool accepted(const FlowState& fs, const RegionBackup& b) {
  const double shields_after =
      fs.congestion->shields(sol_region(b.sol_index), sol_dir(b.sol_index));
  if (shields_after >= b.shields_before) return false;
  for (std::size_t n : fs.solutions[b.sol_index].net_index) {
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
    // coupling worth removing.
    const auto& refs = fs.occupancy().net_refs(worst);
    double best_density = std::numeric_limits<double>::infinity();
    std::size_t best_sol = 0;
    std::size_t best_member = 0;
    double best_len = 0.0;
    bool have = false;
    for (const router::NetRegionRef& ref : refs) {
      const std::size_t si = fs.sol_index(ref.region, ref.dir);
      const RegionSolution& cand = fs.solutions[si];
      if (cand.empty()) continue;
      const std::ptrdiff_t m = find_member(cand, worst);
      if (m < 0) continue;
      const auto cmi = static_cast<std::size_t>(m);
      // Skip regions off the net's critical path, with negligible
      // contribution, or whose bound has bottomed out.
      const double contribution = cand.path_len_mm[cmi] * cand.ki[cmi];
      if (contribution < 1e-6 || cand.instance.net(cmi).kth <= 2e-6) continue;
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

    RegionSolution& sol = fs.solutions[best_sol];
    const auto mi = best_member;

    // Tighten the bound so the re-solve must add shielding (Fig. 2:
    // "decrease Kth ... by allowing one more shield"). The target removes
    // the whole remaining excess from this region when it can, otherwise
    // drives this region's contribution to (almost) nothing and the next
    // iteration moves on to another region.
    const double excess = fs.net_lsk[worst] - lsk_budget;
    const double contribution = sol.path_len_mm[mi] * sol.ki[mi];
    const double target_contribution = contribution - 1.1 * excess;
    sino::SinoNet& snet = sol.instance.net(mi);
    const double targeted =
        best_len > 0.0 ? target_contribution / best_len : 0.0;
    snet.kth = std::clamp(std::min(targeted, snet.kth * params.lr_kth_shrink),
                          1e-6, snet.kth);

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
  if (options.batch_pass2) {
    reduce_congestion_batched(fs, stats, options);
  } else {
    reduce_congestion(fs, stats);
  }
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
  // shield count, so only its key moves. The heap pops the largest
  // (key, id); storing solution si under id n-1-si sends density ties to
  // the lowest index, so regions are visited in argmax-scan order.
  const std::size_t n = fs.solutions.size();
  const auto heap_id = [n](std::size_t si) {
    return static_cast<std::int32_t>(n - 1 - si);
  };
  const auto eligible = [&](std::size_t si, double dens) {
    return fs.congestion->shields(sol_region(si), sol_dir(si)) >= 1.0 &&
           dens > 0.0;
  };
  util::IndexedMaxHeap heap(n);
  {
    std::vector<util::IndexedMaxHeap::Entry> entries;
    for (std::size_t si = 0; si < n; ++si) {
      if (fs.solutions[si].empty()) continue;
      const double dens = fs.solution_density(si);
      if (eligible(si, dens)) entries.push_back({dens, heap_id(si)});
    }
    heap.build(entries);
  }

  for (int outer = 0; outer < params.lr_max_outer_pass2 && !heap.empty();
       ++outer) {
    const std::size_t pick =
        n - 1 - static_cast<std::size_t>(heap.top().first);

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
      if (eligible(pick, dens)) {
        heap.update(heap_id(pick), dens);
      } else {
        heap.erase(heap_id(pick));
      }
    } else {
      restore(fs, backup);
      ++stats.pass2_rejected;
      heap.erase(heap_id(pick));
    }
  }
}

void LocalRefiner::reduce_congestion_batched(FlowState& fs, RefineStats& stats,
                                             const RefineOptions& options) const {
  RLCR_TRACE_SPAN(pass_span, "refine.pass2_batched", "refine");
  const RoutingProblem& p = *problem_;
  const auto& params = p.params();
  const double lsk_budget = p.lsk_table().lsk_budget(fs.bound_v);
  std::unordered_set<std::size_t> done;
  std::vector<char> net_claimed(p.net_count(), 0);

  int regions_processed = 0;
  while (regions_processed < params.lr_max_outer_pass2) {
    // Eligible regions by descending density (index ascending on ties —
    // selection is a pure function of the current state).
    std::vector<std::size_t> eligible;
    for (std::size_t si = 0; si < fs.solutions.size(); ++si) {
      if (done.count(si) || fs.solutions[si].empty()) continue;
      if (fs.congestion->shields(sol_region(si), sol_dir(si)) < 1.0) {
        continue;
      }
      eligible.push_back(si);
    }
    std::stable_sort(eligible.begin(), eligible.end(),
                     [&](std::size_t a, std::size_t b) {
                       return fs.solution_density(a) > fs.solution_density(b);
                     });

    // Greedy maximal net-disjoint subset: regions sharing no net, so each
    // accept/reject decision is independent of the others in the sweep.
    std::fill(net_claimed.begin(), net_claimed.end(), 0);
    std::vector<std::size_t> picked;
    for (std::size_t si : eligible) {
      if (regions_processed + static_cast<int>(picked.size()) >=
          params.lr_max_outer_pass2) {
        break;
      }
      const RegionSolution& sol = fs.solutions[si];
      bool disjoint = true;
      for (std::size_t n : sol.net_index) {
        if (net_claimed[n]) {
          disjoint = false;
          break;
        }
      }
      if (!disjoint) continue;
      for (std::size_t n : sol.net_index) net_claimed[n] = 1;
      picked.push_back(si);
    }
    if (picked.empty()) break;

    std::vector<RegionBackup> backups;
    backups.reserve(picked.size());
    for (std::size_t si : picked) {
      backups.push_back(snapshot(fs, si));
      loosen_kth(fs, si, lsk_budget);
    }

    // One batch re-solve across the pool; bit-identical to resolving the
    // picked regions one at a time in this order.
    RLCR_TRACE_SPAN(sweep_span, "refine.batch_sweep", "refine");
    sweep_span.arg("regions", static_cast<double>(picked.size()));
    fs.resolve_regions(picked, /*allow_anneal=*/false, options.threads);
    ++stats.batch_sweeps;
    stats.batch_regions_resolved += static_cast<int>(picked.size());
    regions_processed += static_cast<int>(picked.size());

    for (const RegionBackup& b : backups) {
      if (accepted(fs, b)) {
        const double shields_after =
            fs.congestion->shields(sol_region(b.sol_index), sol_dir(b.sol_index));
        stats.pass2_shields_removed +=
            static_cast<int>(b.shields_before - shields_after);
        ++stats.pass2_accepted;
      } else {
        restore(fs, b);
        ++stats.pass2_rejected;
        done.insert(b.sol_index);
      }
    }
  }
}

}  // namespace rlcr::gsino
