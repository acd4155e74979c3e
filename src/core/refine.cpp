#include "core/refine.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "parallel/speculate.h"
#include "parallel/thread_pool.h"
#include "sino/anneal.h"
#include "util/indexed_heap.h"
#include "util/stopwatch.h"
#include "sino/evaluator.h"
#include "sino/greedy.h"

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

// ------------------------------------------------------- pass-1 speculation
//
// One pass-1 "fix attempt" (the Fig. 2 inner loop for one violating net)
// reads per-region state (solutions, their Kth values, shield counts) and
// per-net state (LSK, noise), and commits re-solves of the regions it
// tightens. attempt_fix below is that inner loop verbatim, templated over a
// state view so the identical code drives both executions:
//
//   - DirectView: the serial path — accessors forward to the FlowState and
//     resolve() is FlowState::resolve_region. Byte-for-byte the historical
//     behavior.
//   - SpecView: the speculative path — reads fall through to the frozen
//     snapshot and are recorded with version stamps (parallel/speculate.h
//     ReadSet); writes land in copy-on-write overlays, and resolve()
//     replicates resolve_region + commit_region operation for operation
//     (same solver calls, same annealing stream, same floating-point op
//     order). An overlay whose read set is untouched at commit time is
//     therefore bit-identical to the serial attempt it memoized.

/// What one fix attempt concluded (mirrors the historical loop's locals).
struct FixOutcome {
  bool fixed = false;
  int resolves = 0;
};

/// Serial view: forwards to the live FlowState; `resolved` records the
/// regions re-solved so the caller can advance the version counters.
class DirectView {
 public:
  explicit DirectView(FlowState& fs) : fs_(&fs) {}

  const RegionSolution& sol(std::size_t si) { return fs_->solutions[si]; }
  RegionSolution& sol_mut(std::size_t si) { return fs_->solutions[si]; }
  double density(std::size_t si) { return fs_->solution_density(si); }
  double lsk(std::size_t n) { return fs_->net_lsk[n]; }
  double noise(std::size_t n) { return fs_->net_noise[n]; }
  void resolve(std::size_t si) {
    fs_->resolve_region(si, /*allow_anneal=*/true);
    resolved.push_back(si);
  }

  std::vector<std::size_t> resolved;

 private:
  FlowState* fs_;
};

/// Small copy-on-write overlay keyed by index. Linear scans keep lookups
/// allocation-free and the apply order deterministic (insertion order);
/// attempts touch a handful of regions/nets, far below hash-map break-even.
template <typename T>
T* find_overlay(std::vector<std::pair<std::size_t, T>>& v, std::size_t key) {
  for (auto& kv : v) {
    if (kv.first == key) return &kv.second;
  }
  return nullptr;
}

/// Speculative view over a frozen FlowState snapshot (see the header
/// comment above). Safe to evaluate concurrently with other SpecViews:
/// shared state is read-only during the evaluation phase, and every write
/// lands in this view's own overlays.
class SpecView {
 public:
  SpecView(const FlowState& fs, const std::vector<std::uint32_t>& sol_ver,
           const std::vector<std::uint32_t>& net_ver)
      : fs_(&fs), sol_ver_(&sol_ver), net_ver_(&net_ver) {}

  const RegionSolution& sol(std::size_t si) {
    record_sol(si);
    if (const RegionSolution* o = find_overlay(sols_, si)) return *o;
    return fs_->solutions[si];
  }
  RegionSolution& sol_mut(std::size_t si) {
    record_sol(si);
    if (RegionSolution* o = find_overlay(sols_, si)) return *o;
    sols_.emplace_back(si, fs_->solutions[si]);
    return sols_.back().second;
  }
  double density(std::size_t si) {
    record_sol(si);
    // Same op order as CongestionMap::density(): (segments + shields),
    // then the divide by capacity.
    const std::size_t r = sol_region(si);
    const grid::Dir d = sol_dir(si);
    const double* sh = find_overlay(shields_, si);
    const double shields =
        sh != nullptr ? *sh : fs_->congestion->shields(r, d);
    return (fs_->congestion->segments(r, d) + shields) /
           fs_->problem->grid().capacity(d);
  }
  double lsk(std::size_t n) {
    record_net(n);
    const double* o = find_overlay(lsk_, n);
    return o != nullptr ? *o : fs_->net_lsk[n];
  }
  double noise(std::size_t n) {
    record_net(n);
    const double* o = find_overlay(noise_, n);
    return o != nullptr ? *o : fs_->net_noise[n];
  }

  /// FlowState::resolve_region + commit_region, replicated on the
  /// overlays: same greedy/anneal sequence (per-region annealing stream
  /// seed included), then the exact commit arithmetic against the
  /// overlaid LSK/noise/shield values.
  void resolve(std::size_t si) {
    RegionSolution& sol = sol_mut(si);
    if (sol.empty()) return;
    const util::Stopwatch watch;
    const RoutingProblem& p = *fs_->problem;
    const auto& keff = p.keff();
    ktable::SlotVec slots = sino::solve_greedy(sol.instance, keff);
    const sino::SinoEvaluator check_eval(sol.instance, keff);
    if (!check_eval.check(slots).feasible()) {
      sino::AnnealOptions ao;
      ao.seed = region_resolve_seed(p, si);
      ao.iterations = p.params().anneal_iterations;
      auto best = sino::solve_anneal(sol.instance, keff, ao);
      if (best.feasible) slots = std::move(best.slots);
    }
    const sino::SinoEvaluator eval(sol.instance, keff);
    std::vector<double> ki = eval.all_ki(slots);

    for (std::size_t i = 0; i < sol.net_index.size(); ++i) {
      if (i < sol.ki.size()) {
        set_lsk(sol.net_index[i],
                lsk(sol.net_index[i]) - sol.path_len_mm[i] * sol.ki[i]);
      }
    }
    sol.slots = std::move(slots);
    sol.ki = std::move(ki);
    for (std::size_t i = 0; i < sol.net_index.size(); ++i) {
      const std::size_t n = sol.net_index[i];
      set_lsk(n, lsk(n) + sol.path_len_mm[i] * sol.ki[i]);
      set_noise(n, p.lsk_table().voltage(lsk(n)));
    }
    set_shields(si, static_cast<double>(
                        sino::SinoEvaluator::shield_count(sol.slots)));
    resolve_order_.push_back(si);
    resolve_seconds_.push_back(watch.seconds());
  }

  /// True iff nothing this attempt read was touched by a commit since the
  /// snapshot — the proof its overlays equal a serial recompute.
  bool valid(const std::vector<std::uint32_t>& sol_ver,
             const std::vector<std::uint32_t>& net_ver) const {
    return sol_reads_.valid([&](std::uint64_t k) {
             return sol_ver[static_cast<std::size_t>(k)];
           }) &&
           net_reads_.valid([&](std::uint64_t k) {
             return net_ver[static_cast<std::size_t>(k)];
           });
  }

  /// Install the overlays into the live state and advance the version
  /// counters, emitting the same per-region progress events the serial
  /// re-solves would have. Solver time was spent on a worker, so each
  /// event carries the duration measured there at evaluation time — the
  /// re-solve really cost that long, just off the committing thread.
  void apply(FlowState& fs, std::vector<std::uint32_t>& sol_ver,
             std::vector<std::uint32_t>& net_ver) {
    for (auto& [si, sol] : sols_) {
      fs.solutions[si] = std::move(sol);
      ++sol_ver[si];
    }
    for (const auto& [n, v] : lsk_) {
      fs.net_lsk[n] = v;
      ++net_ver[n];
    }
    for (const auto& [n, v] : noise_) fs.net_noise[n] = v;
    for (const auto& [si, v] : shields_) {
      fs.congestion->set_shields(sol_region(si), sol_dir(si), v);
    }
    if (fs.observer) {
      for (std::size_t i = 0; i < resolve_order_.size(); ++i) {
        fs.observer(StageEvent{Stage::kRefine, fs.kind, resolve_order_[i],
                               resolve_seconds_[i], false});
      }
    }
  }

 private:
  void record_sol(std::size_t si) {
    sol_reads_.record(si, (*sol_ver_)[si]);
  }
  void record_net(std::size_t n) { net_reads_.record(n, (*net_ver_)[n]); }
  void set_lsk(std::size_t n, double v) {
    if (double* o = find_overlay(lsk_, n)) {
      *o = v;
    } else {
      lsk_.emplace_back(n, v);
    }
  }
  void set_noise(std::size_t n, double v) {
    if (double* o = find_overlay(noise_, n)) {
      *o = v;
    } else {
      noise_.emplace_back(n, v);
    }
  }
  void set_shields(std::size_t si, double v) {
    if (double* o = find_overlay(shields_, si)) {
      *o = v;
    } else {
      shields_.emplace_back(si, v);
    }
  }

  const FlowState* fs_;
  const std::vector<std::uint32_t>* sol_ver_;
  const std::vector<std::uint32_t>* net_ver_;
  parallel::ReadSet sol_reads_, net_reads_;
  std::vector<std::pair<std::size_t, RegionSolution>> sols_;
  std::vector<std::pair<std::size_t, double>> lsk_, noise_, shields_;
  std::vector<std::size_t> resolve_order_;
  std::vector<double> resolve_seconds_;  ///< parallel to resolve_order_
};

/// The Fig. 2 pass-1 inner loop for one violating net, verbatim, over a
/// state view. Immutable inputs (occupancy, bound, index packing) read
/// straight off the FlowState; everything an earlier commit could change
/// goes through the view.
template <typename View>
FixOutcome attempt_fix(View& v, std::size_t worst, const FlowState& fs,
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
      const RegionSolution& cand = v.sol(si);
      if (cand.empty()) continue;
      const std::ptrdiff_t m = find_member(cand, worst);
      if (m < 0) continue;
      const auto cmi = static_cast<std::size_t>(m);
      // Skip regions off the net's critical path, with negligible
      // contribution, or whose bound has bottomed out.
      const double contribution = cand.path_len_mm[cmi] * cand.ki[cmi];
      if (contribution < 1e-6 || cand.instance.net(cmi).kth <= 2e-6) continue;
      const double dens = v.density(si);
      if (dens < best_density) {
        best_density = dens;
        best_sol = si;
        best_member = cmi;
        best_len = cand.path_len_mm[cmi];
        have = true;
      }
    }
    if (!have) break;

    RegionSolution& sol = v.sol_mut(best_sol);
    const auto mi = best_member;

    // Tighten the bound so the re-solve must add shielding (Fig. 2:
    // "decrease Kth ... by allowing one more shield"). The target removes
    // the whole remaining excess from this region when it can, otherwise
    // drives this region's contribution to (almost) nothing and the next
    // iteration moves on to another region.
    const double excess = v.lsk(worst) - lsk_budget;
    const double contribution = sol.path_len_mm[mi] * sol.ki[mi];
    const double target_contribution = contribution - 1.1 * excess;
    sino::SinoNet& snet = sol.instance.net(mi);
    const double targeted =
        best_len > 0.0 ? target_contribution / best_len : 0.0;
    snet.kth = std::clamp(std::min(targeted, snet.kth * params.lr_kth_shrink),
                          1e-6, snet.kth);

    v.resolve(best_sol);
    ++out.resolves;

    if (v.noise(worst) <= fs.bound_v + 1e-9) {
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
                                        const RefineOptions& options) const {
  RLCR_TRACE_SPAN(pass_span, "refine.pass1", "refine");
  const RoutingProblem& p = *problem_;
  const auto& params = p.params();
  const double lsk_budget = p.lsk_table().lsk_budget(fs.bound_v);
  std::unordered_set<std::size_t> gave_up;

  const int threads = parallel::resolve_threads(options.threads);
  // speculate_batch > 1 = fixed width, 0 = adaptive width, 1 or negative
  // = off (see RefineOptions::speculate_batch in core/session.h).
  const bool spec_on =
      (options.speculate_batch > 1 || options.speculate_batch == 0) &&
      threads > 1;
  const bool spec_adaptive = spec_on && options.speculate_batch == 0;
  parallel::AdaptiveBatch adaptive_batch;

  // Version counters for snapshot validation (spec only): sol_ver[si]
  // advances when region si's state (solution, Kth, shields) changes;
  // net_ver[n] when net n's LSK/noise does.
  std::vector<std::uint32_t> sol_ver, net_ver;
  if (spec_on) {
    sol_ver.assign(fs.solutions.size(), 0);
    net_ver.assign(fs.net_noise.size(), 0);
  }

  // Net with the most severe violation (strict >, so the lowest index wins
  // ties — the historical scan).
  auto pick_worst = [&](std::size_t& worst) {
    double worst_noise = fs.bound_v + 1e-9;
    bool found = false;
    for (std::size_t n = 0; n < fs.net_noise.size(); ++n) {
      if (gave_up.count(n)) continue;
      if (fs.net_noise[n] > worst_noise) {
        worst_noise = fs.net_noise[n];
        worst = n;
        found = true;
      }
    }
    return found;
  };

  // One serial fix attempt on the live state — the historical outer-step
  // body. Advances the version counters over whatever it re-solved.
  auto run_serial = [&](std::size_t worst) {
    DirectView v(fs);
    const FixOutcome out = attempt_fix(v, worst, fs, params, lsk_budget);
    stats.pass1_resolves += out.resolves;
    if (spec_on) {
      for (const std::size_t si : v.resolved) {
        ++sol_ver[si];
        for (const std::size_t n : fs.solutions[si].net_index) ++net_ver[n];
      }
    }
    return out.fixed;
  };

  auto finish = [&](std::size_t worst, bool fixed) {
    if (fixed) {
      ++stats.pass1_nets_fixed;
    } else {
      gave_up.insert(worst);
      ++stats.pass1_gave_up;
    }
  };

  int outer = 0;
  if (!spec_on) {
    for (; outer < params.lr_max_outer_pass1; ++outer) {
      std::size_t worst = 0;
      if (!pick_worst(worst)) break;
      finish(worst, run_serial(worst));
    }
    fs.unfixable = gave_up.size();
    fs.refresh_noise();
    return;
  }

  // Speculative rounds: snapshot the k worst violators, evaluate their fix
  // attempts concurrently, then run the UNCHANGED serial order — pick the
  // worst net off the live state, consume its memoized attempt if the read
  // set survived earlier commits, replay it serially otherwise. The first
  // committed step of every round is by construction the net the serial
  // pass would have picked, so progress is guaranteed regardless of how
  // much speculation invalidates.
  bool exhausted = false;
  while (!exhausted && outer < params.lr_max_outer_pass1) {
    // Candidates in the serial pick order: noise descending, index
    // ascending on ties (stable sort over the ascending-index scan).
    std::vector<std::size_t> cand;
    for (std::size_t n = 0; n < fs.net_noise.size(); ++n) {
      if (gave_up.count(n)) continue;
      if (fs.net_noise[n] > fs.bound_v + 1e-9) cand.push_back(n);
    }
    if (cand.empty()) break;
    std::stable_sort(cand.begin(), cand.end(),
                     [&](std::size_t a, std::size_t b) {
                       return fs.net_noise[a] > fs.net_noise[b];
                     });
    const std::size_t width = static_cast<std::size_t>(
        spec_adaptive ? adaptive_batch.width() : options.speculate_batch);
    const std::size_t k =
        std::min({cand.size(), width,
                  static_cast<std::size_t>(params.lr_max_outer_pass1 - outer)});
    cand.resize(k);
    const auto round_before = parallel::SpecStats{
        static_cast<std::size_t>(stats.spec_attempted),
        static_cast<std::size_t>(stats.spec_committed),
        static_cast<std::size_t>(stats.spec_replayed)};

    std::vector<SpecView> views;
    views.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      views.emplace_back(fs, sol_ver, net_ver);
    }
    std::vector<FixOutcome> outs(k);
    stats.spec_attempted += static_cast<int>(k);
    {
      RLCR_TRACE_SPAN(spec_span, "refine.spec_round", "refine");
      spec_span.arg("batch", static_cast<double>(k));
      parallel::speculate(k, threads, [&](std::size_t i, int) {
        outs[i] = attempt_fix(views[i], cand[i], fs, params, lsk_budget);
      });
    }

    std::vector<char> used(k, 0);
    for (std::size_t step = 0;
         step < k && outer < params.lr_max_outer_pass1; ++step) {
      std::size_t worst = 0;
      if (!pick_worst(worst)) {
        exhausted = true;
        break;
      }
      std::ptrdiff_t hit = -1;
      for (std::size_t i = 0; i < k; ++i) {
        if (!used[i] && cand[i] == worst) {
          hit = static_cast<std::ptrdiff_t>(i);
          break;
        }
      }
      bool fixed;
      if (hit >= 0) {
        const auto hi = static_cast<std::size_t>(hit);
        used[hi] = 1;
        if (views[hi].valid(sol_ver, net_ver)) {
          views[hi].apply(fs, sol_ver, net_ver);
          stats.pass1_resolves += outs[hi].resolves;
          ++stats.spec_committed;
          fixed = outs[hi].fixed;
        } else {
          ++stats.spec_replayed;
          fixed = run_serial(worst);
        }
      } else {
        fixed = run_serial(worst);
      }
      finish(worst, fixed);
      ++outer;
    }
    if (spec_adaptive) {
      adaptive_batch.update(parallel::SpecStats{
          static_cast<std::size_t>(stats.spec_attempted) -
              round_before.attempted,
          static_cast<std::size_t>(stats.spec_committed) -
              round_before.committed,
          static_cast<std::size_t>(stats.spec_replayed) -
              round_before.replayed});
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
