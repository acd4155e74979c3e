// Focused tests of the Phase III local refiner (the paper's Fig. 2),
// driven through the staged session API: the refiner operates on the
// mutable FlowState a FlowSession builds over a Phase II solve artifact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/refine.h"
#include "core/session.h"

namespace rlcr::gsino {
namespace {

/// A congested little problem that reliably leaves Phase II with work for
/// the refiner: high sensitivity, long-ish nets, modest capacity.
struct Fixture {
  netlist::SyntheticSpec spec;
  netlist::Netlist design;
  GsinoParams params;

  Fixture() : spec(netlist::tiny_spec(500, 77)) {
    spec.grid_cols = 14;
    spec.grid_rows = 14;
    spec.chip_w_um = 700.0;
    spec.chip_h_um = 700.0;
    spec.h_capacity = 12;
    spec.v_capacity = 12;
    spec.local_sigma_regions = 2.5;
    design = netlist::generate(spec);
    params.sensitivity_rate = 0.5;
  }

  RoutingProblem problem() const { return make_problem(design, spec, params); }
};

/// GSINO through Phase II only (the refiner's input state).
FlowState phase12_state(FlowSession& session) {
  return session.state(FlowKind::kGsino);
}

TEST(Refiner, Pass1EliminatesViolations) {
  const Fixture fx;
  const RoutingProblem problem = fx.problem();
  FlowSession session(problem);
  FlowState fs = phase12_state(session);
  const std::size_t before = fs.violating;

  LocalRefiner refiner(problem);
  RefineStats stats;
  refiner.eliminate_violations(fs, stats);
  fs.refresh_noise();

  EXPECT_LE(fs.violating, before);
  EXPECT_EQ(fs.violating, fs.unfixable);  // anything left was given up on
  if (before > 0) {
    EXPECT_GT(stats.pass1_resolves, 0);
  }
}

TEST(Refiner, Pass2NeverCreatesViolations) {
  const Fixture fx;
  const RoutingProblem problem = fx.problem();
  FlowSession session(problem);
  FlowState fs = phase12_state(session);
  LocalRefiner refiner(problem);
  RefineStats stats;
  refiner.eliminate_violations(fs, stats);
  fs.refresh_noise();
  const std::size_t viol_before = fs.violating;
  const double shields_before = fs.congestion->total_shields();

  refiner.reduce_congestion(fs, stats);
  fs.refresh_noise();

  EXPECT_LE(fs.violating, viol_before);
  // Pass 2 only ever removes shields, and its counter says exactly how many.
  EXPECT_LE(fs.congestion->total_shields(), shields_before);
  EXPECT_EQ(static_cast<double>(stats.pass2_shields_removed),
            shields_before - fs.congestion->total_shields());
}

TEST(Refiner, StatsAreInternallyConsistent) {
  const Fixture fx;
  const RoutingProblem problem = fx.problem();
  FlowSession session(problem);
  FlowState fs = phase12_state(session);
  const RefineStats stats = LocalRefiner(problem).refine(fs);
  EXPECT_GE(stats.pass1_nets_fixed, 0);
  EXPECT_GE(stats.pass1_resolves, stats.pass1_nets_fixed);
  EXPECT_EQ(fs.unfixable, static_cast<std::size_t>(stats.pass1_gave_up));
  // One accept or reject per pass-2 iteration, at most the cap of them.
  EXPECT_LE(stats.pass2_accepted + stats.pass2_rejected,
            problem.params().lr_max_outer_pass2);
  // Every accept removes at least one shield.
  EXPECT_GE(stats.pass2_shields_removed, stats.pass2_accepted);
}

TEST(Refiner, RefineIsIdempotentOnCleanState) {
  // Refining an already-refined state changes nothing structural: no
  // violations appear and shields only go down (pass 2 may still harvest).
  const Fixture fx;
  const RoutingProblem problem = fx.problem();
  FlowSession session(problem);
  FlowState fs = phase12_state(session);
  const LocalRefiner refiner(problem);
  refiner.refine(fs);
  ASSERT_EQ(fs.violating, 0u);
  const double shields1 = fs.congestion->total_shields();
  refiner.refine(fs);
  fs.refresh_noise();
  EXPECT_EQ(fs.violating, 0u);
  EXPECT_LE(fs.congestion->total_shields(), shields1);
}

TEST(Refiner, SolutionsStayFeasibleAfterRefinement) {
  const Fixture fx;
  const RoutingProblem problem = fx.problem();
  FlowSession session(problem);
  const FlowResult fr = session.run(FlowKind::kGsino);
  for (const RegionSolution& sol : fr.solutions()) {
    if (sol.empty()) continue;
    const sino::SinoEvaluator eval(sol.instance, problem.keff());
    const sino::SinoCheck c =
        eval.check(ktable::SlotVec(sol.slots.begin(), sol.slots.end()));
    EXPECT_TRUE(c.placed_all);
    EXPECT_EQ(c.capacitive_violations, 0);
  }
}

// ----------------------------------------- pass-2 selection: queue vs scan
//
// reduce_congestion picks each step's region off a monotone max-queue. The
// reference below is the historical pass 2 it replaced: a linear argmax
// scan over every (region, dir) solution per iteration, with the same
// loosen / re-solve / accept-or-restore step. Both must visit the same
// regions in the same order and leave bit-identical state.

struct ScanBackup {
  std::size_t sol_index = 0;
  std::vector<double> kth, ki;
  ktable::SlotVec slots;
  std::vector<double> lsk, noise;
  double shields_before = 0.0;
};

ScanBackup scan_snapshot(const FlowState& fs, std::size_t si) {
  const RegionSolution sol = fs.solution(si);
  ScanBackup b;
  b.sol_index = si;
  for (std::size_t i = 0; i < sol.net_index.size(); ++i) {
    b.kth.push_back(sol.instance.kth(i));
    b.ki.push_back(sol.ki[i]);
    b.lsk.push_back(fs.net_lsk[sol.net_index[i]]);
    b.noise.push_back(fs.net_noise[sol.net_index[i]]);
  }
  b.slots = fs.slots[si];
  b.shields_before = fs.congestion->shields(sol_region(si), sol_dir(si));
  return b;
}

void scan_restore(FlowState& fs, const ScanBackup& b) {
  const std::size_t first = fs.regions->begin(b.sol_index);
  std::copy(b.kth.begin(), b.kth.end(), fs.kth.begin() + first);
  std::copy(b.ki.begin(), b.ki.end(), fs.ki.begin() + first);
  fs.slots[b.sol_index] = b.slots;
  const RegionSolution sol = fs.solution(b.sol_index);
  for (std::size_t i = 0; i < sol.net_index.size(); ++i) {
    fs.net_lsk[sol.net_index[i]] = b.lsk[i];
    fs.net_noise[sol.net_index[i]] = b.noise[i];
  }
  fs.congestion->set_shields(sol_region(b.sol_index), sol_dir(b.sol_index),
                             b.shields_before);
}

void scan_loosen_kth(FlowState& fs, std::size_t si, double lsk_budget) {
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

bool scan_accepted(const FlowState& fs, const ScanBackup& b) {
  const double shields_after =
      fs.congestion->shields(sol_region(b.sol_index), sol_dir(b.sol_index));
  if (shields_after >= b.shields_before) return false;
  for (std::size_t n : fs.solution(b.sol_index).net_index) {
    if (fs.net_noise[n] > fs.bound_v + 1e-9) return false;
  }
  return true;
}

void reduce_congestion_by_scan(const RoutingProblem& p, FlowState& fs,
                               RefineStats& stats) {
  const double lsk_budget = p.lsk_table().lsk_budget(fs.bound_v);
  std::unordered_set<std::size_t> done;
  for (int outer = 0; outer < p.params().lr_max_outer_pass2; ++outer) {
    double worst_density = 0.0;
    std::size_t pick = 0;
    bool found = false;
    for (std::size_t si = 0; si < fs.solution_count(); ++si) {
      if (done.count(si) || fs.regions->count(si) == 0) continue;
      if (fs.congestion->shields(sol_region(si), sol_dir(si)) < 1.0) {
        continue;
      }
      const double dens = fs.solution_density(si);
      if (dens > worst_density) {
        worst_density = dens;
        pick = si;
        found = true;
      }
    }
    if (!found) break;

    const ScanBackup backup = scan_snapshot(fs, pick);
    scan_loosen_kth(fs, pick, lsk_budget);
    fs.resolve_region(pick, /*allow_anneal=*/false);
    if (scan_accepted(fs, backup)) {
      stats.pass2_shields_removed += static_cast<int>(
          backup.shields_before -
          fs.congestion->shields(sol_region(pick), sol_dir(pick)));
      ++stats.pass2_accepted;
    } else {
      scan_restore(fs, backup);
      ++stats.pass2_rejected;
      done.insert(pick);
    }
  }
}

/// One pass-2 run: its stats and the solution indices it re-solved, in
/// order (every step re-solves exactly its pick).
struct Pass2Run {
  RefineStats stats;
  std::vector<std::size_t> picks;
};

template <typename Pass>
Pass2Run record_pass2(FlowState& fs, Pass&& pass) {
  Pass2Run run;
  fs.on_resolve = [&run](std::size_t si) { run.picks.push_back(si); };
  pass(fs, run.stats);
  fs.on_resolve = nullptr;
  return run;
}

/// Two identical post-pass-1 GSINO states.
std::pair<FlowState, FlowState> post_pass1_pair(const RoutingProblem& problem) {
  FlowSession session(problem);
  FlowState a = phase12_state(session);
  FlowState b = phase12_state(session);
  RefineStats sa, sb;
  LocalRefiner(problem).eliminate_violations(a, sa);
  LocalRefiner(problem).eliminate_violations(b, sb);
  return {std::move(a), std::move(b)};
}

bool eligible_for_pass2(const FlowState& fs, std::size_t si) {
  return fs.regions->count(si) != 0 &&
         fs.congestion->shields(sol_region(si), sol_dir(si)) >= 1.0;
}

void expect_identical(const Pass2Run& heap_run, const FlowState& heap_fs,
                      const Pass2Run& scan_run, const FlowState& scan_fs) {
  EXPECT_EQ(heap_run.picks, scan_run.picks);
  EXPECT_EQ(heap_run.stats.pass2_accepted, scan_run.stats.pass2_accepted);
  EXPECT_EQ(heap_run.stats.pass2_rejected, scan_run.stats.pass2_rejected);
  EXPECT_EQ(heap_run.stats.pass2_shields_removed,
            scan_run.stats.pass2_shields_removed);
  // Exact double equality throughout: the contract is bit identity.
  ASSERT_EQ(heap_fs.net_lsk, scan_fs.net_lsk);
  ASSERT_EQ(heap_fs.net_noise, scan_fs.net_noise);
  ASSERT_EQ(heap_fs.slots, scan_fs.slots);
  ASSERT_EQ(heap_fs.kth, scan_fs.kth);
  for (std::size_t si = 0; si < heap_fs.solution_count(); ++si) {
    ASSERT_EQ(heap_fs.congestion->shields(sol_region(si), sol_dir(si)),
              scan_fs.congestion->shields(sol_region(si), sol_dir(si)))
        << "sol " << si;
  }
}

/// Runs LocalRefiner's queue pass 2 on `heap_fs` and the reference scan on
/// `scan_fs`, expects identical results, and returns the scan's run.
Pass2Run expect_heap_matches_scan(const RoutingProblem& problem,
                                  FlowState& heap_fs, FlowState& scan_fs) {
  const LocalRefiner refiner(problem);
  const Pass2Run heap_run =
      record_pass2(heap_fs, [&](FlowState& fs, RefineStats& st) {
        refiner.reduce_congestion(fs, st);
      });
  const Pass2Run scan_run =
      record_pass2(scan_fs, [&](FlowState& fs, RefineStats& st) {
        reduce_congestion_by_scan(problem, fs, st);
      });
  expect_identical(heap_run, heap_fs, scan_run, scan_fs);
  return scan_run;
}

class Pass2HeapVsScan : public ::testing::TestWithParam<int> {};

TEST_P(Pass2HeapVsScan, BitIdenticalAtCap) {
  Fixture fx;
  fx.params.lr_max_outer_pass2 = GetParam();
  const RoutingProblem problem = fx.problem();
  auto [heap_fs, scan_fs] = post_pass1_pair(problem);

  const Pass2Run scan_run = expect_heap_matches_scan(problem, heap_fs, scan_fs);
  EXPECT_FALSE(scan_run.picks.empty());
  EXPECT_LE(scan_run.picks.size(),
            static_cast<std::size_t>(fx.params.lr_max_outer_pass2));
}

INSTANTIATE_TEST_SUITE_P(Caps, Pass2HeapVsScan,
                         ::testing::Values(1, 17, 500,
                                           GsinoParams{}.lr_max_outer_pass2));

TEST(Pass2HeapVsScanCases, DensityTiesGoToTheLowestIndex) {
  const Fixture fx;
  const RoutingProblem problem = fx.problem();
  auto [heap_fs, scan_fs] = post_pass1_pair(problem);

  // Lift every fourth eligible horizontal solution (up to six) to one
  // common utilization above every other region's, so the first picks are
  // a pure tie between them.
  double top_util = 0.0;
  for (std::size_t si = 0; si < scan_fs.solution_count(); ++si) {
    top_util = std::max(top_util, scan_fs.congestion->utilization(
                                      sol_region(si), sol_dir(si)));
  }
  const double tied_util = std::floor(top_util) + 2.0;
  std::vector<std::size_t> tied;
  std::size_t eligible_seen = 0;
  for (std::size_t si = 0; si < scan_fs.solution_count() && tied.size() < 6;
       ++si) {
    if (sol_dir(si) != grid::Dir::kHorizontal ||
        !eligible_for_pass2(scan_fs, si) || eligible_seen++ % 4 != 0) {
      continue;
    }
    tied.push_back(si);
    for (FlowState* fs : {&heap_fs, &scan_fs}) {
      const double sh = fs->congestion->shields(sol_region(si), sol_dir(si));
      fs->congestion->set_segments(sol_region(si), sol_dir(si),
                                   tied_util - sh);
    }
  }
  ASSERT_GE(tied.size(), 2u);
  for (std::size_t si : tied) {
    ASSERT_EQ(scan_fs.solution_density(si), scan_fs.solution_density(tied[0]));
  }

  const Pass2Run scan_run = expect_heap_matches_scan(problem, heap_fs, scan_fs);
  // Each tied region leaves the tie once visited (an accept lowers its
  // density, a reject retires it), so the scan takes them in index order.
  ASSERT_GE(scan_run.picks.size(), tied.size());
  EXPECT_TRUE(std::equal(tied.begin(), tied.end(), scan_run.picks.begin()));
}

TEST(Pass2HeapVsScanCases, AcceptThatRemovesTheLastShieldRetiresTheRegion) {
  const Fixture fx;
  const RoutingProblem problem = fx.problem();
  auto [heap_fs, scan_fs] = post_pass1_pair(problem);
  std::vector<double> shields_before(scan_fs.solution_count());
  for (std::size_t si = 0; si < scan_fs.solution_count(); ++si) {
    shields_before[si] =
        scan_fs.congestion->shields(sol_region(si), sol_dir(si));
  }

  expect_heap_matches_scan(problem, heap_fs, scan_fs);

  // Some region went from >= 1 shield to none: an accepted step made it
  // ineligible, so the heap must have dropped it as the scan skips it.
  std::size_t drained = 0;
  for (std::size_t si = 0; si < scan_fs.solution_count(); ++si) {
    if (shields_before[si] >= 1.0 &&
        scan_fs.congestion->shields(sol_region(si), sol_dir(si)) < 1.0) {
      ++drained;
    }
  }
  EXPECT_GT(drained, 0u);
}

}  // namespace
}  // namespace rlcr::gsino
