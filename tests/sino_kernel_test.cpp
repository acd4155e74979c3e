// Differential tests of the SINO evaluation kernel.
//
// The reference below is the brute-force evaluator, greedy, compaction and
// annealer the kernel replaced: every pair coupling recounts the shields
// between the pair and calls std::pow, every Ki makes O(n) pair calls,
// every partial check is a full check(), and compaction restarts from
// slot 0 after each removal. The kernel must reproduce it bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>
#include <utility>

#include "core/problem.h"
#include "core/session.h"
#include "ktable/keff.h"
#include "netlist/ispd98_synth.h"
#include "sino/anneal.h"
#include "sino/evaluator.h"
#include "sino/greedy.h"
#include "util/rng.h"

namespace rlcr::sino {
namespace {

// ------------------------------------------------------------- reference

double ref_pair_coupling(const ktable::KeffModel& keff, const SlotVec& slots,
                         std::size_t i, std::size_t j) {
  if (i == j || i >= slots.size() || j >= slots.size()) return 0.0;
  if (slots[i] < 0 || slots[j] < 0) return 0.0;
  const std::size_t lo = std::min(i, j);
  const std::size_t hi = std::max(i, j);
  int shields_between = 0;
  for (std::size_t k = lo + 1; k < hi; ++k) {
    if (slots[k] == kShieldSlot) ++shields_between;
  }
  const double base = keff.profile(static_cast<int>(hi - lo));
  return base * std::pow(keff.params().shield_attenuation, shields_between);
}

struct RefEvaluator {
  const SinoInstance inst;
  const ktable::KeffModel& keff;

  double ki(const SlotVec& slots, std::size_t victim) const {
    if (slots[victim] < 0) return 0.0;
    const auto v = static_cast<std::size_t>(slots[victim]);
    double acc = 0.0;
    for (std::size_t j = 0; j < slots.size(); ++j) {
      if (j == victim || slots[j] < 0) continue;
      if (!inst.sensitive(v, static_cast<std::size_t>(slots[j]))) continue;
      acc += ref_pair_coupling(keff, slots, victim, j);
    }
    return acc;
  }

  std::vector<double> all_ki(const SlotVec& slots) const {
    std::vector<double> out(inst.net_count(), 0.0);
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (slots[s] >= 0) out[static_cast<std::size_t>(slots[s])] = ki(slots, s);
    }
    return out;
  }

  SinoCheck check(const SlotVec& slots) const {
    SinoCheck result;
    std::vector<int> seen(inst.net_count(), 0);
    bool ok = true;
    for (ktable::Slot s : slots) {
      if (s >= 0) {
        const auto i = static_cast<std::size_t>(s);
        if (i >= seen.size() || seen[i]++) ok = false;
      }
    }
    for (int c : seen) {
      if (c != 1) ok = false;
    }
    result.placed_all = ok;
    std::ptrdiff_t prev = -1;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (slots[s] == kEmptySlot) continue;
      if (prev >= 0) {
        const ktable::Slot a = slots[static_cast<std::size_t>(prev)];
        const ktable::Slot b = slots[s];
        if (a >= 0 && b >= 0 &&
            inst.sensitive(static_cast<std::size_t>(a),
                           static_cast<std::size_t>(b))) {
          ++result.capacitive_violations;
        }
      }
      prev = static_cast<std::ptrdiff_t>(s);
    }
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (slots[s] < 0) continue;
      const double k = ki(slots, s);
      const double bound = inst.kth(static_cast<std::size_t>(slots[s]));
      if (k > bound) {
        ++result.inductive_violations;
        result.inductive_excess += k - bound;
      }
    }
    return result;
  }

  bool partial_feasible(const SlotVec& slots) const {
    const SinoCheck c = check(slots);
    return c.capacitive_violations == 0 && c.inductive_violations == 0;
  }

  double cost(const SlotVec& slots, double violation_penalty) const {
    const SinoCheck c = check(slots);
    double penalty = violation_penalty *
                     (c.capacitive_violations + c.inductive_violations);
    penalty += violation_penalty * c.inductive_excess;
    if (!c.placed_all) penalty += 1e6;
    return static_cast<double>(SinoEvaluator::area(slots)) + penalty;
  }
};

int ref_compact(SlotVec& slots, const RefEvaluator& eval) {
  int removed = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (slots[s] != kShieldSlot) continue;
      SlotVec trial = slots;
      trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(s));
      if (eval.partial_feasible(trial)) {
        slots = std::move(trial);
        ++removed;
        changed = true;
        break;
      }
    }
  }
  while (!slots.empty() && slots.back() == kEmptySlot) slots.pop_back();
  return removed;
}

SlotVec ref_greedy(const SinoInstance& instance, const RefEvaluator& eval) {
  const std::size_t n = instance.net_count();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return instance.si(a) > instance.si(b);
  });
  SlotVec slots;
  for (std::size_t net : order) {
    bool placed = false;
    const auto positions = slots.size() + 1;
    for (std::size_t k = 0; k < positions; ++k) {
      const std::size_t pos = slots.size() - k;
      slots.insert(slots.begin() + static_cast<std::ptrdiff_t>(pos),
                   static_cast<ktable::Slot>(net));
      if (eval.partial_feasible(slots)) {
        placed = true;
        break;
      }
      slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(pos));
    }
    if (placed) continue;
    slots.push_back(kShieldSlot);
    slots.push_back(static_cast<ktable::Slot>(net));
    if (eval.partial_feasible(slots)) continue;
    for (int extra = 0; extra < 6 && !eval.partial_feasible(slots); ++extra) {
      const std::size_t pos =
          (extra % 2 == 0)
              ? slots.size() - 1
              : slots.size() / 2 - static_cast<std::size_t>(extra / 2) % (slots.size() / 2 + 1);
      slots.insert(slots.begin() + static_cast<std::ptrdiff_t>(
                                       std::min(pos, slots.size())),
                   kShieldSlot);
    }
  }
  ref_compact(slots, eval);
  return slots;
}

void ref_trim(SlotVec& slots) {
  while (!slots.empty() && slots.back() == kEmptySlot) slots.pop_back();
}

AnnealResult ref_anneal(const SinoInstance& instance, const RefEvaluator& eval,
                        const AnnealOptions& options) {
  util::Xoshiro256 rng(util::SplitMix64::mix2(options.seed, 0xA22EA1));
  SlotVec current = ref_greedy(instance, eval);
  ref_trim(current);
  double current_cost = eval.cost(current, options.violation_penalty);
  AnnealResult best;
  best.slots = current;
  best.cost = current_cost;
  best.feasible = eval.check(current).feasible();
  if (instance.net_count() == 0) return best;
  const double cool =
      std::pow(options.t_end / options.t_start,
               1.0 / std::max(1, options.iterations - 1));
  double temp = options.t_start;
  for (int it = 0; it < options.iterations; ++it, temp *= cool) {
    SlotVec trial = current;
    const double move = rng.uniform();
    if (move < 0.40 && trial.size() >= 2) {
      const auto a = static_cast<std::size_t>(rng.below(trial.size()));
      const auto b = static_cast<std::size_t>(rng.below(trial.size()));
      std::swap(trial[a], trial[b]);
    } else if (move < 0.65 && trial.size() >= 2) {
      const auto a = static_cast<std::size_t>(rng.below(trial.size()));
      const auto b = static_cast<std::size_t>(rng.below(trial.size()));
      if (a != b) {
        const ktable::Slot v = trial[a];
        trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(a));
        trial.insert(trial.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(b, trial.size())),
                     v);
      }
    } else if (move < 0.85) {
      const auto pos = static_cast<std::size_t>(rng.below(trial.size() + 1));
      trial.insert(trial.begin() + static_cast<std::ptrdiff_t>(pos), kShieldSlot);
    } else {
      std::vector<std::size_t> shields;
      for (std::size_t s = 0; s < trial.size(); ++s) {
        if (trial[s] == kShieldSlot) shields.push_back(s);
      }
      if (shields.empty()) continue;
      const std::size_t pick = shields[rng.below(shields.size())];
      trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    ref_trim(trial);
    const double trial_cost = eval.cost(trial, options.violation_penalty);
    const double delta = trial_cost - current_cost;
    if (delta <= 0.0 || rng.uniform() < std::exp(-delta / temp)) {
      current = std::move(trial);
      current_cost = trial_cost;
      ++best.moves_accepted;
      const bool feasible = eval.check(current).feasible();
      if ((feasible && !best.feasible) ||
          (feasible == best.feasible && current_cost < best.cost)) {
        best.slots = current;
        best.cost = current_cost;
        best.feasible = feasible;
      }
    }
  }
  ref_compact(best.slots, eval);
  best.cost = eval.cost(best.slots, options.violation_penalty);
  best.feasible = eval.check(best.slots).feasible();
  return best;
}

// --------------------------------------------------------------- helpers

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::vector<std::uint64_t> bits(const std::vector<double>& xs) {
  std::vector<std::uint64_t> out;
  for (double x : xs) out.push_back(bits(x));
  return out;
}

void expect_same_check(const SinoCheck& want, const SinoCheck& got) {
  EXPECT_EQ(got.capacitive_violations, want.capacitive_violations);
  EXPECT_EQ(got.inductive_violations, want.inductive_violations);
  EXPECT_EQ(bits(got.inductive_excess), bits(want.inductive_excess));
  EXPECT_EQ(got.placed_all, want.placed_all);
}

/// n nets with mixed rates and bounds: some Kth tight enough that greedy
/// needs its shield fallback, some loose, some in between.
OwnedInstance random_instance(std::size_t n, util::Xoshiro256& rng) {
  const double rate = rng.uniform(0.05, 0.9);
  std::vector<SinoNet> nets(n);
  for (std::size_t i = 0; i < n; ++i) {
    nets[i].si = std::clamp(rng.uniform(rate * 0.5, rate * 1.5), 0.0, 1.0);
    const double pick = rng.uniform();
    nets[i].kth = pick < 0.15   ? rng.uniform(1e-3, 0.3)
                  : pick < 0.85 ? rng.uniform(0.3, 2.5)
                                : rng.uniform(2.5, 40.0);
  }
  OwnedInstance inst(nets);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.bernoulli(rate)) inst.set_sensitive(i, j);
    }
  }
  return inst;
}

/// A random stack over `inst`: every net (or, when `partial`, a random
/// subset) in random order, with `shields` shields and `empties` empty
/// slots scattered through it.
SlotVec random_stack(const SinoInstance& inst, std::size_t shields,
                     std::size_t empties, bool partial,
                     util::Xoshiro256& rng) {
  SlotVec slots;
  for (std::size_t i = 0; i < inst.net_count(); ++i) {
    if (!partial || rng.bernoulli(0.6)) {
      slots.push_back(static_cast<ktable::Slot>(i));
    }
  }
  for (std::size_t k = 0; k < shields; ++k) slots.push_back(kShieldSlot);
  for (std::size_t k = 0; k < empties; ++k) slots.push_back(kEmptySlot);
  rng.shuffle(slots);
  return slots;
}

/// Parameter sets that stress the tables: the default, a short profile so
/// the separation clamp binds, no shield attenuation at all, no distance
/// decay, and a large scale.
std::vector<ktable::KeffParams> param_sets() {
  std::vector<ktable::KeffParams> out(5);
  out[1].max_separation = 6;
  out[1].shield_attenuation = 0.7;
  out[2].shield_attenuation = 1.0;
  out[3].decay_exponent = 0.0;
  out[3].shield_attenuation = 0.05;
  out[4].scale = 3.7;
  out[4].decay_exponent = 1.3;
  return out;
}

void expect_kernel_matches(const SinoInstance& inst,
                           const ktable::KeffModel& keff, const SlotVec& slots) {
  const RefEvaluator ref{inst, keff};
  const SinoEvaluator eval(inst, keff);
  EXPECT_EQ(bits(eval.all_ki(slots)), bits(ref.all_ki(slots)));
  const SinoCheck want = ref.check(slots);
  expect_same_check(want, eval.check(slots));
  const bool free =
      want.capacitive_violations == 0 && want.inductive_violations == 0;
  for (std::size_t focus = 0; focus <= slots.size(); ++focus) {
    ASSERT_EQ(eval.violation_free(slots, focus), free) << "focus " << focus;
  }
  for (std::size_t i = 0; i < slots.size(); ++i) {
    for (std::size_t j = 0; j < slots.size(); ++j) {
      ASSERT_EQ(bits(keff.pair_coupling(slots, i, j)),
                bits(ref_pair_coupling(keff, slots, i, j)));
    }
  }
  SlotVec got = slots;
  SlotVec want_compact = slots;
  EXPECT_EQ(compact_shields(got, eval, free), ref_compact(want_compact, ref));
  EXPECT_EQ(got, want_compact);
}

// ------------------------------------------------------------------ tests

TEST(SinoKernelDifferential, ChecksAndCompactionMatchReferenceOnRandomStacks) {
  util::Xoshiro256 rng(20260417);
  for (const ktable::KeffParams& params : param_sets()) {
    const ktable::KeffModel keff(params);
    for (std::size_t n = 1; n <= 40; ++n) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " maxsep="
                                      << params.max_separation);
      const OwnedInstance inst = random_instance(n, rng);
      const auto shields = static_cast<std::size_t>(rng.below(n + 3));
      const auto empties = static_cast<std::size_t>(rng.below(4));
      expect_kernel_matches(inst, keff,
                            random_stack(inst, shields, empties, false, rng));
      expect_kernel_matches(inst, keff,
                            random_stack(inst, shields, empties, true, rng));
      // A malformed stack that places some nets twice: check() and
      // all_ki() must still agree with the reference.
      SlotVec twice = random_stack(inst, shields, empties, false, rng);
      for (std::size_t k = 0; k < 3; ++k) {
        twice.push_back(static_cast<ktable::Slot>(rng.below(n)));
      }
      rng.shuffle(twice);
      const RefEvaluator ref{inst, keff};
      const SinoEvaluator eval(inst, keff);
      expect_same_check(ref.check(twice), eval.check(twice));
      EXPECT_EQ(bits(eval.all_ki(twice)), bits(ref.all_ki(twice)));
    }
  }
}

TEST(SinoKernelDifferential, WideStacksPastBothTables) {
  // More than 128 slots (the default profile length) and more than 64
  // shields (the attenuation table), so both clamps and the std::pow
  // fallback are on the path.
  util::Xoshiro256 rng(7919);
  const ktable::KeffModel keff;
  for (int rep = 0; rep < 3; ++rep) {
    const OwnedInstance inst = random_instance(40, rng);
    const SlotVec slots = random_stack(inst, 100, 10, false, rng);
    ASSERT_GT(slots.size(), 128u);
    expect_kernel_matches(inst, keff, slots);
  }
  // Every slot between the pair a shield: 70 shields between two nets.
  OwnedInstance pair({SinoNet{0.5, 1.0}, SinoNet{0.5, 1.0}});
  pair.set_sensitive(0, 1);
  SlotVec slots{0};
  slots.insert(slots.end(), 70, kShieldSlot);
  slots.push_back(1);
  expect_kernel_matches(pair, keff, slots);
  EXPECT_EQ(bits(keff.pair_coupling(slots, 0, 71)),
            bits(keff.profile(71) * std::pow(0.38, 70)));
}

TEST(SinoKernelDifferential, GreedyAndAnnealMatchReference) {
  util::Xoshiro256 rng(4242);
  for (const ktable::KeffParams& params : param_sets()) {
    const ktable::KeffModel keff(params);
    for (std::size_t n = 1; n <= 40; n += (n < 12 ? 1 : 7)) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " maxsep="
                                      << params.max_separation);
      const OwnedInstance inst = random_instance(n, rng);
      const RefEvaluator ref{inst, keff};
      const SinoEvaluator eval(inst, keff);
      const SlotVec greedy = solve_greedy(eval);
      ASSERT_EQ(greedy, ref_greedy(inst, ref));
      if (n > 14) continue;  // the reference annealer is O(n^3) per move
      AnnealOptions opt;
      opt.seed = rng();
      opt.iterations = 400;
      const AnnealResult want = ref_anneal(inst, ref, opt);
      for (const AnnealResult& got :
           {solve_anneal(eval, opt), solve_anneal(eval, greedy, opt)}) {
        EXPECT_EQ(got.slots, want.slots);
        EXPECT_EQ(bits(got.cost), bits(want.cost));
        EXPECT_EQ(got.feasible, want.feasible);
        EXPECT_EQ(got.moves_accepted, want.moves_accepted);
      }
    }
  }
}

TEST(SinoKernelDifferential, EveryIbm01RegionMatchesReference) {
  const auto classes = netlist::ispd98_classes(0.25);
  const netlist::Ispd98ClassSpec* cls =
      netlist::find_ispd98_class(classes, "ibm01");
  ASSERT_NE(cls, nullptr);
  const netlist::Ispd98Instance design = netlist::make_ispd98_instance(*cls);
  const gsino::RoutingProblem problem(design.design, design.gspec,
                                      gsino::GsinoParams{});
  gsino::FlowSession session(problem);
  const gsino::FlowState state = session.state(gsino::FlowKind::kGsino);
  const ktable::KeffModel& keff = problem.keff();
  std::size_t regions = 0;
  for (std::size_t si = 0; si < state.solution_count(); ++si) {
    const gsino::RegionSolution sol = state.solution(si);
    if (sol.empty()) continue;
    ++regions;
    const RefEvaluator ref{sol.instance, keff};
    const SinoEvaluator eval(sol.instance, keff);
    const SlotVec greedy = solve_greedy(eval);
    ASSERT_EQ(greedy, ref_greedy(sol.instance, ref));
    ASSERT_EQ(greedy, state.slots[si]);
    ASSERT_EQ(bits(eval.all_ki(greedy)), bits(ref.all_ki(greedy)));
    ASSERT_EQ(bits(std::vector<double>(sol.ki.begin(), sol.ki.end())),
              bits(ref.all_ki(greedy)));
    expect_same_check(ref.check(greedy), eval.check(greedy));
  }
  EXPECT_GT(regions, 1000u);
}

TEST(SinoKernelProperty, RemovingAShieldNeverLowersKiNorBreaksAdjacency) {
  // The exactness argument behind compaction's resume: with the validated
  // KeffParams ranges, dropping any shield can only raise every Ki and add
  // capacitive adjacencies, never lower or remove one.
  util::Xoshiro256 rng(31337);
  for (const ktable::KeffParams& params : param_sets()) {
    const ktable::KeffModel keff(params);
    for (int rep = 0; rep < 40; ++rep) {
      const auto n = static_cast<std::size_t>(rng.range(2, 30));
      OwnedInstance inst = random_instance(n, rng);
      // Everything sensitive to everything, so every pair couples and
      // every adjacency is visible below.
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) inst.set_sensitive(i, j);
      }
      const SlotVec slots = random_stack(
          inst, static_cast<std::size_t>(rng.range(1, 80)),
          static_cast<std::size_t>(rng.below(5)), rep % 2 == 1, rng);
      const SinoEvaluator eval(inst, keff);
      auto adjacencies = [](const SlotVec& s) {
        std::set<std::pair<ktable::Slot, ktable::Slot>> out;
        std::ptrdiff_t prev = -1;
        for (std::size_t i = 0; i < s.size(); ++i) {
          if (s[i] == kEmptySlot) continue;
          if (prev >= 0 && s[static_cast<std::size_t>(prev)] >= 0 && s[i] >= 0) {
            out.insert(std::minmax(s[static_cast<std::size_t>(prev)], s[i]));
          }
          prev = static_cast<std::ptrdiff_t>(i);
        }
        return out;
      };
      const std::vector<double> before = eval.all_ki(slots);
      const auto adj_before = adjacencies(slots);
      for (std::size_t s = 0; s < slots.size(); ++s) {
        if (slots[s] != kShieldSlot) continue;
        SlotVec fewer = slots;
        fewer.erase(fewer.begin() + static_cast<std::ptrdiff_t>(s));
        const std::vector<double> after = eval.all_ki(fewer);
        for (std::size_t net = 0; net < n; ++net) {
          ASSERT_GE(after[net], before[net]) << "net " << net << " shield " << s;
        }
        const auto adj_after = adjacencies(fewer);
        ASSERT_TRUE(std::includes(adj_after.begin(), adj_after.end(),
                                  adj_before.begin(), adj_before.end()))
            << "shield " << s;
      }
    }
  }
}

/// A random violation-free stack over a random subset of `inst`'s nets
/// (each with probability 0.7), with empty slots and spare shields: every
/// net goes in at a random position, behind a shield now and then, and is
/// taken out again when the stack stops being violation-free.
SlotVec random_free_stack(const SinoInstance& inst, const SinoEvaluator& eval,
                          util::Xoshiro256& rng) {
  SlotVec slots(static_cast<std::size_t>(rng.below(4)), kEmptySlot);
  std::vector<ktable::Slot> nets;
  for (std::size_t i = 0; i < inst.net_count(); ++i) {
    if (rng.bernoulli(0.7)) nets.push_back(static_cast<ktable::Slot>(i));
  }
  rng.shuffle(nets);
  for (ktable::Slot net : nets) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      SlotVec trial = slots;
      const auto pos = static_cast<std::size_t>(rng.below(trial.size() + 1));
      trial.insert(trial.begin() + static_cast<std::ptrdiff_t>(pos), net);
      for (int k = 0; k < 2; ++k) {
        if (!rng.bernoulli(0.4)) continue;
        const auto at = static_cast<std::size_t>(rng.below(trial.size() + 1));
        trial.insert(trial.begin() + static_cast<std::ptrdiff_t>(at),
                     rng.bernoulli(0.8) ? kShieldSlot : kEmptySlot);
      }
      if (eval.violation_free(trial, 0)) {
        slots = std::move(trial);
        break;
      }
    }
  }
  return slots;
}

TEST(SinoKernelDifferential, EditChecksMatchTheFullCheckOnViolationFreeStacks) {
  // For every single-net insertion and every single-shield removal on
  // random violation-free stacks, the edit check must give the full
  // check's answer. The full check is pinned to the brute-force
  // reference by the tests above. param_sets()[1] has max_separation 6,
  // which the wider stacks exceed.
  util::Xoshiro256 rng(27182818);
  std::size_t passed = 0, failed = 0;
  for (const ktable::KeffParams& params : param_sets()) {
    const ktable::KeffModel keff(params);
    for (std::size_t n = 1; n <= 40; ++n) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " maxsep="
                                      << params.max_separation);
      const OwnedInstance inst = random_instance(n, rng);
      const SinoEvaluator eval(inst, keff);
      const SlotVec slots = random_free_stack(inst, eval, rng);
      const RefEvaluator ref{inst, keff};
      ASSERT_TRUE(ref.check(slots).violation_free());
      std::vector<char> stacked(n, 0);
      for (ktable::Slot v : slots) {
        if (v >= 0) stacked[static_cast<std::size_t>(v)] = 1;
      }
      const auto expect_same = [&](const SlotVec& edited, SinoEdit edit) {
        const bool want = eval.violation_free(edited, edit.at);
        ASSERT_EQ(eval.violation_free_after(edited, edit), want)
            << (edit.kind == SinoEdit::Kind::kNetInserted ? "insert at "
                                                          : "remove at ")
            << edit.at;
        ++(want ? passed : failed);
      };
      for (std::size_t net = 0; net < n; ++net) {
        if (stacked[net]) continue;
        for (std::size_t pos = 0; pos <= slots.size(); ++pos) {
          SlotVec edited = slots;
          edited.insert(edited.begin() + static_cast<std::ptrdiff_t>(pos),
                        static_cast<ktable::Slot>(net));
          expect_same(edited, SinoEdit::net_inserted(pos));
          // The greedy's fallback: shields inserted after the net keep the
          // same check exact.
          const auto at = static_cast<std::size_t>(rng.below(edited.size() + 1));
          edited.insert(edited.begin() + static_cast<std::ptrdiff_t>(at),
                        kShieldSlot);
          expect_same(edited, SinoEdit::net_inserted(at <= pos ? pos + 1 : pos));
        }
      }
      for (std::size_t gap = 0; gap < slots.size(); ++gap) {
        if (slots[gap] != kShieldSlot) continue;
        SlotVec edited = slots;
        edited.erase(edited.begin() + static_cast<std::ptrdiff_t>(gap));
        expect_same(edited, SinoEdit::shield_removed(gap));
      }
      // Compaction told the stack is violation-free matches the reference.
      SlotVec got = slots;
      SlotVec want = slots;
      EXPECT_EQ(compact_shields(got, eval, true), ref_compact(want, ref));
      EXPECT_EQ(got, want);
    }
  }
  // Both answers occur, so neither half of the check is idle.
  EXPECT_GT(passed, 1000u);
  EXPECT_GT(failed, 1000u);
}

TEST(SinoKernelWork, InsertionSumsOnlyTheNetAndTheNetsItAttacks) {
  // Ten stacked nets, a shield between each two, each sensitive to its
  // stack neighbours; the new net x is sensitive to exactly k of them.
  // Every Kth is below profile(1), so no net is exempt from its Ki sum:
  // the full check sums every net, the insertion check only x and its k
  // victims.
  constexpr std::size_t kStacked = 10, k = 3;
  OwnedInstance inst(std::vector<SinoNet>(kStacked + 1, SinoNet{0.5, 0.9}));
  const std::size_t x = kStacked;
  for (std::size_t i = 0; i + 1 < kStacked; ++i) inst.set_sensitive(i, i + 1);
  for (std::size_t i = 0; i < k; ++i) inst.set_sensitive(x, 2 * i);
  const ktable::KeffModel keff;
  ASSERT_LT(0.9, keff.profile(1));
  SlotVec slots;
  for (std::size_t i = 0; i < kStacked; ++i) {
    if (i > 0) slots.push_back(kShieldSlot);
    slots.push_back(static_cast<ktable::Slot>(i));
  }
  const SinoEvaluator eval(inst, keff);
  ASSERT_TRUE(eval.violation_free(slots, 0));
  slots.push_back(kShieldSlot);
  slots.push_back(static_cast<ktable::Slot>(x));
  const std::size_t pos = slots.size() - 1;

  const std::size_t before = eval.ki_sums();
  EXPECT_TRUE(eval.violation_free_after(slots, SinoEdit::net_inserted(pos)));
  EXPECT_LE(eval.ki_sums() - before, k + 1);

  const std::size_t full_before = eval.ki_sums();
  EXPECT_TRUE(eval.violation_free(slots, pos));
  EXPECT_EQ(eval.ki_sums() - full_before, kStacked + 1);
}

TEST(SinoKernelProperty, CouplingTablesNeverIncreaseAtExtremeParameters) {
  // The insertion and removal arguments need profile(d) non-increasing
  // over [1, max_separation] and attenuation(s) non-increasing over the
  // table and past it, as computed. KeffModel checks both when built;
  // this sweeps the edges of the accepted ranges.
  const double extremes[] = {0.0, 1e-300, 1.0 - std::ldexp(1.0, -52), 1.0};
  for (double decay : extremes) {
    for (double att : extremes) {
      for (int maxsep : {1, 6, 128}) {
        ktable::KeffParams params;
        params.decay_exponent = decay;
        params.shield_attenuation = att;
        params.max_separation = maxsep;
        SCOPED_TRACE(testing::Message() << "decay=" << decay << " att=" << att
                                        << " maxsep=" << maxsep);
        if (att == 0.0) {
          EXPECT_THROW(ktable::KeffModel{params}, std::invalid_argument);
          continue;
        }
        const ktable::KeffModel keff(params);
        for (int d = 1; d <= maxsep + 1; ++d) {
          ASSERT_LE(keff.profile(d + 1), keff.profile(d)) << "d=" << d;
        }
        for (int sh = 0; sh <= 70; ++sh) {
          ASSERT_LE(keff.attenuation(sh + 1), keff.attenuation(sh))
              << "shields=" << sh;
        }
        ASSERT_LE(keff.attenuation(0), 1.0);
      }
    }
  }
}

}  // namespace
}  // namespace rlcr::sino
