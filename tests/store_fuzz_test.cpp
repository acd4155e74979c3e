// Mutation fuzzing of the routing, budget, region-solve and refine store
// records. Every
// mutant of a valid record (bit flips, truncations, inflated length
// fields, splices of two records), with its frame checksum left stale or
// recomputed so the payload parser sees it, must either be rejected
// cleanly or load and save back to exactly the mutant's bytes. The seeds
// and iteration counts are fixed, so every run replays the same mutants;
// the ASan+UBSan job runs this file too.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/session.h"
#include "store/serial.h"
#include "util/binio.h"
#include "util/hash.h"

#include "core/experiment.h"
#include "mutate.h"

namespace rlcr::gsino {
namespace {

constexpr std::size_t kHeader = 8 + 4 + 4 + 8, kChecksum = 8;

/// Rewrites the frame's payload size and checksum to fit `bytes`, so the
/// loader's frame checks pass and the payload parser decides.
void reframe(std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kHeader + kChecksum) return;
  const std::size_t payload = bytes.size() - kHeader - kChecksum;
  fuzz::Mutator::store_u64(bytes, 16, payload);
  util::Fnv1a64 h;
  for (std::size_t i = kHeader; i < kHeader + payload; ++i) h.u8(bytes[i]);
  fuzz::Mutator::store_u64(bytes, kHeader + payload, h.value());
}

/// A 12x12-region, 120-net synthetic design, like the store tests'.
netlist::SyntheticSpec fixture_spec() {
  netlist::SyntheticSpec spec = netlist::tiny_spec(120, 7);
  spec.grid_cols = 12;
  spec.grid_rows = 12;
  spec.chip_w_um = 600.0;
  spec.chip_h_um = 600.0;
  spec.h_capacity = 12;
  spec.v_capacity = 12;
  spec.local_sigma_regions = 2.0;
  return spec;
}

GsinoParams fixture_params() {
  GsinoParams params;
  params.sensitivity_rate = 0.4;
  return params;
}

struct Fixture {
  netlist::SyntheticSpec spec = fixture_spec();
  netlist::Netlist design = netlist::generate(spec);
  RoutingProblem problem;
  FlowSession session;
  std::shared_ptr<const RoutingArtifact> phase1;
  std::shared_ptr<const BudgetArtifact> budget, other_budget;
  std::shared_ptr<const RegionSolveArtifact> solve, other_solve;
  std::shared_ptr<const RefineArtifact> refine, other_refine;

  Fixture()
      : problem(make_problem(design, spec, fixture_params())),
        session(problem) {
    phase1 = session.route(FlowKind::kGsino);
    budget = session.budget(FlowKind::kGsino, phase1, 0.15, 1.0);
    other_budget = session.budget(FlowKind::kGsino, phase1, 0.11, 1.0);
    solve = session.solve_regions(FlowKind::kGsino, phase1, budget, false);
    other_solve =
        session.solve_regions(FlowKind::kGsino, phase1, other_budget, false);
    refine = session.refine(solve);
    other_refine = session.refine(other_solve);
  }
};

const Fixture& fixture() {
  static const Fixture fx;
  return fx;
}

template <typename Load>
void fuzz_record(const std::vector<std::uint8_t>& a,
                 const std::vector<std::uint8_t>& b, std::uint64_t seed,
                 int iterations, const Load& load) {
  fuzz::Mutator mutator(seed);
  int loaded = 0, rejected = 0;
  for (int it = 0; it < iterations; ++it) {
    fuzz::Mutator::Op op;
    std::vector<std::uint8_t> mutant = mutator.mutate(a, b, &op);
    if (mutator.coin()) reframe(mutant);
    const auto art = load(mutant);
    if (art == nullptr) {
      ++rejected;
      continue;
    }
    ++loaded;
    ASSERT_EQ(store::save(*art), mutant)
        << "iteration " << it << " op " << static_cast<int>(op);
  }
  // Both outcomes occur: the mutants reach the payload parser.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(loaded, 0);
}

TEST(StoreFuzz, RoutingRecordMutantsRejectOrRoundTrip) {
  const Fixture& fx = fixture();
  const std::vector<std::uint8_t> a = store::save(*fx.phase1);
  // A second routing of the same problem under another profile.
  router::IdRouterOptions options = fx.problem.params().router;
  options.weights.alpha *= 2.0;
  const std::vector<std::uint8_t> b =
      store::save(*compute_route(fx.problem, options));
  ASSERT_NE(store::load_routing(a, fx.problem), nullptr);
  fuzz_record(a, b, 2024, 1500, [&](const std::vector<std::uint8_t>& m) {
    return store::load_routing(m, fx.problem);
  });
}

TEST(StoreFuzz, BudgetRecordMutantsRejectOrRoundTrip) {
  const Fixture& fx = fixture();
  const std::vector<std::uint8_t> a = store::save(*fx.budget);
  const std::vector<std::uint8_t> b = store::save(*fx.other_budget);
  ASSERT_NE(store::load_budget(a, fx.problem, fx.phase1), nullptr);
  fuzz_record(a, b, 2025, 1500, [&](const std::vector<std::uint8_t>& m) {
    return store::load_budget(m, fx.problem, fx.phase1);
  });
}

// The budget rule is a u32 on disk: a record re-framed with a fresh
// checksum and a rule outside the enum is rejected, not loaded as a
// budget no rule describes.
TEST(StoreFuzz, BudgetRuleOutsideTheEnumIsRejected) {
  const Fixture& fx = fixture();
  const std::vector<std::uint8_t> good = store::save(*fx.budget);
  const auto with_rule = [&](std::uint32_t rule) {
    std::vector<std::uint8_t> bytes = good;
    for (int i = 0; i < 4; ++i) {
      bytes[kHeader + i] = static_cast<std::uint8_t>(rule >> (8 * i));
    }
    reframe(bytes);
    return store::load_budget(bytes, fx.problem, fx.phase1);
  };
  const auto same = with_rule(static_cast<std::uint32_t>(fx.budget->rule));
  ASSERT_NE(same, nullptr);
  EXPECT_EQ(store::save(*same), good);
  EXPECT_NE(with_rule(static_cast<std::uint32_t>(BudgetRule::kManhattan)),
            nullptr);
  EXPECT_NE(with_rule(static_cast<std::uint32_t>(BudgetRule::kRoutedLength)),
            nullptr);
  EXPECT_EQ(with_rule(3), nullptr);
  EXPECT_EQ(with_rule(7), nullptr);
  EXPECT_EQ(with_rule(~std::uint32_t{0}), nullptr);
}

// Likewise a routing profile's bool field is one byte, 0 or 1: any other
// value is rejected, not loaded as `true` and saved back as 1.
TEST(StoreFuzz, RoutingProfileFlagOutsideZeroOrOneIsRejected) {
  const Fixture& fx = fixture();
  const std::vector<std::uint8_t> good = store::save(*fx.phase1);
  // The profile leads the payload: alpha, beta, gamma, reserve_shields.
  const std::size_t at = kHeader + 3 * 8;
  ASSERT_EQ(good[at], fx.phase1->options.reserve_shields ? 1 : 0);
  const auto with_flag = [&](std::uint8_t v) {
    std::vector<std::uint8_t> bytes = good;
    bytes[at] = v;
    reframe(bytes);
    return store::load_routing(bytes, fx.problem);
  };
  EXPECT_NE(with_flag(good[at]), nullptr);
  EXPECT_EQ(with_flag(2), nullptr);
  EXPECT_EQ(with_flag(0xFF), nullptr);
}

TEST(StoreFuzz, SolveRecordMutantsRejectOrRoundTrip) {
  const Fixture& fx = fixture();
  const std::vector<std::uint8_t> a = store::save(*fx.solve);
  const std::vector<std::uint8_t> b = store::save(*fx.other_solve);
  ASSERT_NE(store::load_region_solve(a, fx.problem, fx.phase1, fx.budget),
            nullptr);
  fuzz_record(a, b, 2026, 1500, [&](const std::vector<std::uint8_t>& m) {
    return store::load_region_solve(m, fx.problem, fx.phase1,
                                    fx.solve->budget);
  });
}

TEST(StoreFuzz, RefineRecordMutantsRejectOrRoundTrip) {
  const Fixture& fx = fixture();
  const std::vector<std::uint8_t> a = store::save(*fx.refine);
  const std::vector<std::uint8_t> b = store::save(*fx.other_refine);
  ASSERT_NE(store::load_refine(a, fx.problem, fx.solve), nullptr);
  fuzz_record(a, b, 2027, 1500, [&](const std::vector<std::uint8_t>& m) {
    return store::load_refine(m, fx.problem, fx.solve);
  });
}

/// The payload offset of the first slot of the solve record, and the
/// member count of its first non-empty instance.
std::size_t first_slot_offset(const RegionSolveArtifact& art) {
  const RegionSolutions::Packed& st = art.solutions->packed();
  // kind u32, annealed u8, violating u64, seconds f64, instances u64,
  // members u64, kth/ki f64 per member, slot total u64, one u32 count
  // per instance.
  return kHeader + 4 + 1 + 8 + 8 + 8 + 8 + 16 * st.kth.size() + 8 +
         4 * art.solutions->size();
}

// A checksum is no MAC: a record rewritten with a fresh checksum must
// still describe a real arrangement of every instance's members, so no
// crafted record can claim any shield count it likes.
TEST(StoreFuzz, SlotsThatAreNotAnArrangementAreRejected) {
  const Fixture& fx = fixture();
  const std::vector<std::uint8_t> good = store::save(*fx.solve);
  const std::size_t at = first_slot_offset(*fx.solve);
  std::size_t first = 0;
  while (fx.solve->solutions->slots(first).empty()) ++first;
  const std::span<const ktable::Slot> slots = fx.solve->solutions->slots(first);
  ASSERT_GE(slots.size(), 2u);
  // The record's first slots are instance `first`'s.
  util::BinaryReader check(good.data() + at, 4);
  ASSERT_EQ(static_cast<ktable::Slot>(check.i32()), slots[0]);

  const auto with_slot = [&](std::size_t k, std::int32_t v) {
    std::vector<std::uint8_t> bytes = good;
    for (int i = 0; i < 4; ++i) {
      bytes[at + 4 * k + i] = static_cast<std::uint8_t>(
          static_cast<std::uint32_t>(v) >> (8 * i));
    }
    reframe(bytes);
    return store::load_region_solve(bytes, fx.problem, fx.phase1,
                                     fx.solve->budget);
  };
  const auto n = static_cast<std::int32_t>(fx.phase1->regions->count(first));
  EXPECT_NE(with_slot(0, slots[0]), nullptr);  // unchanged: loads
  EXPECT_EQ(with_slot(0, n), nullptr);          // member out of range
  EXPECT_EQ(with_slot(0, -3), nullptr);         // neither shield nor empty
  EXPECT_EQ(with_slot(0, ktable::kShieldSlot), nullptr);  // member lost
  // A member placed twice (another member lost).
  std::size_t other = 1;
  while (other < slots.size() && slots[other] < 0) ++other;
  if (other < slots.size() && slots[0] >= 0) {
    EXPECT_EQ(with_slot(other, slots[0]), nullptr);
  }
}

}  // namespace
}  // namespace rlcr::gsino
