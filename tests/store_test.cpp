// The persistent artifact store (src/store): serialization round-trip
// bit-identity for all four artifact types, rejection of version-mismatch
// / truncated / corrupted records, cross-process warm-start through a
// shared store directory (stage counters prove Phase I was skipped), LRU
// eviction under a size budget, the bounded in-memory session caches, and
// concurrent sessions sharing one store (exercised by the TSan CI job).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>
#include <vector>

#include "core/session.h"
#include "store/artifact_store.h"
#include "store/serial.h"
#include "util/binio.h"
#include "util/file_lock.h"
#include "util/hash.h"

#include "golden_util.h"

namespace rlcr::gsino {
namespace {

namespace fs = std::filesystem;

/// Same 400-net, 12x12 configuration as session_test's Pipeline, so store
/// behavior is measured on the exact workload whose goldens are pinned.
struct Pipeline {
  netlist::SyntheticSpec spec;
  netlist::Netlist design;
  GsinoParams params;

  explicit Pipeline(double rate, std::size_t nets = 400, std::uint64_t seed = 12)
      : spec(netlist::tiny_spec(nets, seed)) {
    spec.grid_cols = 12;
    spec.grid_rows = 12;
    spec.chip_w_um = 600.0;
    spec.chip_h_um = 600.0;
    spec.h_capacity = 12;
    spec.v_capacity = 12;
    spec.local_sigma_regions = 2.0;
    design = netlist::generate(spec);
    params.sensitivity_rate = rate;
  }

  RoutingProblem problem() const { return make_problem(design, spec, params); }
};

/// Fresh per-test store directory under the gtest temp dir.
fs::path store_dir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / "rlcr_store" / name;
  fs::remove_all(dir);
  return dir;
}

void expect_routing_equal(const RoutingArtifact& a, const RoutingArtifact& b,
                          const RoutingProblem& p) {
  EXPECT_EQ(router::route_hash(*a.routing), router::route_hash(*b.routing));
  EXPECT_EQ(a.routing->total_wirelength_um, b.routing->total_wirelength_um);
  EXPECT_EQ(a.routing->stats.edges_initial, b.routing->stats.edges_initial);
  EXPECT_EQ(a.routing->stats.edges_deleted, b.routing->stats.edges_deleted);
  EXPECT_EQ(a.routing->stats.prerouted_nets, b.routing->stats.prerouted_nets);
  EXPECT_TRUE(a.options.same_routing_profile(b.options));
  EXPECT_EQ(a.seed, b.seed);
  ASSERT_EQ(a.critical_path_um->size(), b.critical_path_um->size());
  for (std::size_t n = 0; n < a.critical_path_um->size(); ++n) {
    EXPECT_EQ((*a.critical_path_um)[n], (*b.critical_path_um)[n]);
  }
  const RegionSet& sa = *a.regions;
  const RegionSet& sb = *b.regions;
  ASSERT_EQ(sa.size(), sb.size());
  ASSERT_EQ(sa.member_count(), sb.member_count());
  for (std::size_t si = 0; si < sa.size(); ++si) {
    EXPECT_TRUE(sa.same_slice(si, sb)) << "instance " << si;
  }
  for (std::size_t n = 0; n < p.net_count(); ++n) {
    const auto ma = sa.memberships(n);
    const auto mb = sb.memberships(n);
    ASSERT_EQ(ma.size(), mb.size()) << "net " << n;
    for (std::size_t k = 0; k < ma.size(); ++k) {
      EXPECT_EQ(ma[k].si, mb[k].si) << "net " << n;
      EXPECT_EQ(ma[k].member, mb[k].member) << "net " << n;
    }
  }
}

// ----------------------------------------------------- round-trip fidelity

TEST(StoreSerial, RoutingRoundTripIsBitIdentical) {
  const Pipeline pipe(0.5);
  const RoutingProblem p = pipe.problem();
  FlowSession session(p);
  const auto art = session.route(FlowKind::kGsino);

  const std::vector<std::uint8_t> bytes = store::save(*art);
  const auto loaded = store::load_routing(bytes, p);
  ASSERT_NE(loaded, nullptr);
  expect_routing_equal(*art, *loaded, p);
  EXPECT_EQ(loaded->seconds, art->seconds);
}

// A non-default routing profile survives the round trip and participates
// in profile identity, so its artifact can never be mistaken for the
// default one. The low pre-route threshold sends nets down the huge-net
// L path, which the fallback counter and route hash then cover too.
TEST(StoreSerial, RoutingRoundTripCarriesRouterProfile) {
  const Pipeline pipe(0.5);
  const RoutingProblem p = pipe.problem();
  FlowSession session(p);
  router::IdRouterOptions opt = session.router_profile(FlowKind::kGsino);
  opt.huge_net_bbox_threshold = 40;
  opt.detour_slack = 3;
  const auto art = session.route(opt);
  ASSERT_GT(art->routing->stats.prerouted_nets, 0u);

  const auto loaded = store::load_routing(store::save(*art), p);
  ASSERT_NE(loaded, nullptr);
  expect_routing_equal(*art, *loaded, p);
  EXPECT_EQ(loaded->options.huge_net_bbox_threshold, 40u);
  EXPECT_EQ(loaded->options.detour_slack, 3);
  EXPECT_EQ(loaded->routing->stats.rsmt_fallback_nets,
            art->routing->stats.rsmt_fallback_nets);
  EXPECT_FALSE(loaded->options.same_routing_profile(
      session.router_profile(FlowKind::kGsino)));
}

TEST(StoreSerial, BudgetRoundTripIsBitIdenticalForEveryRule) {
  const Pipeline pipe(0.5);
  const RoutingProblem p = pipe.problem();
  FlowSession session(p);
  for (const FlowKind kind :
       {FlowKind::kIdNo, FlowKind::kIsino, FlowKind::kGsino}) {
    const auto phase1 = session.route(kind);
    const auto art = session.budget(kind, phase1, 0.15, 0.9);
    const auto loaded = store::load_budget(store::save(*art), p, phase1);
    ASSERT_NE(loaded, nullptr) << flow_name(kind);
    EXPECT_EQ(loaded->rule, art->rule);
    // Only the routed-length rule carries (and re-attaches) its routing.
    EXPECT_EQ(loaded->phase1, art->phase1) << flow_name(kind);
    EXPECT_EQ(loaded->phase1 != nullptr, kind == FlowKind::kIsino);
    EXPECT_EQ(loaded->bound_v, art->bound_v);
    EXPECT_EQ(loaded->margin, art->margin);
    ASSERT_EQ(loaded->kth->size(), art->kth->size());
    for (std::size_t n = 0; n < art->kth->size(); ++n) {
      EXPECT_EQ((*loaded->kth)[n], (*art->kth)[n]) << flow_name(kind) << " " << n;
    }
  }
}

TEST(StoreSerial, RegionSolveRoundTripIsBitIdentical) {
  const Pipeline pipe(0.5);
  const RoutingProblem p = pipe.problem();
  FlowSession session(p);
  const auto phase1 = session.route(FlowKind::kGsino);
  const auto budget = session.budget(FlowKind::kGsino, phase1, 0.15, 1.0);
  const auto art =
      session.solve_regions(FlowKind::kGsino, phase1, budget, false);

  const auto loaded =
      store::load_region_solve(store::save(*art), p, phase1, budget);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->kind, art->kind);
  EXPECT_EQ(loaded->annealed, art->annealed);
  EXPECT_EQ(loaded->violating, art->violating);
  EXPECT_EQ(loaded->phase1.get(), phase1.get());
  EXPECT_EQ(loaded->budget.get(), budget.get());

  // The loaded solutions re-attach the routing's region set and carry
  // the saved per-bound state.
  EXPECT_EQ(loaded->solutions->set().get(), phase1->regions.get());
  EXPECT_EQ(loaded->solutions->own(), art->solutions->own());
  EXPECT_EQ(loaded->solutions->packed().kth, art->solutions->packed().kth);
  EXPECT_EQ(loaded->solutions->packed().ki, art->solutions->packed().ki);
  EXPECT_EQ(loaded->solutions->packed().slot_offset,
            art->solutions->packed().slot_offset);
  EXPECT_EQ(loaded->solutions->packed().slots,
            art->solutions->packed().slots);
  ASSERT_EQ(loaded->solutions->size(), art->solutions->size());
  for (std::size_t si = 0; si < art->solutions->size(); ++si) {
    EXPECT_EQ(loaded->solutions->slots(si).size(),
              art->solutions->slots(si).size())
        << "sol " << si;
  }
  EXPECT_EQ(*art->net_lsk, *loaded->net_lsk);
  EXPECT_EQ(*art->net_noise, *loaded->net_noise);
  for (std::size_t r = 0; r < p.grid().region_count(); ++r) {
    for (const grid::Dir d : grid::kBothDirs) {
      EXPECT_EQ(art->congestion->segments(r, d),
                loaded->congestion->segments(r, d));
      EXPECT_EQ(art->congestion->shields(r, d),
                loaded->congestion->shields(r, d));
    }
  }
}

TEST(StoreSerial, RefineRoundTripIsBitIdentical) {
  const Pipeline pipe(0.5);
  const RoutingProblem p = pipe.problem();
  FlowSession session(p);
  const auto phase1 = session.route(FlowKind::kGsino);
  const auto budget = session.budget(FlowKind::kGsino, phase1, 0.15, 1.0);
  const auto solve =
      session.solve_regions(FlowKind::kGsino, phase1, budget, false);
  const auto art = session.refine(solve);

  const std::vector<std::uint8_t> bytes = store::save(*art);
  const auto loaded = store::load_refine(bytes, p, solve);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->base.get(), solve.get());
  EXPECT_EQ(loaded->violating, art->violating);
  EXPECT_EQ(loaded->unfixable, art->unfixable);
  EXPECT_EQ(loaded->seconds, art->seconds);
  EXPECT_EQ(loaded->stats.pass1_nets_fixed, art->stats.pass1_nets_fixed);
  EXPECT_EQ(loaded->stats.pass1_resolves, art->stats.pass1_resolves);
  EXPECT_EQ(loaded->stats.pass1_gave_up, art->stats.pass1_gave_up);
  EXPECT_EQ(loaded->stats.pass2_shields_removed,
            art->stats.pass2_shields_removed);
  EXPECT_EQ(loaded->stats.pass2_accepted, art->stats.pass2_accepted);
  EXPECT_EQ(loaded->stats.pass2_rejected, art->stats.pass2_rejected);
  EXPECT_EQ(*loaded->net_lsk, *art->net_lsk);
  EXPECT_EQ(*loaded->net_noise, *art->net_noise);
  EXPECT_EQ(loaded->solutions->base().get(), solve->solutions.get());
  EXPECT_EQ(loaded->solutions->own(), art->solutions->own());
  EXPECT_EQ(loaded->solutions->packed().kth, art->solutions->packed().kth);
  EXPECT_EQ(loaded->solutions->packed().ki, art->solutions->packed().ki);
  EXPECT_EQ(loaded->solutions->packed().slot_offset,
            art->solutions->packed().slot_offset);
  EXPECT_EQ(loaded->solutions->packed().slots,
            art->solutions->packed().slots);
  ASSERT_EQ(loaded->solutions->size(), art->solutions->size());
  for (std::size_t si = 0; si < art->solutions->size(); ++si) {
    EXPECT_EQ(loaded->solutions->slots(si).size(),
              art->solutions->slots(si).size())
        << "sol " << si;
  }
  for (std::size_t r = 0; r < p.grid().region_count(); ++r) {
    for (const grid::Dir d : grid::kBothDirs) {
      EXPECT_EQ(art->congestion->segments(r, d),
                loaded->congestion->segments(r, d));
      EXPECT_EQ(art->congestion->shields(r, d),
                loaded->congestion->shields(r, d));
    }
  }
}

// ------------------------------------------------------- rejection paths

TEST(StoreSerial, VersionMismatchIsRejected) {
  const Pipeline pipe(0.3, 100);
  const RoutingProblem p = pipe.problem();
  FlowSession session(p);
  std::vector<std::uint8_t> bytes = store::save(*session.route(FlowKind::kGsino));
  bytes[8] ^= 0x01;  // version field (u32 LE at offset 8)
  EXPECT_EQ(store::load_routing(bytes, p), nullptr);
}

TEST(StoreSerial, WrongArtifactTypeIsRejected) {
  const Pipeline pipe(0.3, 100);
  const RoutingProblem p = pipe.problem();
  FlowSession session(p);
  const auto phase1 = session.route(FlowKind::kGsino);
  const std::vector<std::uint8_t> routing_bytes = store::save(*phase1);
  EXPECT_EQ(store::load_budget(routing_bytes, p, phase1), nullptr);
  const auto budget = session.budget(FlowKind::kGsino, phase1, 0.15, 1.0);
  EXPECT_EQ(store::load_routing(store::save(*budget), p), nullptr);
}

TEST(StoreSerial, TruncatedRecordIsRejected) {
  const Pipeline pipe(0.3, 100);
  const RoutingProblem p = pipe.problem();
  FlowSession session(p);
  const std::vector<std::uint8_t> bytes =
      store::save(*session.route(FlowKind::kGsino));
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{10}, std::size_t{24}, bytes.size() / 2,
        bytes.size() - 1}) {
    std::vector<std::uint8_t> cut(bytes.begin(),
                                  bytes.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_EQ(store::load_routing(cut, p), nullptr) << "kept " << keep;
  }
}

TEST(StoreSerial, CorruptedPayloadFailsChecksum) {
  const Pipeline pipe(0.3, 100);
  const RoutingProblem p = pipe.problem();
  FlowSession session(p);
  std::vector<std::uint8_t> bytes = store::save(*session.route(FlowKind::kGsino));
  bytes[bytes.size() / 2] ^= 0xFF;  // mid-payload flip
  EXPECT_EQ(store::load_routing(bytes, p), nullptr);
}

TEST(StoreSerial, RecordForDifferentProblemIsRejected) {
  const Pipeline small(0.3, 100);
  const RoutingProblem p_small = small.problem();
  FlowSession session(p_small);
  const std::vector<std::uint8_t> bytes =
      store::save(*session.route(FlowKind::kGsino));
  // A problem with a different net count cannot accept the record.
  const Pipeline other(0.3, 120);
  const RoutingProblem p_other = other.problem();
  EXPECT_EQ(store::load_routing(bytes, p_other), nullptr);
  EXPECT_EQ(store::load_budget(bytes, p_other, nullptr), nullptr);
}

// ------------------------------------------------- cross-process warm start

TEST(ArtifactStore, WarmStartsAFreshSessionWithPhaseISkipped) {
  const fs::path dir = store_dir("warm_start");

  // "Process" one: compute and publish. The two processes refine under
  // different thread counts, which is no part of the refine record's key.
  FlowResult cold;
  {
    const Pipeline pipe(0.5);
    const RoutingProblem p = pipe.problem();
    SessionOptions sopt;
    sopt.store = std::make_shared<store::ArtifactStore>(dir);
    FlowSession session(p, std::move(sopt));
    Scenario serial;
    serial.refine.threads = 1;
    cold = session.run(FlowKind::kGsino, serial);
    EXPECT_EQ(session.counters().route_executed, 1u);
    EXPECT_EQ(session.counters().route_loaded, 0u);
  }

  // "Process" two: fresh problem object, fresh session, fresh store handle
  // on the same directory — only the bytes on disk are shared.
  const Pipeline pipe(0.5);
  const RoutingProblem p = pipe.problem();
  SessionOptions sopt;
  sopt.store = std::make_shared<store::ArtifactStore>(dir);
  FlowSession session(p, std::move(sopt));
  Scenario threaded;
  threaded.refine.threads = 8;
  const FlowResult warm = session.run(FlowKind::kGsino, threaded);

  // Stage counters prove Phase I, budgeting, and the Phase II region
  // solve never executed — the warm session replays entirely from disk.
  EXPECT_EQ(session.counters().route_executed, 0u);
  EXPECT_EQ(session.counters().route_loaded, 1u);
  EXPECT_EQ(session.counters().budget_executed, 0u);
  EXPECT_EQ(session.counters().budget_loaded, 1u);
  EXPECT_EQ(session.counters().solve_executed, 0u);
  EXPECT_EQ(session.counters().solve_loaded, 1u);
  EXPECT_EQ(session.counters().refine_executed, 0u);
  EXPECT_EQ(session.counters().refine_loaded, 1u);

  // And the result is bit-identical to the cold run.
  EXPECT_EQ(router::route_hash(warm.routing()), router::route_hash(cold.routing()));
  EXPECT_EQ(warm.total_wirelength_um, cold.total_wirelength_um);
  EXPECT_EQ(warm.total_shields, cold.total_shields);
  EXPECT_EQ(warm.violating, cold.violating);
  EXPECT_EQ(warm.unfixable, cold.unfixable);
  EXPECT_EQ(warm.area.width_um, cold.area.width_um);
  EXPECT_EQ(warm.area.height_um, cold.area.height_um);
  ASSERT_EQ(warm.net_lsk().size(), cold.net_lsk().size());
  for (std::size_t n = 0; n < warm.net_lsk().size(); ++n) {
    EXPECT_EQ(warm.net_lsk()[n], cold.net_lsk()[n]) << "net " << n;
    EXPECT_EQ(warm.net_noise()[n], cold.net_noise()[n]) << "net " << n;
  }
  for (std::size_t n = 0; n < warm.kth().size(); ++n) {
    EXPECT_EQ(warm.kth()[n], cold.kth()[n]) << "net " << n;
  }
}

TEST(ArtifactStore, RegionSolveRecordsRoundTripThroughTheStore) {
  // The typed region-solve layer (solve_key + put/get_region_solve) is
  // both the session's auto-publish channel and a checkpoint API for
  // callers driving the store directly; cover the direct path here with a
  // store-less session supplying the artifacts.
  const fs::path dir = store_dir("solve_records");
  const Pipeline pipe(0.5);
  const RoutingProblem p = pipe.problem();
  store::ArtifactStore store(dir);

  FlowSession session(p);
  const auto phase1 = session.route(FlowKind::kGsino);
  const auto budget = session.budget(FlowKind::kGsino, phase1, 0.15, 1.0);
  const auto solve =
      session.solve_regions(FlowKind::kGsino, phase1, budget, false);

  const std::uint64_t skey =
      store::solve_key(p, FlowKind::kGsino, false, *phase1, *budget);
  EXPECT_EQ(store.get_region_solve(skey, p, phase1, budget), nullptr);
  store.put_region_solve(skey, *solve);

  const auto loaded = store.get_region_solve(skey, p, phase1, budget);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->violating, solve->violating);
  EXPECT_EQ(*loaded->net_lsk, *solve->net_lsk);
  EXPECT_EQ(*loaded->net_noise, *solve->net_noise);
  EXPECT_EQ(loaded->phase1.get(), phase1.get());
  // A different anneal setting derives a different key — no false hit.
  const std::uint64_t skey_anneal =
      store::solve_key(p, FlowKind::kGsino, true, *phase1, *budget);
  EXPECT_NE(skey_anneal, skey);
  EXPECT_EQ(store.get_region_solve(skey_anneal, p, phase1, budget), nullptr);
}

// The stage keys are pinned literally: a drift in key derivation would
// silently turn every existing store into misses, with every output still
// correct. The routed-length budget keys on the routing it budgets from;
// the Manhattan rules do not. Keys read only artifact identities, so the
// artifacts here are never computed.
TEST(ArtifactStore, StageKeysArePinned) {
  const Pipeline pipe(0.5);
  const RoutingProblem p = pipe.problem();
  const FlowSession session(p);
  RoutingArtifact plain, gsino;
  plain.options = session.router_profile(FlowKind::kIsino);
  gsino.options = session.router_profile(FlowKind::kGsino);
  EXPECT_EQ(store::routing_key(p, plain.options), 0xb433295c47815724u);
  EXPECT_EQ(store::routing_key(p, gsino.options), 0x82fd3edf88380f12u);

  const auto budget = [](BudgetRule rule, double margin) {
    BudgetArtifact b;
    b.rule = rule;
    b.bound_v = 0.15;
    b.margin = margin;
    return b;
  };
  const BudgetArtifact manhattan = budget(BudgetRule::kManhattan, 1.0);
  BudgetArtifact routed = budget(BudgetRule::kRoutedLength, 1.0);
  routed.phase1 = std::make_shared<const RoutingArtifact>(plain);
  const BudgetArtifact margin = budget(BudgetRule::kManhattanMargin, 0.9);
  EXPECT_EQ(store::budget_key(p, manhattan.rule, 0.15, 1.0, nullptr),
            0x7ad77cfa0dbbef90u);
  EXPECT_EQ(store::budget_key(p, routed.rule, 0.15, 1.0, &plain),
            0x990224dc6ac25382u);
  EXPECT_EQ(store::budget_key(p, margin.rule, 0.15, 0.9, &gsino),
            0xa5b44f2c321ea663u);

  const std::uint64_t solve =
      store::solve_key(p, FlowKind::kGsino, false, gsino, margin);
  EXPECT_EQ(solve, 0x8294c411928fd761u);
  EXPECT_EQ(store::solve_key(p, FlowKind::kIsino, true, plain, routed),
            0x0ce0d6fb3d89d8d0u);
  EXPECT_EQ(store::refine_key(p, solve), 0x1c51df0caf8cfa4du);
}

/// True when every instance net of `solve` carries its Kth from `budget`.
bool solved_under(const RegionSolveArtifact& solve,
                  const BudgetArtifact& budget) {
  for (const RegionSolution& sol : *solve.solutions) {
    for (std::size_t i = 0; i < sol.net_index.size(); ++i) {
      if (sol.instance.kth(i) != (*budget.kth)[sol.net_index[i]]) {
        return false;
      }
    }
  }
  return true;
}

// A solve key names a routed-length budget by the routing the budget was
// derived from, not by the solve's own routing: iSINO over the ID+NO
// routing with a budget from the GSINO routing is a different solve from
// the consistent one. A second session on the same store must compute the
// consistent solve instead of loading the mixed record under the caller's
// budget, and one session keeps both solves cached side by side.
TEST(ArtifactStore, SolveKeyNamesTheBudgetsOwnRouting) {
  const fs::path dir = store_dir("solve_key_budget");
  const Pipeline pipe(0.5);
  const RoutingProblem p = pipe.problem();
  SessionOptions sopt;
  sopt.store = std::make_shared<store::ArtifactStore>(dir);

  std::vector<double> foreign_kth;
  {
    FlowSession first(p, sopt);
    const auto plain = first.route(FlowKind::kIsino);
    const auto foreign =
        first.budget(FlowKind::kIsino, first.route(FlowKind::kGsino), 0.15, 1.0);
    const auto mixed =
        first.solve_regions(FlowKind::kIsino, plain, foreign, false);
    EXPECT_TRUE(solved_under(*mixed, *foreign));
    foreign_kth = *foreign->kth;
  }

  FlowSession second(p, sopt);
  const auto plain = second.route(FlowKind::kIsino);
  const auto own = second.budget(FlowKind::kIsino, plain, 0.15, 1.0);
  ASSERT_NE(*own->kth, foreign_kth);  // the two budgets really differ
  const auto solve = second.solve_regions(FlowKind::kIsino, plain, own, false);
  EXPECT_EQ(second.counters().solve_loaded, 0u);
  EXPECT_EQ(second.counters().solve_executed, 1u);
  EXPECT_TRUE(solved_under(*solve, *own));

  // One store-less session: alternate the two requests; each computes once
  // and is a memory hit afterwards.
  FlowSession one(p);
  const auto r_plain = one.route(FlowKind::kIsino);
  const auto r_own = one.budget(FlowKind::kIsino, r_plain, 0.15, 1.0);
  const auto r_foreign =
      one.budget(FlowKind::kIsino, one.route(FlowKind::kGsino), 0.15, 1.0);
  const auto consistent =
      one.solve_regions(FlowKind::kIsino, r_plain, r_own, false);
  const auto mixed =
      one.solve_regions(FlowKind::kIsino, r_plain, r_foreign, false);
  EXPECT_EQ(one.solve_regions(FlowKind::kIsino, r_plain, r_own, false).get(),
            consistent.get());
  EXPECT_EQ(
      one.solve_regions(FlowKind::kIsino, r_plain, r_foreign, false).get(),
      mixed.get());
  EXPECT_EQ(one.counters().solve_executed, 2u);
  EXPECT_TRUE(solved_under(*consistent, *r_own));
  EXPECT_TRUE(solved_under(*mixed, *r_foreign));
}

TEST(ArtifactStore, DifferentSeedDoesNotHitTheStore) {
  const fs::path dir = store_dir("seed_miss");
  {
    const Pipeline pipe(0.5);
    const RoutingProblem p = pipe.problem();
    SessionOptions sopt;
    sopt.store = std::make_shared<store::ArtifactStore>(dir);
    FlowSession session(p, std::move(sopt));
    (void)session.run(FlowKind::kGsino);
  }
  Pipeline pipe(0.5);
  pipe.params.seed = 7;  // different master seed => different profile key
  const RoutingProblem p = pipe.problem();
  SessionOptions sopt;
  sopt.store = std::make_shared<store::ArtifactStore>(dir);
  FlowSession session(p, std::move(sopt));
  (void)session.run(FlowKind::kGsino);
  EXPECT_EQ(session.counters().route_loaded, 0u);
  EXPECT_EQ(session.counters().route_executed, 1u);
}

// ------------------------------------------------------------ store policy

TEST(ArtifactStore, EvictsLeastRecentlyUsedBeyondSizeBudget) {
  const fs::path dir = store_dir("lru");
  store::StoreOptions opt;
  opt.max_bytes = 3 * 1024;
  store::ArtifactStore store(dir, opt);

  const std::vector<std::uint8_t> blob(1024, 0xAB);
  for (std::uint64_t key = 1; key <= 3; ++key) {
    ASSERT_TRUE(store.put(store::ArtifactType::kRouting, key, blob));
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
  }
  EXPECT_EQ(store.stats().evictions, 0u);

  // Touch key 1 so key 2 becomes the LRU record, then overflow the budget.
  ASSERT_TRUE(store.get(store::ArtifactType::kRouting, 1).has_value());
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  ASSERT_TRUE(store.put(store::ArtifactType::kRouting, 4, blob));

  EXPECT_GE(store.stats().evictions, 1u);
  EXPECT_LE(store.bytes_on_disk(), opt.max_bytes);
  EXPECT_FALSE(store.get(store::ArtifactType::kRouting, 2).has_value());
  EXPECT_TRUE(store.get(store::ArtifactType::kRouting, 1).has_value());
  EXPECT_TRUE(store.get(store::ArtifactType::kRouting, 4).has_value());
}

TEST(ArtifactStore, EvictionContendsOnTheAdvisoryDirLock) {
  // flock is per open file description, so an external FileLock on the
  // store's .lock file contends with the store's own even in-process —
  // which makes the cross-process eviction serialization deterministic to
  // test: hold the lock, trigger an over-budget put, watch it block, then
  // release and watch the sweep finish with lock_waits counted.
  const fs::path dir = store_dir("dirlock");
  store::StoreOptions opt;
  opt.max_bytes = 2 * 1024 + 512;  // two records fit, the third overflows
  store::ArtifactStore store(dir, opt);

  const std::vector<std::uint8_t> blob(1024, 0x5C);
  ASSERT_TRUE(store.put(store::ArtifactType::kRouting, 1, blob));
  ASSERT_TRUE(store.put(store::ArtifactType::kRouting, 2, blob));
  EXPECT_EQ(store.stats().lock_waits, 0u);  // under budget: no contention

  util::FileLock external(dir / ".lock");
  ASSERT_TRUE(external.valid());
  ASSERT_TRUE(external.try_lock());
  ASSERT_TRUE(external.held());

  std::atomic<bool> done{false};
  std::thread sweeper([&] {
    // Over budget: the eviction sweep must wait for the external holder.
    EXPECT_TRUE(store.put(store::ArtifactType::kRouting, 3, blob));
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_FALSE(done.load()) << "eviction swept while the dir lock was held";
  external.unlock();
  sweeper.join();
  EXPECT_TRUE(done.load());

  const store::StoreStats stats = store.stats();
  EXPECT_GE(stats.lock_waits, 1u);
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(store.bytes_on_disk(), opt.max_bytes);
}

TEST(FileLock, SecondInstanceContendsAndInvalidPathDegrades) {
  const fs::path dir = store_dir("filelock");
  fs::create_directories(dir);
  util::FileLock a(dir / "l");
  util::FileLock b(dir / "l");
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(b.valid());
  EXPECT_TRUE(a.try_lock());
  EXPECT_FALSE(b.try_lock()) << "distinct descriptions must contend";
  a.unlock();
  EXPECT_TRUE(b.try_lock());
  b.unlock();

  // Unopenable lock path: every operation is a no-op that reports success
  // (cache-layer degradation must never fail the computation).
  util::FileLock broken("/proc/definitely/not/writable/l");
  EXPECT_FALSE(broken.valid());
  EXPECT_TRUE(broken.try_lock());
  broken.lock();
  broken.unlock();
}

TEST(ArtifactStore, UnusableDirectoryFailsLoudlyAtConstruction) {
  // A misconfigured store path must not silently degrade every run into a
  // cold start.
  EXPECT_THROW(store::ArtifactStore("/proc/definitely/not/writable"),
               std::runtime_error);
}

TEST(ArtifactStore, CorruptRecordOnDiskIsRejectedRemovedAndRecomputed) {
  const fs::path dir = store_dir("corrupt");
  const Pipeline pipe(0.3, 100);
  const RoutingProblem p = pipe.problem();
  auto store = std::make_shared<store::ArtifactStore>(dir);
  const std::uint64_t key = store::routing_key(p, p.params().router);
  {
    FlowSession session(p, SessionOptions{.store = store});
    (void)session.route(p.params().router);
  }

  // Flip one payload byte of the record on disk.
  fs::path record;
  for (const auto& entry : fs::directory_iterator(dir)) record = entry.path();
  ASSERT_FALSE(record.empty());
  {
    std::fstream f(record, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(64);
    const char x = static_cast<char>(0xFF);
    f.write(&x, 1);
  }

  EXPECT_EQ(store->get_routing(key, p), nullptr);
  EXPECT_EQ(store->stats().rejected, 1u);
  EXPECT_FALSE(fs::exists(record));  // dropped, slot free for republish

  // A session consulting the store simply recomputes and republishes.
  FlowSession session(p, SessionOptions{.store = store});
  (void)session.route(p.params().router);
  EXPECT_EQ(session.counters().route_executed, 1u);
  EXPECT_NE(store->get_routing(key, p), nullptr);
}

/// Re-frames a current (v6) record the way an older writer laid it out:
/// `version` in the header, with the fields that version still carried
/// spliced back in as zeros, and the payload checksum recomputed, so the
/// version field is the only thing a current reader can object to.
///   - v3..v5: the routing profile's 13 bytes of Steiner-tier and
///     pre-route-shape state — preroute_shape u32 (kL) after
///     huge_net_bbox_threshold, then tree_profile u8 (kFast) and a zero
///     tree_profile_overrides count u64 after detour_slack.
///   - v3 only: three speculation u64 ahead of the routing record's
///     trailing runtime_s/seconds/route_hash; in the refine record, the
///     leading batched-pass-2 flag byte, and after its six pass counters
///     the two batch counters and three speculation i32.
std::vector<std::uint8_t> as_old_record(const std::vector<std::uint8_t>& v6,
                                        std::uint32_t version) {
  constexpr std::size_t kHeader = 8 + 4 + 4 + 8, kChecksum = 8;
  // Profile offsets: weights 3 x f64, reserve_shields u8, then
  // huge_net_bbox_threshold u64 | max_detour_factor f64, detour_slack i32.
  constexpr std::size_t kAfterThreshold = 3 * 8 + 1 + 8;
  constexpr std::size_t kAfterSlack = kAfterThreshold + 8 + 4;
  util::BinaryReader tag(v6.data() + 12, 4);  // type field after magic+version
  const auto type = static_cast<store::ArtifactType>(tag.u32());
  std::vector<std::uint8_t> payload(
      v6.begin() + static_cast<std::ptrdiff_t>(kHeader),
      v6.end() - static_cast<std::ptrdiff_t>(kChecksum));
  if (type == store::ArtifactType::kRouting) {
    if (version == 3) payload.insert(payload.end() - 3 * 8, 3 * 8, 0);
    payload.insert(payload.begin() + kAfterSlack, 1 + 8, 0);
    payload.insert(payload.begin() + kAfterThreshold, 4, 0);
  } else if (type == store::ArtifactType::kRefine && version == 3) {
    payload.insert(payload.begin() + (8 + 8 + 6 * 4), (2 + 3) * 4, 0);
    payload.insert(payload.begin(), 1, 0);
  }
  util::BinaryWriter w;
  for (std::size_t i = 0; i < 8; ++i) w.u8(v6[i]);  // magic
  w.u32(version);
  w.u32(static_cast<std::uint32_t>(type));
  w.u64(payload.size());
  for (const std::uint8_t b : payload) w.u8(b);
  util::Fnv1a64 h;
  for (const std::uint8_t b : payload) h.u8(b);
  w.u64(h.value());
  return w.take();
}

TEST(ArtifactStore, V3RecordsAreVersionMismatchesThatRecomputeBitIdentically) {
  for (const std::uint32_t version : {3u, 5u}) {
    SCOPED_TRACE(version);
    const fs::path dir = store_dir("old_records");
    const Pipeline pipe(0.3, 100);
    const RoutingProblem p = pipe.problem();
    FlowResult cold;
    {
      FlowSession session(
          p, SessionOptions{
                 .store = std::make_shared<store::ArtifactStore>(dir)});
      cold = session.run(FlowKind::kGsino);
    }

    // Downgrade every record on disk (skipping the store's lock file).
    std::size_t rewritten = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
      std::vector<std::uint8_t> bytes;
      {
        std::ifstream in(entry.path(), std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
      }
      if (bytes.size() < 8 || std::memcmp(bytes.data(), "RLCRART", 8) != 0) {
        continue;
      }
      const std::vector<std::uint8_t> old = as_old_record(bytes, version);
      std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(old.data()),
                static_cast<std::streamsize>(old.size()));
      ++rewritten;
    }
    ASSERT_EQ(rewritten, 4u);  // routing, budget, region solve, refine

    auto store = std::make_shared<store::ArtifactStore>(dir);
    FlowSession session(p, SessionOptions{.store = store});
    const FlowResult warm = session.run(FlowKind::kGsino);

    // Every stage misses, recomputes, and republishes.
    EXPECT_EQ(store->stats().hits, 0u);
    EXPECT_EQ(store->stats().rejected, 4u);
    EXPECT_EQ(session.counters().route_executed, 1u);
    EXPECT_EQ(session.counters().route_loaded, 0u);
    EXPECT_EQ(session.counters().refine_executed, 1u);
    EXPECT_EQ(session.counters().refine_loaded, 0u);
    EXPECT_EQ(router::route_hash(warm.routing()),
              router::route_hash(cold.routing()));
    EXPECT_EQ(state_fingerprint(warm), state_fingerprint(cold));

    // The recompute republished current-format records: a third session
    // replays every stage from disk.
    FlowSession replay(
        p, SessionOptions{
               .store = std::make_shared<store::ArtifactStore>(dir)});
    EXPECT_EQ(state_fingerprint(replay.run(FlowKind::kGsino)),
              state_fingerprint(cold));
    EXPECT_EQ(replay.counters().route_loaded, 1u);
    EXPECT_EQ(replay.counters().refine_loaded, 1u);
  }
}

/// The per-(region, dir) tail of a v6 solve or refine record: every
/// instance owned a copy of its structure (members with S_i and Kth, the
/// sensitivity upper triangle, lengths) beside its slots and Ki, and the
/// congestion map was stored too.
void write_v6_state(util::BinaryWriter& w, const RegionSolutions& sols,
                    const std::vector<double>& lsk,
                    const std::vector<double>& noise,
                    const grid::CongestionMap& cmap) {
  w.u64(sols.size());
  for (const RegionSolution& sol : sols) {
    const std::size_t n = sol.net_index.size();
    w.u64(n);
    for (std::size_t i = 0; i < n; ++i) {
      w.i32(static_cast<std::int32_t>(sol.net_index[i]));
      w.f64(sol.instance.si(i));
      w.f64(sol.instance.kth(i));
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        w.u8(sol.instance.sensitive(i, j) ? 1 : 0);
      }
    }
    for (const std::uint32_t g : sol.net_index) w.u64(g);
    w.f64_vec({sol.len_mm.begin(), sol.len_mm.end()});
    w.f64_vec({sol.path_len_mm.begin(), sol.path_len_mm.end()});
    w.u64(sol.slots.size());
    for (const ktable::Slot s : sol.slots) w.i32(s);
    w.f64_vec({sol.ki.begin(), sol.ki.end()});
  }
  w.f64_vec(lsk);
  w.f64_vec(noise);
  const std::size_t regions = cmap.grid().region_count();
  w.u64(regions);
  for (const grid::Dir d : grid::kBothDirs) {
    for (std::size_t r = 0; r < regions; ++r) w.f64(cmap.segments(r, d));
    for (std::size_t r = 0; r < regions; ++r) w.f64(cmap.shields(r, d));
  }
}

std::vector<std::uint8_t> framed(store::ArtifactType type,
                                 std::uint32_t version,
                                 const std::vector<std::uint8_t>& payload) {
  util::BinaryWriter w;
  for (const char c : {'R', 'L', 'C', 'R', 'A', 'R', 'T', '\0'}) {
    w.u8(static_cast<std::uint8_t>(c));
  }
  w.u32(version);
  w.u32(static_cast<std::uint32_t>(type));
  w.u64(payload.size());
  for (const std::uint8_t b : payload) w.u8(b);
  util::Fnv1a64 h;
  for (const std::uint8_t b : payload) h.u8(b);
  w.u64(h.value());
  return w.take();
}

std::vector<std::uint8_t> v6_payload(const RegionSolveArtifact& art) {
  util::BinaryWriter w;
  w.u32(static_cast<std::uint32_t>(art.kind));
  w.u8(art.annealed ? 1 : 0);
  w.u64(art.violating);
  w.f64(art.seconds);
  write_v6_state(w, *art.solutions, *art.net_lsk, *art.net_noise,
                 *art.congestion);
  return w.take();
}

std::vector<std::uint8_t> v6_payload(const RefineArtifact& art) {
  util::BinaryWriter w;
  w.u64(art.violating);
  w.u64(art.unfixable);
  const RefineStats& s = art.stats;
  for (const int v : {s.pass1_nets_fixed, s.pass1_resolves, s.pass1_gave_up,
                      s.pass2_shields_removed, s.pass2_accepted,
                      s.pass2_rejected}) {
    w.i32(v);
  }
  w.f64(art.seconds);
  write_v6_state(w, *art.solutions, *art.net_lsk, *art.net_noise,
                 *art.congestion);
  return w.take();
}

// v6 solve and refine records held a full copy of every instance's
// structure. Stored under the keys a current session asks for, they are
// version mismatches: the session recomputes both stages bit-identically
// and republishes v7 records. The same payload framed as v7 does not parse
// either, so an old record is never misread.
TEST(ArtifactStore, V6SolveAndRefineRecordsAreRejectedAndRecomputed) {
  const fs::path dir = store_dir("v6_records");
  const Pipeline pipe(0.3, 100);
  const RoutingProblem p = pipe.problem();
  auto store = std::make_shared<store::ArtifactStore>(dir);
  FlowResult cold;
  {
    FlowSession session(p, SessionOptions{.store = store});
    cold = session.run(FlowKind::kGsino);
  }
  const std::vector<std::uint8_t> solve6 = v6_payload(*cold.phase2);
  const std::vector<std::uint8_t> refine6 = v6_payload(*cold.phase3);
  EXPECT_EQ(store::load_region_solve(
                framed(store::ArtifactType::kRegionSolve, 7, solve6), p,
                cold.phase1, cold.budget),
            nullptr);
  EXPECT_EQ(store::load_refine(framed(store::ArtifactType::kRefine, 7, refine6),
                               p, cold.phase2),
            nullptr);
  // Overwrite the solve and refine records on disk in the v6 layout.
  std::size_t rewritten = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::vector<std::uint8_t> bytes;
    {
      std::ifstream in(entry.path(), std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    if (bytes.size() < 16 || std::memcmp(bytes.data(), "RLCRART", 8) != 0) {
      continue;
    }
    util::BinaryReader tag(bytes.data() + 12, 4);
    const auto type = static_cast<store::ArtifactType>(tag.u32());
    if (type != store::ArtifactType::kRegionSolve &&
        type != store::ArtifactType::kRefine) {
      continue;
    }
    const std::vector<std::uint8_t> old = framed(
        type, 6, type == store::ArtifactType::kRefine ? refine6 : solve6);
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(old.data()),
              static_cast<std::streamsize>(old.size()));
    ++rewritten;
  }
  ASSERT_EQ(rewritten, 2u);

  FlowSession session(p, SessionOptions{.store = store});
  const store::StoreStats before = store->stats();
  const FlowResult warm = session.run(FlowKind::kGsino);
  EXPECT_EQ(store->stats().rejected - before.rejected, 2u);
  EXPECT_EQ(session.counters().route_loaded, 1u);
  EXPECT_EQ(session.counters().solve_loaded, 0u);
  EXPECT_EQ(session.counters().solve_executed, 1u);
  EXPECT_EQ(session.counters().refine_executed, 1u);
  EXPECT_EQ(state_fingerprint(warm), state_fingerprint(cold));

  // The recompute republished current records: a fresh session loads all.
  FlowSession replay(p, SessionOptions{.store = store});
  EXPECT_EQ(state_fingerprint(replay.run(FlowKind::kGsino)),
            state_fingerprint(cold));
  EXPECT_EQ(replay.counters().solve_loaded, 1u);
  EXPECT_EQ(replay.counters().refine_loaded, 1u);
}

// ------------------------------------------------- bounded session caches

TEST(Session, InMemoryCachesAreBoundedLruAndStayCorrect) {
  const Pipeline pipe(0.5);
  const RoutingProblem p = pipe.problem();

  SessionOptions bounded;
  bounded.cache_entries = 1;
  FlowSession session(p, std::move(bounded));

  Scenario s15, s18;
  s15.bound_v = 0.15;
  s18.bound_v = 0.18;
  const FlowResult first = session.run(FlowKind::kGsino, s15);
  (void)session.run(FlowKind::kGsino, s18);
  const FlowResult again = session.run(FlowKind::kGsino, s15);

  // One budget entry: the 0.18 solve evicted the 0.15 artifacts, so the
  // third run recomputes (an unbounded session computes 2, not 3)...
  EXPECT_EQ(session.counters().budget_executed, 3u);
  EXPECT_EQ(session.counters().solve_executed, 3u);
  // ...while the routing profile is unchanged and stays cached throughout.
  EXPECT_EQ(session.counters().route_executed, 1u);

  // Eviction costs recompute time, never correctness: bit-identical rerun.
  EXPECT_EQ(again.total_shields, first.total_shields);
  EXPECT_EQ(again.violating, first.violating);
  ASSERT_EQ(again.net_lsk().size(), first.net_lsk().size());
  for (std::size_t n = 0; n < again.net_lsk().size(); ++n) {
    EXPECT_EQ(again.net_lsk()[n], first.net_lsk()[n]) << "net " << n;
  }
}

TEST(Session, EvictedArtifactsAreServedBackByTheStore) {
  const fs::path dir = store_dir("evict_reload");
  const Pipeline pipe(0.5);
  const RoutingProblem p = pipe.problem();
  SessionOptions sopt;
  sopt.cache_entries = 1;
  sopt.store = std::make_shared<store::ArtifactStore>(dir);
  FlowSession session(p, std::move(sopt));

  Scenario s15, s18;
  s15.bound_v = 0.15;
  s18.bound_v = 0.18;
  (void)session.run(FlowKind::kGsino, s15);
  (void)session.run(FlowKind::kGsino, s18);
  (void)session.run(FlowKind::kGsino, s15);

  // The bound-0.15 budget was evicted from memory after the 0.18 run, but
  // the store serves it back instead of a recompute.
  EXPECT_EQ(session.counters().budget_executed, 2u);
  EXPECT_EQ(session.counters().budget_loaded, 1u);
  // Likewise the 0.15 region solve: the 0.18 solve evicted it from
  // memory, but solve_regions() auto-published it on first compute, so
  // the replay loads it under the same content key instead of re-running
  // SINO, although the reloaded budget is a different in-memory artifact.
  EXPECT_EQ(session.counters().solve_executed, 2u);
  EXPECT_EQ(session.counters().solve_loaded, 1u);
  // And the 0.15 refine artifact, published on first compute and evicted
  // with its solve entry, comes back from the store the same way.
  EXPECT_EQ(session.counters().refine_executed, 2u);
  EXPECT_EQ(session.counters().refine_loaded, 1u);
}

// ------------------------------------------------------------- concurrency

TEST(ArtifactStore, ConcurrentSessionsSharingOneStoreAgree) {
  const fs::path dir = store_dir("concurrent");
  auto store = std::make_shared<store::ArtifactStore>(dir);

  constexpr int kThreads = 4;
  std::vector<std::uint64_t> hashes(kThreads, 0);
  std::vector<std::vector<double>> lsk(kThreads);
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        const Pipeline pipe(0.5);
        const RoutingProblem p = pipe.problem();
        SessionOptions sopt;
        sopt.store = store;
        FlowSession session(p, std::move(sopt));
        const FlowResult fr = session.run(FlowKind::kGsino);
        hashes[static_cast<std::size_t>(t)] = router::route_hash(fr.routing());
        lsk[static_cast<std::size_t>(t)] = fr.net_lsk();
      });
    }
    for (std::thread& w : workers) w.join();
  }

  // Whoever won the publish race, every session computed or loaded the
  // same bits.
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(hashes[static_cast<std::size_t>(t)], hashes[0]);
    EXPECT_EQ(lsk[static_cast<std::size_t>(t)], lsk[0]);
  }
  const store::StoreStats stats = store->stats();
  EXPECT_GE(stats.stores, 1u);
  EXPECT_EQ(stats.rejected, 0u);
}

}  // namespace
}  // namespace rlcr::gsino
