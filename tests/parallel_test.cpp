// The deterministic parallel runtime: pool lifecycle, the chunked
// algorithms' determinism contract (bit-identical results at any thread
// count), deterministic exception propagation, and cross-thread-count
// golden assertions for the three wired consumers (ID router, SINO batch,
// LSK sampling) plus Phase III refinement and the whole staged session.
// threads == 1 is the exact serial path, so agreement with it at 2 and 8
// threads (and at 0 = auto) is the determinism oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/refine.h"
#include "core/session.h"
#include "grid/region_grid.h"
#include "ktable/lsk_builder.h"
#include "netlist/ispd98_synth.h"
#include "netlist/synthetic.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "router/id_router.h"
#include "sino/batch.h"
#include "sino/instance.h"
#include "sino/nss.h"
#include "util/rng.h"

#include "golden_util.h"

namespace rlcr {
namespace {

using parallel::ThreadPool;

// ------------------------------------------------------------------- pool

TEST(ThreadPool, LifecycleSpawnsRunsAndJoins) {
  std::mutex mu;
  std::set<int> seen;
  {
    ThreadPool pool;
    EXPECT_EQ(pool.spawned(), 0);
    pool.run(3, [&](int worker) {
      std::lock_guard lock(mu);
      seen.insert(worker);
    });
    EXPECT_EQ(pool.spawned(), 3);
    EXPECT_EQ(seen, (std::set<int>{0, 1, 2, 3}));  // caller is worker 0

    // Grows on demand, reuses existing workers.
    seen.clear();
    pool.run(5, [&](int worker) {
      std::lock_guard lock(mu);
      seen.insert(worker);
    });
    EXPECT_EQ(pool.spawned(), 5);
    EXPECT_EQ(seen.size(), 6u);
  }  // destructor joins all five helpers; reaching here is the assertion
}

TEST(ThreadPool, ZeroHelpersRunsInlineOnCaller) {
  ThreadPool pool;
  int calls = 0;
  pool.run(0, [&](int worker) {
    EXPECT_EQ(worker, 0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(pool.spawned(), 0);
}

TEST(ThreadPool, WorkerThreadsAreMarked) {
  std::mutex mu;
  std::vector<std::pair<int, bool>> marks;  // (worker, on_worker_thread)
  ThreadPool::global().run(2, [&](int worker) {
    std::lock_guard lock(mu);
    marks.emplace_back(worker, ThreadPool::on_worker_thread());
  });
  ASSERT_EQ(marks.size(), 3u);
  for (const auto& [worker, on_pool] : marks) {
    EXPECT_EQ(on_pool, worker != 0) << "worker " << worker;
  }
}

TEST(ThreadPool, NestedParallelismDegradesToSerialWithoutDeadlock) {
  std::atomic<int> inner_total{0};
  ThreadPool::global().run(2, [&](int) {
    // A chunked algorithm called from a pool worker must run inline
    // instead of re-entering the pool (which this test would deadlock on).
    parallel::parallel_for(10, 2, 8, [&](std::size_t b, std::size_t e, int) {
      inner_total.fetch_add(static_cast<int>(e - b));
    });
  });
  EXPECT_EQ(inner_total.load(), 30);  // 3 participants x 10 items
}

// ------------------------------------------------------------- algorithms

TEST(ParallelFor, EveryIndexExactlyOnceAtAnyThreadCount) {
  for (int threads : {1, 2, 8}) {
    std::vector<std::atomic<int>> hits(1013);
    parallel::parallel_for(hits.size(), 7, threads,
                           [&](std::size_t b, std::size_t e, int) {
                             for (std::size_t i = b; i < e; ++i) {
                               hits[i].fetch_add(1);
                             }
                           });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "i=" << i << " threads=" << threads;
    }
  }
}

TEST(ParallelFor, ChunkBoundariesDependOnlyOnSizeAndGrain) {
  // Record the chunk set at two thread counts; they must be identical.
  auto chunks_at = [](int threads) {
    std::mutex mu;
    std::set<std::pair<std::size_t, std::size_t>> chunks;
    parallel::parallel_for(100, 9, threads,
                           [&](std::size_t b, std::size_t e, int) {
                             std::lock_guard lock(mu);
                             chunks.emplace(b, e);
                           });
    return chunks;
  };
  EXPECT_EQ(chunks_at(1), chunks_at(8));
  EXPECT_EQ(parallel::chunk_count(100, 9), 12u);
}

TEST(OrderedReduce, FloatingPointSumBitIdenticalAcrossThreadCounts) {
  // Values engineered so that any re-association changes the sum.
  std::vector<double> v(997);
  util::Xoshiro256 rng(42);
  for (double& x : v) x = rng.uniform(-1.0, 1.0) * (rng.bernoulli(0.3) ? 1e16 : 1.0);

  auto sum_at = [&](int threads) {
    double acc = 0.0;
    parallel::ordered_reduce<double>(
        v.size(), 16, threads,
        [&](std::size_t b, std::size_t e, int) {
          double s = 0.0;
          for (std::size_t i = b; i < e; ++i) s += v[i];
          return s;
        },
        [&](std::size_t, double&& partial) { acc += partial; });
    return acc;
  };
  const double serial = sum_at(1);
  EXPECT_EQ(serial, sum_at(2));
  EXPECT_EQ(serial, sum_at(8));
}

TEST(OrderedReduce, CombineRunsInChunkOrder) {
  for (int threads : {1, 8}) {
    std::vector<std::size_t> order;
    parallel::ordered_reduce<std::size_t>(
        100, 8, threads,
        [](std::size_t b, std::size_t, int) { return b; },
        [&](std::size_t chunk, std::size_t&& begin) {
          order.push_back(chunk);
          EXPECT_EQ(begin, chunk * 8);
        });
    ASSERT_EQ(order.size(), 13u);
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  }
}

TEST(ParallelMap, MatchesSerialEvaluation) {
  auto fn = [](std::size_t i) { return static_cast<double>(i) * 1.5 - 7.0; };
  const auto a = parallel::parallel_map<double>(513, 10, 1, fn);
  const auto b = parallel::parallel_map<double>(513, 10, 8, fn);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 513u);
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], fn(i));
}

TEST(ParallelFor, LowestChunkExceptionWinsDeterministically) {
  for (int threads : {1, 2, 8}) {
    try {
      parallel::parallel_for(100, 10, threads,
                             [&](std::size_t b, std::size_t, int) {
                               if (b >= 50) {
                                 throw std::runtime_error(std::to_string(b));
                               }
                             });
      FAIL() << "expected a throw at threads=" << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "50") << "threads=" << threads;
    }
  }
}

TEST(ResolveThreads, PositiveRequestsAreVerbatim) {
  EXPECT_EQ(parallel::resolve_threads(1), 1);
  EXPECT_EQ(parallel::resolve_threads(5), 5);
  EXPECT_GE(parallel::resolve_threads(0), 1);
  EXPECT_GE(parallel::hardware_threads(), 1);
}

// ----------------------------------------- cross-thread-count goldens

grid::RegionGrid det_grid(std::int32_t side = 12, int cap = 8) {
  grid::RegionGridSpec s;
  s.cols = side;
  s.rows = side;
  s.region_w_um = 20.0;
  s.region_h_um = 25.0;
  s.h_capacity = cap;
  s.v_capacity = cap;
  return grid::RegionGrid(s);
}

std::vector<router::RouterNet> det_nets(const grid::RegionGrid& g,
                                        std::size_t count, std::uint64_t seed,
                                        std::int32_t spread = 4) {
  util::Xoshiro256 rng(seed);
  std::vector<router::RouterNet> nets(count);
  for (std::size_t i = 0; i < count; ++i) {
    nets[i].id = static_cast<std::int32_t>(i);
    nets[i].si = 0.3;
    const auto cx = static_cast<std::int32_t>(rng.below(
        static_cast<std::uint64_t>(g.cols())));
    const auto cy = static_cast<std::int32_t>(rng.below(
        static_cast<std::uint64_t>(g.rows())));
    const std::size_t degree = 2 + rng.below(3);
    for (std::size_t p = 0; p < degree; ++p) {
      geom::Point pt{
          std::clamp(cx + static_cast<std::int32_t>(rng.range(-spread, spread)),
                     0, g.cols() - 1),
          std::clamp(cy + static_cast<std::int32_t>(rng.range(-spread, spread)),
                     0, g.rows() - 1)};
      if (std::find(nets[i].pins.begin(), nets[i].pins.end(), pt) ==
          nets[i].pins.end()) {
        nets[i].pins.push_back(pt);
      }
    }
    if (nets[i].pins.size() < 2) {
      nets[i].pins.push_back(
          geom::Point{(cx + 1) % g.cols(), (cy + 1) % g.rows()});
    }
  }
  return nets;
}

TEST(ParallelDeterminism, IdRouterBitIdenticalAcrossThreadCounts) {
  const grid::RegionGrid g = det_grid();
  const auto nets = det_nets(g, 120, 5);
  const sino::NssModel nss;

  auto run_at = [&](int threads) {
    router::IdRouterOptions opt;
    opt.threads = threads;
    const router::IdRouter router(g, nss, opt);
    return router.route(nets);
  };
  const router::RoutingResult serial = run_at(1);
  const std::uint64_t golden = router::route_hash(serial);
  for (int threads : {2, 8}) {
    const router::RoutingResult res = run_at(threads);
    EXPECT_EQ(router::route_hash(res), golden) << "threads=" << threads;
    EXPECT_EQ(res.total_wirelength_um, serial.total_wirelength_um)
        << "threads=" << threads;
    EXPECT_EQ(res.stats.edges_initial, serial.stats.edges_initial);
    EXPECT_EQ(res.stats.edges_deleted, serial.stats.edges_deleted);
    EXPECT_EQ(res.stats.edges_locked, serial.stats.edges_locked);
    EXPECT_EQ(res.stats.reinserts, serial.stats.reinserts);
    EXPECT_EQ(res.stats.prerouted_nets, serial.stats.prerouted_nets);
  }
}

TEST(ParallelDeterminism, IdRouterPreRoutePathBitIdentical) {
  // Tiny threshold forces every net through the (stamped-dedup) pre-route
  // path, covering it at every thread count.
  const grid::RegionGrid g = det_grid();
  const auto nets = det_nets(g, 60, 11);
  const sino::NssModel nss;
  auto run_at = [&](int threads) {
    router::IdRouterOptions opt;
    opt.threads = threads;
    opt.huge_net_bbox_threshold = 4;
    const router::IdRouter router(g, nss, opt);
    return router::route_hash(router.route(nets));
  };
  const std::uint64_t golden = run_at(1);
  EXPECT_EQ(run_at(2), golden);
  EXPECT_EQ(run_at(8), golden);
}

std::vector<sino::OwnedInstance> det_instances(std::size_t count,
                                              std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<sino::OwnedInstance> out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    std::vector<sino::SinoNet> nets(4 + rng.below(8));
    for (std::size_t i = 0; i < nets.size(); ++i) {
      nets[i].si = rng.uniform(0.1, 0.9);
      // Deliberately near-impossible bounds on some nets so some greedy
      // solutions stay infeasible even after its shield fallback, and the
      // annealing arm (per-item RNG streams) gets exercised.
      nets[i].kth = rng.bernoulli(0.3) ? 1e-6 : rng.uniform(0.05, 0.6);
    }
    sino::OwnedInstance inst(nets);
    for (std::size_t i = 0; i < inst.net_count(); ++i) {
      for (std::size_t j = i + 1; j < inst.net_count(); ++j) {
        if (rng.bernoulli(0.45)) inst.set_sensitive(i, j);
      }
    }
    out.push_back(std::move(inst));
  }
  return out;
}

TEST(ParallelDeterminism, SinoBatchBitIdenticalAcrossThreadCounts) {
  const auto instances = det_instances(24, 77);
  const ktable::KeffModel keff;
  std::vector<sino::SinoBatchItem> items(instances.size());
  bool any_anneal_expected = false;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    items[i].instance = instances[i];
    items[i].mode = sino::SinoSolveMode::kGreedyAnneal;
    items[i].anneal_seed = sino::stream_seed(2026, i);
    items[i].anneal_iterations = 500;
  }

  auto solve_at = [&](int threads) {
    return sino::solve_batch(items, keff, threads);
  };
  const auto serial = solve_at(1);
  ASSERT_EQ(serial.size(), items.size());
  for (const auto& r : serial) any_anneal_expected |= r.annealed;
  EXPECT_TRUE(any_anneal_expected) << "test instances never trip the annealer";

  for (int threads : {2, 8}) {
    const auto res = solve_at(threads);
    ASSERT_EQ(res.size(), serial.size());
    for (std::size_t i = 0; i < res.size(); ++i) {
      EXPECT_EQ(res[i].slots, serial[i].slots)
          << "item " << i << " threads=" << threads;
      EXPECT_EQ(res[i].ki, serial[i].ki);
      EXPECT_EQ(res[i].annealed, serial[i].annealed);
      EXPECT_EQ(res[i].feasible, serial[i].feasible);
    }
  }
}

TEST(ParallelDeterminism, LskSamplesBitIdenticalAcrossThreadCounts) {
  ktable::LskBuilderOptions opt;
  opt.tracks = 6;
  opt.samples_per_length = 4;
  opt.lengths_um = {500.0};
  opt.segments = 4;
  opt.sim_dt = 0.5e-12;
  opt.sim_t_stop = 100e-12;
  const ktable::KeffModel keff;
  const circuit::Technology tech;

  auto sample_at = [&](int threads) {
    ktable::LskBuilderOptions o = opt;
    o.threads = threads;
    return ktable::LskTableBuilder(o).sample(keff, tech);
  };
  const auto serial = sample_at(1);
  ASSERT_GT(serial.size(), 0u);
  for (int threads : {2, 8}) {
    const auto res = sample_at(threads);
    ASSERT_EQ(res.size(), serial.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < res.size(); ++i) {
      EXPECT_EQ(res[i].lsk, serial[i].lsk);
      EXPECT_EQ(res[i].noise_v, serial[i].noise_v);
      EXPECT_EQ(res[i].length_um, serial[i].length_um);
      EXPECT_EQ(res[i].ki, serial[i].ki);
    }
  }
}

TEST(ParallelDeterminism, RouterDeletionLoopBitIdenticalAcrossThreadCounts) {
  // Few nets with big overlapping boxes on a tight grid: consecutive
  // top-of-queue candidates routinely belong to the same net.
  const grid::RegionGrid g = det_grid(10, 4);
  const auto nets = det_nets(g, 6, 21, /*spread=*/8);
  const sino::NssModel nss;

  auto run_at = [&](int threads) {
    router::IdRouterOptions opt;
    opt.threads = threads;
    const router::IdRouter router(g, nss, opt);
    return router.route(nets);
  };
  const router::RoutingResult serial = run_at(1);
  const std::uint64_t golden = router::route_hash(serial);
  for (int threads : {1, 2, 8}) {
    const router::RoutingResult res = run_at(threads);
    EXPECT_EQ(router::route_hash(res), golden) << "threads=" << threads;
    EXPECT_EQ(res.total_wirelength_um, serial.total_wirelength_um);
    EXPECT_EQ(res.stats.edges_deleted, serial.stats.edges_deleted);
    EXPECT_EQ(res.stats.edges_locked, serial.stats.edges_locked);
    EXPECT_EQ(res.stats.spec_attempted, 0u) << "threads=" << threads;
    EXPECT_EQ(res.stats.spec_committed, 0u) << "threads=" << threads;
  }
}

TEST(ParallelDeterminism, RouterCountersRepeatAcrossRuns) {
  const grid::RegionGrid g = det_grid();
  const auto nets = det_nets(g, 80, 9);
  const sino::NssModel nss;
  router::IdRouterOptions opt;
  opt.threads = 2;
  const router::IdRouter router(g, nss, opt);
  const router::RoutingStats a = router.route(nets).stats;
  const router::RoutingStats b = router.route(nets).stats;
  EXPECT_EQ(a.edges_initial, b.edges_initial);
  EXPECT_EQ(a.edges_deleted, b.edges_deleted);
  EXPECT_EQ(a.edges_locked, b.edges_locked);
  EXPECT_EQ(a.reinserts, b.reinserts);
  EXPECT_EQ(a.prerouted_nets, b.prerouted_nets);
  EXPECT_EQ(a.rsmt_fallback_nets, b.rsmt_fallback_nets);
  EXPECT_EQ(a.spec_attempted, b.spec_attempted);
  EXPECT_EQ(a.spec_committed, b.spec_committed);
}

/// A congested little problem that reliably leaves Phase II with
/// violations for pass 1 to work on (mirrors the refiner tests' fixture).
struct RefineFixture {
  netlist::SyntheticSpec spec;
  netlist::Netlist design;
  gsino::GsinoParams params;

  RefineFixture() : spec(netlist::tiny_spec(500, 77)) {
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

  gsino::RoutingProblem problem() const {
    return gsino::make_problem(design, spec, params);
  }
};

void expect_states_identical(const gsino::FlowState& a,
                             const gsino::FlowState& b, int threads) {
  EXPECT_EQ(a.violating, b.violating) << "threads=" << threads;
  EXPECT_EQ(a.unfixable, b.unfixable) << "threads=" << threads;
  EXPECT_EQ(a.congestion->total_shields(), b.congestion->total_shields());
  ASSERT_EQ(a.net_lsk.size(), b.net_lsk.size());
  for (std::size_t n = 0; n < a.net_lsk.size(); ++n) {
    ASSERT_EQ(a.net_lsk[n], b.net_lsk[n])
        << "net " << n << " threads=" << threads;
    ASSERT_EQ(a.net_noise[n], b.net_noise[n]) << "net " << n;
  }
  ASSERT_EQ(a.slots, b.slots);
  ASSERT_EQ(a.ki, b.ki);
  ASSERT_EQ(a.kth, b.kth);
}

TEST(ParallelDeterminism, RefinePass1BitIdenticalAcrossThreadCounts) {
  const RefineFixture fx;
  const gsino::RoutingProblem problem = fx.problem();
  gsino::FlowSession session(problem);
  const gsino::LocalRefiner refiner(problem);

  auto pass1_at = [&](int threads, gsino::RefineStats& stats) {
    gsino::FlowState fs = session.state(gsino::FlowKind::kGsino);
    gsino::RefineOptions opt;
    opt.threads = threads;
    refiner.eliminate_violations(fs, stats, opt);
    fs.refresh_noise();
    return fs;
  };
  gsino::RefineStats serial_stats;
  const gsino::FlowState serial = pass1_at(1, serial_stats);
  ASSERT_GT(serial_stats.pass1_resolves, 0)
      << "fixture leaves pass 1 nothing to do";
  for (int threads : {2, 8}) {
    gsino::RefineStats stats;
    const gsino::FlowState fs = pass1_at(threads, stats);
    expect_states_identical(serial, fs, threads);
    EXPECT_EQ(stats.pass1_nets_fixed, serial_stats.pass1_nets_fixed);
    EXPECT_EQ(stats.pass1_resolves, serial_stats.pass1_resolves);
    EXPECT_EQ(stats.pass1_gave_up, serial_stats.pass1_gave_up);
  }
}

TEST(ParallelDeterminism, FullRefineBitIdenticalAcrossThreadCounts) {
  // End to end through refine() (pass 1 + pass 2): pass 2's input, and
  // so the whole refined state, must not depend on threads.
  const RefineFixture fx;
  const gsino::RoutingProblem problem = fx.problem();
  gsino::FlowSession session(problem);
  const gsino::LocalRefiner refiner(problem);

  auto refine_at = [&](int threads, gsino::RefineStats& stats) {
    gsino::FlowState fs = session.state(gsino::FlowKind::kGsino);
    gsino::RefineOptions opt;
    opt.threads = threads;
    stats = refiner.refine(fs, opt);
    return fs;
  };
  gsino::RefineStats sa;
  const gsino::FlowState a = refine_at(1, sa);
  ASSERT_GT(sa.pass1_resolves, 0) << "fixture leaves pass 1 nothing to do";
  for (int threads : {2, 8}) {
    gsino::RefineStats sb;
    const gsino::FlowState b = refine_at(threads, sb);
    expect_states_identical(a, b, threads);
    EXPECT_EQ(sb.pass1_nets_fixed, sa.pass1_nets_fixed) << "threads=" << threads;
    EXPECT_EQ(sb.pass1_resolves, sa.pass1_resolves);
    EXPECT_EQ(sb.pass2_accepted, sa.pass2_accepted);
    EXPECT_EQ(sb.pass2_shields_removed, sa.pass2_shields_removed);
  }
}

TEST(ParallelDeterminism, SessionRoutingReportsZeroSpecCounters) {
  // The routing artifact a session hands out carries the two spec_*
  // fields the benchmark reads; with no speculative path they read 0 at
  // any thread count.
  const RefineFixture fx;
  const gsino::RoutingProblem problem = fx.problem();
  gsino::FlowSession session(problem);

  router::IdRouterOptions ropt = problem.params().router;
  ropt.threads = 2;
  const auto phase1 = session.route(ropt);
  EXPECT_EQ(session.counters().route_executed, 1u);
  EXPECT_GT(phase1->routing->stats.edges_deleted, 0u);
  EXPECT_EQ(phase1->routing->stats.spec_attempted, 0u);
  EXPECT_EQ(phase1->routing->stats.spec_committed, 0u);
}

TEST(ParallelDeterminism, SessionOnIbm01BitIdenticalAcrossThreadCounts) {
  // The full staged GSINO session on the ibm01 class at scale 0.05:
  // route_hash and state_fingerprint at threads 4 and 0 (auto) must equal
  // the threads == 1 run.
  const auto classes = netlist::ispd98_classes(0.05);
  const netlist::Ispd98ClassSpec* cls =
      netlist::find_ispd98_class(classes, "ibm01");
  ASSERT_NE(cls, nullptr);
  const netlist::Ispd98Instance inst = netlist::make_ispd98_instance(*cls);

  auto run_at = [&](int threads) {
    gsino::GsinoParams params;
    params.threads = threads;
    params.router.threads = threads;
    const gsino::RoutingProblem problem(inst.design, inst.gspec, params);
    gsino::FlowSession session(problem);
    gsino::Scenario scenario;
    scenario.refine.threads = threads;
    const gsino::FlowResult fr = session.run(gsino::FlowKind::kGsino, scenario);
    return std::pair{router::route_hash(fr.routing()),
                     gsino::state_fingerprint(fr)};
  };
  const auto serial = run_at(1);
  for (int threads : {4, 0}) {
    const auto res = run_at(threads);
    EXPECT_EQ(res.first, serial.first) << "route_hash, threads=" << threads;
    EXPECT_EQ(res.second, serial.second)
        << "state_fingerprint, threads=" << threads;
  }
}

}  // namespace
}  // namespace rlcr
