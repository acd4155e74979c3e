// Scaling benchmarks over the parallel runtime: the ID-router engine at
// 64x64 and at the ISPD98-size 128x128 / 10k-net tier, the maze
// (Dijkstra/A*) baseline, the Phase II SINO batch driver, and LSK table
// sampling — each parallel stage at threads = 1 vs 4 so the pool speedup is
// part of the recorded trajectory (outputs are bit-identical across thread
// counts by the src/parallel determinism contract; only the time moves).
// Run with
//
//   bench_router_scale --benchmark_out=BENCH_router.json \
//                      --benchmark_out_format=json
//
// to make the perf trajectory machine-readable; CI uploads that file from
// every run so regressions are visible across PRs.
#include <benchmark/benchmark.h>

#include "build_type_context.h"

#include <algorithm>

#include "grid/region_grid.h"
#include "ktable/lsk_builder.h"
#include "router/id_router.h"
#include "router/maze.h"
#include "router/route_types.h"
#include "sino/batch.h"
#include "sino/nss.h"
#include "util/rng.h"

using namespace rlcr;
using namespace rlcr::router;

namespace {

grid::RegionGrid scale_grid(std::int32_t side = 64, int cap = 16) {
  grid::RegionGridSpec s;
  s.cols = side;
  s.rows = side;
  s.region_w_um = 50.0;
  s.region_h_um = 50.0;
  s.h_capacity = cap;
  s.v_capacity = cap;
  return grid::RegionGrid(s);
}

/// Clustered multi-pin nets, the same generator shape the router tests use:
/// local nets with bounded bounding boxes so they enter the deletion pool
/// (not the huge-net pre-route path).
std::vector<RouterNet> scale_nets(const grid::RegionGrid& g, std::size_t count,
                                  std::uint64_t seed, std::int32_t spread = 6) {
  util::Xoshiro256 rng(seed);
  std::vector<RouterNet> nets(count);
  for (std::size_t i = 0; i < count; ++i) {
    nets[i].id = static_cast<std::int32_t>(i);
    nets[i].si = 0.3;
    const std::int32_t cx = static_cast<std::int32_t>(rng.below(
        static_cast<std::uint64_t>(g.cols())));
    const std::int32_t cy = static_cast<std::int32_t>(rng.below(
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

// Args: {nets, threads}. threads=1 is the exact serial path; the 4-thread
// variants record the pool speedup of the build phase (the deletion loop
// itself is serial, so the route-level speedup is the build share's).
void BM_IdRouter64(benchmark::State& state) {
  const grid::RegionGrid g = scale_grid();
  const auto nets = scale_nets(g, static_cast<std::size_t>(state.range(0)), 97);
  const sino::NssModel nss;
  IdRouterOptions opt;
  opt.threads = static_cast<int>(state.range(1));
  const IdRouter router(g, nss, opt);
  double wl = 0.0;
  for (auto _ : state) {
    const RoutingResult res = router.route(nets);
    wl = res.total_wirelength_um;
    benchmark::DoNotOptimize(res);
  }
  state.counters["wirelength_um"] = wl;
  state.counters["nets_per_s"] = benchmark::Counter(
      static_cast<double>(state.range(0)), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_IdRouter64)
    ->Args({200, 1})
    ->Args({800, 1})
    ->Args({3200, 1})
    ->Args({3200, 4})
    ->Unit(benchmark::kMillisecond);

// The ISPD98 size class (ROADMAP open item): 128x128 regions, 10k clustered
// nets, threads 1 vs 4.
void BM_IdRouter128(benchmark::State& state) {
  const grid::RegionGrid g = scale_grid(128);
  const auto nets = scale_nets(g, static_cast<std::size_t>(state.range(0)), 97);
  const sino::NssModel nss;
  IdRouterOptions opt;
  opt.threads = static_cast<int>(state.range(1));
  const IdRouter router(g, nss, opt);
  double wl = 0.0;
  for (auto _ : state) {
    const RoutingResult res = router.route(nets);
    wl = res.total_wirelength_um;
    benchmark::DoNotOptimize(res);
  }
  state.counters["wirelength_um"] = wl;
  state.counters["nets_per_s"] = benchmark::Counter(
      static_cast<double>(state.range(0)), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_IdRouter128)
    ->Args({10000, 1})
    ->Args({10000, 4})
    ->Unit(benchmark::kMillisecond);

void BM_Maze64(benchmark::State& state) {
  const grid::RegionGrid g = scale_grid();
  const auto nets = scale_nets(g, static_cast<std::size_t>(state.range(0)), 131);
  const MazeRouter maze(g);
  double wl = 0.0;
  for (auto _ : state) {
    const RoutingResult res = maze.route(nets);
    wl = res.total_wirelength_um;
    benchmark::DoNotOptimize(res);
  }
  state.counters["wirelength_um"] = wl;
  state.counters["nets_per_s"] = benchmark::Counter(
      static_cast<double>(state.range(0)), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Maze64)->Arg(200)->Arg(800)->Unit(benchmark::kMillisecond);

// Phase II batch solve across the pool. Instances mirror the per-region
// shape the flow produces (tens of nets, dense sensitivity); a share of
// near-impossible Kth bounds trips the annealing arm so both solver paths
// are timed. Args: {instances, threads}.
std::vector<sino::OwnedInstance> batch_instances(std::size_t count,
                                                std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<sino::OwnedInstance> out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    std::vector<sino::SinoNet> nets(6 + rng.below(10));
    for (std::size_t i = 0; i < nets.size(); ++i) {
      nets[i].si = rng.uniform(0.1, 0.9);
      nets[i].kth = rng.bernoulli(0.2) ? 1e-6 : rng.uniform(0.1, 0.8);
    }
    sino::OwnedInstance inst(nets);
    for (std::size_t i = 0; i < inst.net_count(); ++i) {
      for (std::size_t j = i + 1; j < inst.net_count(); ++j) {
        if (rng.bernoulli(0.4)) inst.set_sensitive(i, j);
      }
    }
    out.push_back(std::move(inst));
  }
  return out;
}

void BM_SinoBatch(benchmark::State& state) {
  const auto instances =
      batch_instances(static_cast<std::size_t>(state.range(0)), 7);
  const ktable::KeffModel keff;
  std::vector<sino::SinoBatchItem> items(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    items[i].instance = instances[i];
    items[i].mode = sino::SinoSolveMode::kGreedyAnneal;
    items[i].anneal_seed = sino::stream_seed(2026, i);
    items[i].anneal_iterations = 1500;
  }
  const int threads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    const auto solved = sino::solve_batch(items, keff, threads);
    benchmark::DoNotOptimize(solved);
  }
  state.counters["instances_per_s"] = benchmark::Counter(
      static_cast<double>(state.range(0)), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_SinoBatch)
    ->Args({256, 1})
    ->Args({256, 4})
    ->Unit(benchmark::kMillisecond);

// LSK table sampling: serial assignment generation, pooled MNA transient
// simulations. Args: {threads}.
void BM_LskBuild(benchmark::State& state) {
  ktable::LskBuilderOptions opt;
  opt.tracks = 8;
  opt.samples_per_length = 8;
  opt.lengths_um = {300.0, 600.0, 1200.0};
  opt.segments = 4;
  opt.sim_dt = 0.5e-12;
  opt.sim_t_stop = 120e-12;
  opt.threads = static_cast<int>(state.range(0));
  const ktable::LskTableBuilder builder(opt);
  const ktable::KeffModel keff;
  const circuit::Technology tech;
  for (auto _ : state) {
    const auto samples = builder.sample(keff, tech);
    benchmark::DoNotOptimize(samples);
  }
}
BENCHMARK(BM_LskBuild)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
