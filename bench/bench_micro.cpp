// Google-benchmark microbenchmarks of the library's hot paths. The paper's
// Section 5 notes that ID-based global routing dominates GSINO's runtime;
// these benchmarks quantify the cost structure of every major kernel.
// CI merges the BM_Sino* entries into BENCH_router.json, so this bench is
// stamped with its build type like the trajectory benches.
#include <benchmark/benchmark.h>

#include "circuit/bus.h"
#include "grid/region_grid.h"
#include "ktable/lsk_table.h"
#include "netlist/sensitivity.h"
#include "netlist/synthetic.h"
#include "router/id_router.h"
#include "rsmt/rmst.h"
#include "rsmt/steiner.h"
#include "sino/anneal.h"
#include "sino/greedy.h"
#include "util/rng.h"

#include "build_type_context.h"

using namespace rlcr;

namespace {

std::vector<geom::Point> random_pins(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<geom::Point> pins;
  for (std::size_t i = 0; i < n; ++i) {
    pins.push_back(geom::Point{static_cast<std::int32_t>(rng.below(64)),
                               static_cast<std::int32_t>(rng.below(64))});
  }
  return pins;
}

sino::OwnedInstance random_instance(std::size_t n, double rate,
                                   std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<sino::SinoNet> nets(n);
  for (std::size_t i = 0; i < n; ++i) {
    nets[i] = sino::SinoNet{rate, 1.5};
  }
  sino::OwnedInstance inst(nets);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (rng.bernoulli(rate)) inst.set_sensitive(i, j);
  return inst;
}

void BM_RmstByDegree(benchmark::State& state) {
  const auto pins = random_pins(static_cast<std::size_t>(state.range(0)), 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsmt::rmst_length(pins));
  }
}
BENCHMARK(BM_RmstByDegree)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(64);

void BM_SteinerByDegree(benchmark::State& state) {
  const auto pins = random_pins(static_cast<std::size_t>(state.range(0)), 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsmt::rsmt_length(pins));
  }
}
BENCHMARK(BM_SteinerByDegree)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

// Each SINO bench also reports `ki_sums`: the Ki sums the kernel ran per
// iteration (SinoEvaluator::ki_sums), its noise-free work count.
void BM_SinoGreedy(benchmark::State& state) {
  const auto inst =
      random_instance(static_cast<std::size_t>(state.range(0)), 0.4, 7);
  const ktable::KeffModel keff;
  double ki_sums = 0;
  for (auto _ : state) {
    // One evaluator per solve, as sino::solve_region builds it.
    const sino::SinoEvaluator eval(inst, keff);
    benchmark::DoNotOptimize(sino::solve_greedy(eval));
    ki_sums += static_cast<double>(eval.ki_sums());
  }
  state.counters["ki_sums"] =
      benchmark::Counter(ki_sums, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SinoGreedy)->Arg(4)->Arg(8)->Arg(16)->Arg(24)->Arg(40);

// Compaction-heavy: a greedy solution with a shield between every two
// slots, so compact_shields tests (and mostly removes) ~n shields.
void BM_SinoCompact(benchmark::State& state) {
  const auto inst =
      random_instance(static_cast<std::size_t>(state.range(0)), 0.4, 7);
  const ktable::KeffModel keff;
  const sino::SinoEvaluator eval(inst, keff);
  ktable::SlotVec padded;
  for (ktable::Slot s : sino::solve_greedy(eval)) {
    padded.push_back(s);
    padded.push_back(ktable::kShieldSlot);
  }
  const bool free = eval.violation_free(padded, 0);
  const std::size_t ki_before = eval.ki_sums();
  int removed = 0;
  for (auto _ : state) {
    ktable::SlotVec slots = padded;
    removed = sino::compact_shields(slots, eval, free);
    benchmark::DoNotOptimize(slots);
  }
  state.counters["removed"] = removed;
  state.counters["ki_sums"] = benchmark::Counter(
      static_cast<double>(eval.ki_sums() - ki_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SinoCompact)->Arg(16)->Arg(40);

void BM_SinoAnneal(benchmark::State& state) {
  const auto inst = random_instance(10, 0.4, 7);
  const ktable::KeffModel keff;
  sino::AnnealOptions opt;
  opt.iterations = static_cast<int>(state.range(0));
  double ki_sums = 0;
  for (auto _ : state) {
    const sino::SinoEvaluator eval(inst, keff);
    benchmark::DoNotOptimize(sino::solve_anneal(eval, opt));
    ki_sums += static_cast<double>(eval.ki_sums());
  }
  state.counters["ki_sums"] =
      benchmark::Counter(ki_sums, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SinoAnneal)->Arg(1000)->Arg(4000);

void BM_BusTransient(benchmark::State& state) {
  circuit::BusSpec spec;
  spec.tracks.assign(static_cast<std::size_t>(state.range(0)), {});
  spec.tracks[0] = {circuit::TrackKind::kSignal, false};
  for (std::size_t i = 1; i < spec.tracks.size(); ++i) {
    spec.tracks[i] = {circuit::TrackKind::kSignal, true};
  }
  spec.victim = 0;
  spec.length_um = 800.0;
  const circuit::Technology tech;
  circuit::TransientOptions opt;
  opt.dt = 0.5e-12;
  opt.t_stop = 100e-12;
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit::simulate_victim_noise(spec, tech, opt));
  }
}
BENCHMARK(BM_BusTransient)->Arg(3)->Arg(6)->Arg(10)->Unit(benchmark::kMillisecond);

void BM_LskTableLookup(benchmark::State& state) {
  const ktable::LskTable table = ktable::LskTable::default_table();
  double x = 0.0;
  for (auto _ : state) {
    x += 0.001;
    if (x > 3.0) x = 0.0;
    benchmark::DoNotOptimize(table.voltage(x));
  }
}
BENCHMARK(BM_LskTableLookup);

void BM_SensitivityQuery(benchmark::State& state) {
  const netlist::SensitivityModel model(30000, 0.3, 5);
  std::int32_t i = 0;
  for (auto _ : state) {
    i = (i + 7919) % 30000;
    benchmark::DoNotOptimize(model.sensitive(i, (i * 31 + 1) % 30000));
  }
}
BENCHMARK(BM_SensitivityQuery);

void BM_IdRouterTiny(benchmark::State& state) {
  const auto spec = netlist::tiny_spec(static_cast<std::size_t>(state.range(0)), 3);
  const auto design = netlist::generate(spec);
  const grid::RegionGrid grid_obj(spec.grid_spec());
  std::vector<router::RouterNet> nets;
  for (std::size_t n = 0; n < design.net_count(); ++n) {
    router::RouterNet rn;
    rn.id = static_cast<std::int32_t>(n);
    rn.si = 0.3;
    for (const auto& p : design.net(static_cast<netlist::NetId>(n)).pins) {
      const geom::Point r = grid_obj.region_of(p.pos);
      if (std::find(rn.pins.begin(), rn.pins.end(), r) == rn.pins.end()) {
        rn.pins.push_back(r);
      }
    }
    nets.push_back(std::move(rn));
  }
  const sino::NssModel nss;
  const router::IdRouter router(grid_obj, nss);
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.route(nets));
  }
}
BENCHMARK(BM_IdRouterTiny)->Arg(100)->Arg(400)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
