// Scenario-matrix campaigns over the ISPD98 classes: one benchmark per
// (class, scenario kind) cell — crosstalk-bound sweeps, multi-corner tech
// sweeps, incremental delta chains, and structured ECO slices — through
// the shared-artifact session machinery (src/scenario/matrix.h).
//
//   bench_scenarios --benchmark_out=BENCH_scenarios.json \
//                   --benchmark_out_format=json
//
// Each cell records the flow runs it produced, the work incrementality
// avoided (stage cache hits, reused region solves), and
// the result of its built-in differential check (`fingerprint_match` —
// the campaign's final state recomputed from scratch must match bit for
// bit). tools/check_scenarios.py gates CI on matrix completeness,
// compute_avoided > 0, and fingerprint_match == 1.
//
// Environment:
//   RLCR_ISPD98_SCALE  density-preserving shrink of every class in (0, 1]
//                      (default 1.0 = published sizes); as in bench_ispd98.
//   RLCR_ISPD98_DIR    directory with the real ibmNN.netD [.are] files.
#include <benchmark/benchmark.h>

#include "build_type_context.h"

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "netlist/ispd98_synth.h"
#include "scenario/matrix.h"

using namespace rlcr;

namespace {

double ispd98_scale() {
  const char* env = std::getenv("RLCR_ISPD98_SCALE");
  if (env == nullptr) return 1.0;
  char* end = nullptr;
  const double v = std::strtod(env, &end);
  return (end != env && v > 0.0 && v <= 1.0) ? v : 1.0;
}

std::vector<netlist::Ispd98ClassSpec>& classes() {
  static std::vector<netlist::Ispd98ClassSpec> c =
      netlist::ispd98_classes(ispd98_scale());
  return c;
}

/// One instance per class, shared by its four kind cells.
const netlist::Ispd98Instance& instance_for(std::size_t idx) {
  static std::vector<std::unique_ptr<netlist::Ispd98Instance>> cache(
      classes().size());
  if (cache[idx] == nullptr) {
    cache[idx] = std::make_unique<netlist::Ispd98Instance>(
        netlist::make_ispd98_instance(classes()[idx]));
  }
  return *cache[idx];
}

void BM_ScenarioMatrix(benchmark::State& state, std::size_t idx,
                       scenario::ScenarioKind kind) {
  const netlist::Ispd98ClassSpec& cls = classes()[idx];
  const netlist::Ispd98Instance& inst = instance_for(idx);

  scenario::ScenarioCell cell;
  for (auto _ : state) {
    cell = scenario::ScenarioMatrix::run_cell(cls.name, inst.design,
                                              inst.gspec, kind,
                                              gsino::GsinoParams{});
    benchmark::DoNotOptimize(cell);
  }

  state.counters["nets"] = static_cast<double>(cell.total_nets);
  state.counters["runs"] = static_cast<double>(cell.runs);
  state.counters["compute_avoided"] =
      static_cast<double>(cell.compute_avoided);
  state.counters["fingerprint_match"] =
      static_cast<double>(cell.fingerprint_match);
  state.counters["real_circuit"] = inst.real ? 1.0 : 0.0;
  state.counters["campaign_wall_s"] = cell.seconds;
}

}  // namespace

int main(int argc, char** argv) {
  const auto& suite = classes();
  for (std::size_t i = 0; i < suite.size(); ++i) {
    for (const scenario::ScenarioKind kind : scenario::kAllScenarioKinds) {
      const std::string name = "BM_ScenarioMatrix/" + suite[i].name + "/" +
                               scenario::kind_name(kind);
      benchmark::RegisterBenchmark(name.c_str(), BM_ScenarioMatrix, i, kind)
          ->Unit(benchmark::kSecond)
          ->Iterations(1);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
