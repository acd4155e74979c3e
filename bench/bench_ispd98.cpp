// ISPD98-class end-to-end harness: every ibm01-ibm06 size class through
// the full staged session — route -> budget -> solve_regions -> refine —
// with wall seconds, CPU seconds, and peak RSS recorded per stage.
//
//   bench_ispd98 --benchmark_out=BENCH_ispd98.json \
//                --benchmark_out_format=json
//
// CI merges the entries into BENCH_router.json (see bench/README.md for
// the schema). Instances come from netlist::make_ispd98_instance: the
// genuine netD/.are circuits when RLCR_ISPD98_DIR holds them, the
// calibrated synthetic stand-ins otherwise — either way the harness and
// its counters are identical.
//
// Environment:
//   RLCR_ISPD98_SCALE  density-preserving shrink of every class in (0, 1]
//                      (default 1.0 = published sizes). CI's smoke tier
//                      runs the smallest class at a small scale.
//   RLCR_ISPD98_DIR    directory with the real ibmNN.netD [.are] files.
//   RLCR_TRACE_DIR     when set, each BM_Ispd98Session run also records a
//                      span trace and writes <dir>/trace_<class>.json
//                      (Chrome trace-event format — see
//                      docs/OBSERVABILITY.md).
//
// Stage peaks use Linux's per-process peak-RSS counter (VmHWM), reset
// before each stage via /proc/self/clear_refs; on kernels without that
// file the rss counters read 0. Each benchmark runs exactly one iteration
// (full flows are seconds to minutes; the per-stage counters, not the
// iteration statistics, are the recorded trajectory).
#include <benchmark/benchmark.h>

#include "build_type_context.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <filesystem>
#include <optional>

#include "core/problem.h"
#include "core/session.h"
#include "netlist/ispd98_synth.h"
#include "obs/trace.h"

using namespace rlcr;
using namespace rlcr::gsino;

namespace {

double ispd98_scale() {
  const char* env = std::getenv("RLCR_ISPD98_SCALE");
  if (env == nullptr) return 1.0;
  char* end = nullptr;
  const double v = std::strtod(env, &end);
  return (end != env && v > 0.0 && v <= 1.0) ? v : 1.0;
}

/// Process CPU time (user + system), seconds.
double cpu_seconds() {
#if defined(__unix__) || defined(__APPLE__)
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
#else
  return 0.0;
#endif
}

/// Peak RSS (VmHWM) in MiB since the last reset; 0 when unavailable.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Reset the kernel's peak-RSS watermark (Linux >= 4.0). Subsequent
/// peak_rss_mib() reads then report the peak of the code run since this
/// call — what makes per-stage peaks comparable inside one process. The
/// glibc trim first returns retained free heap to the OS, so the
/// watermark restarts from the live footprint rather than from whatever
/// earlier runs left cached in the allocator.
void reset_peak_rss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

/// One prepared class: the instance is built (and, for real files,
/// placed) once and cached — problem assembly (LSK table, sensitivity)
/// is not part of the per-stage timings.
struct ClassContext {
  netlist::Ispd98ClassSpec spec;
  std::unique_ptr<RoutingProblem> problem;
  bool real = false;
};

std::vector<netlist::Ispd98ClassSpec>& classes() {
  static std::vector<netlist::Ispd98ClassSpec> c =
      netlist::ispd98_classes(ispd98_scale());
  return c;
}

ClassContext& context_for(std::size_t idx) {
  static std::vector<std::unique_ptr<ClassContext>> cache(classes().size());
  if (cache[idx] == nullptr) {
    auto ctx = std::make_unique<ClassContext>();
    ctx->spec = classes()[idx];
    netlist::Ispd98Instance inst = netlist::make_ispd98_instance(ctx->spec);
    ctx->real = inst.real;
    GsinoParams params;
    ctx->problem = std::make_unique<RoutingProblem>(inst.design,
                                                    inst.gspec, params);
    cache[idx] = std::move(ctx);
  }
  return *cache[idx];
}

struct StageSample {
  double wall_s = 0.0, cpu_s = 0.0, rss_mib = 0.0;
};

/// Run one stage thunk with CPU and (reset) peak-RSS bracketing; the
/// caller stamps wall_s from the stage artifact's own compute seconds.
template <typename F>
StageSample run_stage(F&& f) {
  StageSample s;
  reset_peak_rss();
  const double cpu0 = cpu_seconds();
  f();
  s.cpu_s = cpu_seconds() - cpu0;
  s.rss_mib = peak_rss_mib();
  return s;
}

/// Full staged GSINO flow for one class; per-stage counters.
void BM_Ispd98Session(benchmark::State& state, std::size_t idx) {
  ClassContext& ctx = context_for(idx);
  const RoutingProblem& problem = *ctx.problem;

  // Optional per-class trace (RLCR_TRACE_DIR). The tracing-enabled
  // contract says outputs are unperturbed, so the recorded counters stay
  // comparable with untraced runs.
  const char* trace_dir = std::getenv("RLCR_TRACE_DIR");
  std::optional<obs::TraceSession> trace;
  if (trace_dir != nullptr && trace_dir[0] != '\0') trace.emplace();

  StageSample route_s, budget_s, solve_s, refine_s;
  std::size_t violating = 0, unfixable = 0;
  double wirelength = 0.0, shields = 0.0;
  StageCounters counters{};
  for (auto _ : state) {
    FlowSession session(problem);
    std::shared_ptr<const RoutingArtifact> r;
    std::shared_ptr<const BudgetArtifact> b;
    std::shared_ptr<const RegionSolveArtifact> sv;
    std::shared_ptr<const RefineArtifact> rf;
    route_s = run_stage([&] { r = session.route(FlowKind::kGsino); });
    route_s.wall_s = r->seconds;
    budget_s = run_stage([&] {
      b = session.budget(FlowKind::kGsino, r,
                         problem.params().crosstalk_bound_v,
                         problem.params().budget_margin);
    });
    budget_s.wall_s = b->seconds;
    solve_s = run_stage([&] {
      sv = session.solve_regions(FlowKind::kGsino, r, b,
                                 problem.params().anneal_phase2);
    });
    solve_s.wall_s = sv->seconds;
    refine_s = run_stage([&] { rf = session.refine(sv); });
    refine_s.wall_s = rf->seconds;

    violating = rf->violating;
    unfixable = rf->unfixable;
    wirelength = r->routing->total_wirelength_um;
    shields = rf->congestion->total_shields();
    counters = session.counters();
    benchmark::DoNotOptimize(rf);
  }

  state.counters["nets"] = static_cast<double>(problem.net_count());
  state.counters["regions"] =
      static_cast<double>(problem.grid().region_count());
  state.counters["real_circuit"] = ctx.real ? 1.0 : 0.0;
  auto stage = [&](const char* name, const StageSample& s) {
    state.counters[std::string(name) + "_wall_s"] = s.wall_s;
    state.counters[std::string(name) + "_cpu_s"] = s.cpu_s;
    state.counters[std::string(name) + "_rss_peak_mib"] = s.rss_mib;
  };
  stage("route", route_s);
  stage("budget", budget_s);
  stage("solve", solve_s);
  stage("refine", refine_s);
  state.counters["violations"] = static_cast<double>(violating);
  state.counters["unfixable"] = static_cast<double>(unfixable);
  state.counters["wirelength_um"] = wirelength;
  state.counters["shields"] = shields;
  // Store warm-start visibility: how many stage artifacts this run loaded
  // from a persistent store instead of computing (all zero without one —
  // the counters were previously computed but never exported, so a
  // warm-started bench run looked identical to a cold one in the JSON).
  state.counters["route_loaded"] = static_cast<double>(counters.route_loaded);
  state.counters["solve_loaded"] = static_cast<double>(counters.solve_loaded);
  state.counters["refine_loaded"] =
      static_cast<double>(counters.refine_loaded);

  if (trace) {
    const std::filesystem::path out =
        std::filesystem::path(trace_dir) / ("trace_" + ctx.spec.name + ".json");
    std::error_code ec;
    std::filesystem::create_directories(out.parent_path(), ec);
    if (trace->write_chrome_trace(out)) {
      state.counters["trace_spans"] = static_cast<double>(trace->span_count());
    } else {
      std::fprintf(stderr, "warning: failed to write %s\n", out.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto& suite = classes();
  for (std::size_t i = 0; i < suite.size(); ++i) {
    benchmark::RegisterBenchmark(
        ("BM_Ispd98Session/" + suite[i].name).c_str(), BM_Ispd98Session, i)
        ->Unit(benchmark::kSecond)
        ->Iterations(1);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
