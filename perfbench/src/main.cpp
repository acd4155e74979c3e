// perfbench: the repository benchmark binary (built and run by
// perfbench/run.py).
//
//   perfbench --workload gsino_cold|eco_delta|whatif_service --seed N
//             --seconds S --trace 0|1 [--tiny] [--work-dir DIR]
//             [--trace-file PATH] [--expect-route HEX --expect-state HEX]
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. A layer a
// workload does not exercise reads 0 there.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.h"

using namespace perfbench;

namespace {

struct Name {
  const char* name;
  const char* unit;
};

constexpr Name kEndToEnd[] = {
    {"setup_s", "s"},      {"op_p50_s", "s"},      {"ops_per_s", "1/s"},
    {"cpu_per_op_s", "s"}, {"peak_rss_mib", "MiB"}, {"shields", "count"},
    {"wirelength_um", "um"}, {"overflow", "tracks"},
};

constexpr Name kPerLayer[] = {
    {"setup.instance_s", "s"},
    {"setup.problem_s", "s"},
    {"op.samples", "count"},
    {"op.p90_s", "s"},
    {"op.wall_s", "s"},
    {"op.unattributed_s", "s"},
    {"trace.overhead_ratio", "x"},
    {"router.route_s", "s"},
    {"router.cpu_s", "s"},
    {"router.edges_deleted", "count"},
    {"router.rsmt_fallback_nets", "count"},
    {"router.spec_commit_ratio", "ratio"},
    {"steiner.tree_build_s", "s"},
    {"steiner.cache_hit_ratio", "ratio"},
    {"budget.budget_s", "s"},
    {"sino.solve_s", "s"},
    {"sino.cpu_s", "s"},
    {"sino.regions", "count"},
    {"refine.refine_s", "s"},
    {"refine.pass1_s", "s"},
    {"refine.pass2_s", "s"},
    {"refine.pass2_accepted", "count"},
    {"refine.pass2_rejected", "count"},
    {"refine.pass2_accept_ratio", "ratio"},
    {"refine.pass2_shields_removed", "count"},
    {"refine.pass1_resolves", "count"},
    {"scenario.apply_delta_s", "s"},
    {"scenario.nets_rerouted", "count"},
    {"scenario.nets_reused", "count"},
    {"scenario.net_reuse_ratio", "ratio"},
    {"scenario.regions_solved", "count"},
    {"scenario.regions_reused", "count"},
    {"scenario.region_reuse_ratio", "ratio"},
    {"store.stores", "count"},
    {"store.hits", "count"},
    {"store.misses", "count"},
    {"store.bytes_written", "B"},
    {"store.bytes_read", "B"},
    {"service.compute_ms_p50", "ms"},
    {"service.wait_ms_p50", "ms"},
    {"service.coalesce_hits", "count"},
    {"service.session_warm_hits", "count"},
    {"service.queue_peak", "count"},
    {"service.rejected", "count"},
    {"parallel.threads", "count"},
    {"parallel.num_cpus", "count"},
    {"parallel.speedup.route", "x"},
    {"parallel.speedup.solve", "x"},
    {"parallel.speedup.refine", "x"},
    {"quality.violations", "count"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--tiny] [--work-dir DIR] "
               "[--trace-file PATH] [--expect-route HEX --expect-state HEX]\n",
               why);
  std::exit(2);
}

/// The "metrics" object for `names`, in order, from `got`: every name must
/// be present exactly once with its declared unit, or (when
/// `zero_missing`) read 0. Empty on a violation.
template <std::size_t N>
std::string format_metrics(const Name (&names)[N], const std::vector<Metric>& got,
                           bool zero_missing) {
  for (const Metric& m : got) {
    bool known = false;
    for (const Name& n : names) known = known || (m.name == n.name && m.unit == n.unit);
    if (!known) {
      std::fprintf(stderr, "perfbench: undeclared metric %s [%s]\n",
                   m.name.c_str(), m.unit.c_str());
      return {};
    }
  }
  std::string out = "{";
  for (std::size_t i = 0; i < N; ++i) {
    const Metric* found = nullptr;
    for (const Metric& m : got) {
      if (m.name != names[i].name) continue;
      if (found != nullptr) {
        std::fprintf(stderr, "perfbench: duplicate metric %s\n", names[i].name);
        return {};
      }
      found = &m;
    }
    if (found == nullptr && !zero_missing) {
      std::fprintf(stderr, "perfbench: missing metric %s\n", names[i].name);
      return {};
    }
    const double v = found == nullptr ? 0.0 : found->value;
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", names[i].name, std::isfinite(v) ? v : 0.0,
                  names[i].unit);
    out += buf;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    const char* a = argv[i];
    if (!std::strcmp(a, "--workload")) {
      cfg.workload = next();
    } else if (!std::strcmp(a, "--seed")) {
      cfg.seed = std::strtoull(next(), nullptr, 10);
      have_seed = true;
    } else if (!std::strcmp(a, "--seconds")) {
      cfg.seconds = std::strtod(next(), nullptr);
      have_seconds = true;
    } else if (!std::strcmp(a, "--trace")) {
      cfg.trace = std::atoi(next()) != 0;
      have_trace = true;
    } else if (!std::strcmp(a, "--tiny")) {
      cfg.tiny = true;
    } else if (!std::strcmp(a, "--work-dir")) {
      cfg.work_dir = next();
    } else if (!std::strcmp(a, "--trace-file")) {
      cfg.trace_file = next();
    } else if (!std::strcmp(a, "--expect-route")) {
      cfg.expect_route = std::strtoull(next(), nullptr, 16);
    } else if (!std::strcmp(a, "--expect-state")) {
      cfg.expect_state = std::strtoull(next(), nullptr, 16);
    } else {
      usage("unknown argument");
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds and --trace are required");
  }
  if (cfg.seconds <= 0.0) usage("--seconds must be positive");

  // Inputs are generated from the seed alone: never substitute circuit
  // files from the environment.
  ::unsetenv("RLCR_ISPD98_DIR");

  Tracer tracer;
  RunResult res;
  try {
    if (cfg.workload == "gsino_cold") {
      res = run_gsino_cold(cfg, tracer);
    } else if (cfg.workload == "eco_delta") {
      res = run_eco_delta(cfg, tracer);
    } else if (cfg.workload == "whatif_service") {
      res = run_whatif_service(cfg, tracer);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", cfg.workload.c_str(),
                 e.what());
    return 1;
  }
  if (res.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation completed\n");
    return 1;
  }
  if (cfg.trace && !cfg.trace_file.empty() &&
      !tracer.write_json(cfg.trace_file, cfg)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", cfg.trace_file.c_str());
    return 1;
  }

  const std::string metrics =
      cfg.trace ? format_metrics(kPerLayer, res.per_layer, true)
                : format_metrics(kEndToEnd, res.end_to_end, false);
  if (metrics.empty()) return 3;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              res.failed == 0 ? "true" : "false", res.attempted, res.failed,
              metrics.c_str());
  std::fflush(stdout);
  return 0;
}
