// route_cli: command-line driver for the full flow on synthetic or real
// ISPD'98 inputs.
//
//   # calibrated synthetic stand-in, full GSINO flow
//   $ ./route_cli --circuit ibm01 --scale 0.25 --rate 0.3 --flow gsino
//
//   # genuine ISPD'98 files (placed by the built-in min-cut placer)
//   $ ./route_cli --net ibm01.net --are ibm01.are \
//                 --outline 1533x1824 --grid 96x96 --cap 22x20 --flow all
//
//   # what-if crosstalk-bound sweep: Phase I runs once, every subsequent
//   # bound re-solves Phase II/III off the cached routing artifact
//   $ ./route_cli --circuit ibm01 --flow gsino --sweep-bound 0.12,0.15,0.20
//
//   # persistent artifact store: the first run routes and publishes, a
//   # second identical invocation loads Phase I from disk (the printed
//   # stage counters show route 0 executed / N loaded)
//   $ ./route_cli --circuit ibm01 --flow gsino --store-dir /tmp/rlcr-store
//   $ ./route_cli --circuit ibm01 --flow gsino --store-dir /tmp/rlcr-store
//
//   # observability: span trace (Perfetto-loadable), metrics registry
//   # JSON, and an on-terminal profile table (docs/OBSERVABILITY.md)
//   $ ./route_cli --circuit ibm01 --flow gsino \
//                 --trace-out trace.json --metrics-out metrics.json --profile
//
//   # incremental ECO: apply 3 seeded netlist deltas through the session,
//   # re-running each --flow flow after each; every flow's final state is
//   # differentially checked against a from-scratch recompute of the chain
//   $ ./route_cli --circuit ibm01 --flow all --delta-demo 3
//
//   # scenario matrix: the four campaign kinds (bound sweep, tech sweep,
//   # delta chain, ECO slice) on one instance, as bench_scenarios runs them
//   $ ./route_cli --ispd98-class ibm01 --scale 0.05 --matrix
//
// Prints the flow summary (violations, wire length, shields, routing area)
// and optionally dumps per-net noise to CSV (--noise-csv out.csv).
#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <csignal>

#include "core/experiment.h"
#include "core/session.h"
#include "netlist/ispd98.h"
#include "netlist/ispd98_synth.h"
#include "netlist/placement.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "router/route_types.h"
#include "scenario/delta.h"
#include "scenario/matrix.h"
#include "service/client.h"
#include "service/server.h"
#include "store/artifact_store.h"
#include "util/csv.h"
#include "util/table_printer.h"

using namespace rlcr;
using namespace rlcr::gsino;

namespace {

struct CliOptions {
  std::string circuit = "ibm01";
  std::string ispd98_class;
  std::string net_path;
  std::string are_path;
  std::string noise_csv;
  std::string store_dir;
  std::uintmax_t store_max_bytes = std::uintmax_t{256} << 20;
  std::string flow = "gsino";  // idno | isino | gsino | all
  std::vector<double> sweep_bounds;  // --sweep-bound list
  double scale = 0.25;
  double rate = 0.30;
  double bound_v = 0.15;
  std::uint64_t seed = 1;
  double outline_w = 0.0, outline_h = 0.0;
  int grid_x = 64, grid_y = 64;
  int cap_h = 20, cap_v = 18;
  int threads = 0;  // 0 = auto; results are identical at any value
  int delta_demo = 0;   // --delta-demo: incremental netlist-delta steps
  bool matrix = false;  // --matrix: run the four scenario-matrix kinds
  bool fingerprint = false;
  std::string trace_out;
  std::string metrics_out;
  bool profile = false;
  std::string serve_path;    // --serve: run the what-if daemon
  std::string connect_path;  // --connect: query a running daemon
  int serve_workers = 2;
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --circuit ibm01..ibm06   synthetic stand-in (default ibm01)\n"
      "  --ispd98-class ibm01..ibm06\n"
      "                           ISPD98-class instance instead: the genuine\n"
      "                           circuit when RLCR_ISPD98_DIR holds it (at\n"
      "                           --scale 1 only — real circuits cannot\n"
      "                           shrink with the fabric), else the\n"
      "                           calibrated synthetic stand-in, on the\n"
      "                           class's own grid (--scale applies)\n"
      "  --scale S                density-preserving shrink (default 0.25)\n"
      "  --net FILE [--are FILE]  route a real ISPD'98 netD circuit instead\n"
      "  --outline WxH            chip outline in um (required with --net)\n"
      "  --grid CxR               routing regions (default 64x64)\n"
      "  --cap HxV                tracks per region (default 20x18)\n"
      "  --rate R                 sensitivity rate (default 0.30)\n"
      "  --bound V                crosstalk bound in volts (default 0.15)\n"
      "  --flow idno|isino|gsino|all (default gsino)\n"
      "  --sweep-bound B1,B2,...  what-if sweep: re-solve the flow at each\n"
      "                           bound off one cached Phase I routing\n"
      "  --seed N                 master seed (default 1)\n"
      "  --threads N              pool workers for routing + Phase II\n"
      "                           (default auto; output identical at any N)\n"
      "  --delta-demo N           incremental mode: run the --flow flow(s)\n"
      "                           once, then apply N seeded netlist deltas\n"
      "                           (add/remove/re-pin) through the session,\n"
      "                           re-running every flow after each; ends\n"
      "                           with a from-scratch differential check of\n"
      "                           every flow (exits non-zero on any\n"
      "                           fingerprint mismatch)\n"
      "  --matrix                 run the four scenario-matrix campaign\n"
      "                           kinds (bound/tech sweeps, delta chain,\n"
      "                           ECO slice) on this instance and print the\n"
      "                           per-cell runs / compute-avoided /\n"
      "                           differential-check table\n"
      "  --store-dir DIR          persistent artifact store: consult before\n"
      "                           routing/budgeting, publish after — a second\n"
      "                           invocation on the same circuit skips Phase I\n"
      "  --store-max-bytes N      store LRU size budget (default 256 MiB)\n"
      "  --noise-csv FILE         dump per-net LSK/noise\n"
      "  --fingerprint            print a deterministic route/state hash per\n"
      "                           flow — identical at any --threads value\n"
      "                           (CI's multi-thread smoke asserts this)\n"
      "  --trace-out FILE         record a span trace of the run and write\n"
      "                           Chrome trace-event JSON (open in Perfetto;\n"
      "                           RLCR_TRACE=<path> is the env equivalent)\n"
      "  --metrics-out FILE       write the unified metrics registry (stage\n"
      "                           counters, store stats, resource gauges) as\n"
      "                           JSON\n"
      "  --profile                print a per-span-name profile table\n"
      "                           (count / total / mean) after the run\n"
      "  --serve SOCK             run the what-if daemon on a Unix socket\n"
      "                           instead: hot FlowSessions, coalescing,\n"
      "                           admission control (src/service/README.md).\n"
      "                           The circuit flags preload one session;\n"
      "                           --store-dir attaches the shared store\n"
      "  --serve-workers N        daemon compute threads (default 2)\n"
      "  --connect SOCK           submit the query the circuit flags\n"
      "                           describe to a running daemon and print\n"
      "                           the reply; exits non-zero on transport\n"
      "                           error or a failed/rejected job\n",
      argv0);
  std::exit(2);
}

bool parse_pair(const char* s, double& a, double& b) {
  char* end = nullptr;
  a = std::strtod(s, &end);
  if (end == s || (*end != 'x' && *end != 'X')) return false;
  b = std::strtod(end + 1, nullptr);
  return a > 0 && b > 0;
}

void report(const FlowResult& fr, const RoutingProblem& problem,
            bool fingerprint) {
  std::printf(
      "%-6s @ %.2f V | violations %5zu / %zu | avg WL %7.1f um | "
      "shields %7.0f | area %.0f x %.0f um | route %.1fs sino %.1fs "
      "refine %.1fs\n",
      fr.name.c_str(), fr.bound_v, fr.violating, problem.net_count(),
      fr.avg_wirelength_um, fr.total_shields, fr.area.width_um,
      fr.area.height_um, fr.timing.route_s, fr.timing.sino_s,
      fr.timing.refine_s);
  if (fingerprint) {
    std::printf("fingerprint %s @ %.2f: route=%016llx state=%016llx\n",
                fr.name.c_str(), fr.bound_v,
                static_cast<unsigned long long>(router::route_hash(fr.routing())),
                static_cast<unsigned long long>(state_fingerprint(fr)));
  }
}

// ---- service modes (--serve / --connect) ------------------------------

volatile std::sig_atomic_t g_stop_requested = 0;
void handle_stop_signal(int) { g_stop_requested = 1; }

/// The WhatIfQuery the circuit flags describe. The service speaks problem
/// recipes, not netlist files, so --net has no service equivalent.
bool query_from(const CliOptions& opt, service::WhatIfQuery* q) {
  if (!opt.net_path.empty()) {
    std::fprintf(stderr, "--net cannot be served: the daemon assembles "
                         "problems from recipes, not files\n");
    return false;
  }
  if (!opt.ispd98_class.empty()) {
    q->source = service::QuerySource::kIspd98;
    q->circuit = opt.ispd98_class;
  } else {
    q->source = service::QuerySource::kSynthetic;
    q->circuit = opt.circuit;
  }
  q->scale = opt.scale;
  q->rate = opt.rate;
  q->bound_v = opt.bound_v;
  q->seed = opt.seed;
  if (opt.flow == "idno") {
    q->flow = 0;
  } else if (opt.flow == "isino") {
    q->flow = 1;
  } else if (opt.flow == "gsino") {
    q->flow = 2;
  } else {
    std::fprintf(stderr, "--flow %s is not a single service flow "
                         "(use idno|isino|gsino)\n", opt.flow.c_str());
    return false;
  }
  return true;
}

int run_serve(const CliOptions& opt) {
  service::ServerOptions so;
  so.socket_path = opt.serve_path;
  so.workers = opt.serve_workers;
  so.job_threads = opt.threads;
  if (!opt.store_dir.empty()) {
    try {
      so.store = std::make_shared<store::ArtifactStore>(
          opt.store_dir, store::StoreOptions{opt.store_max_bytes});
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }
  service::Server server(std::move(so));
  std::string err;
  if (!server.start(&err)) {
    std::fprintf(stderr, "cannot serve: %s\n", err.c_str());
    return 1;
  }
  service::WhatIfQuery preload;
  if (query_from(opt, &preload)) {
    if (server.preload(preload, &err)) {
      std::printf("preloaded session: %s @ scale %.2f\n",
                  preload.circuit.c_str(), preload.scale);
    } else {
      std::fprintf(stderr, "warning: preload failed: %s\n", err.c_str());
    }
  }
  std::printf("serving on %s (%d workers) — SIGINT/SIGTERM to stop\n",
              server.socket_path().c_str(), opt.serve_workers);
  std::fflush(stdout);
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  while (g_stop_requested == 0) {
    const timespec tick{0, 200'000'000};
    nanosleep(&tick, nullptr);
  }
  server.stop();
  const service::ServiceStats s = server.stats();
  std::printf("served %zu submits: %zu executed, %zu coalesced, "
              "%zu rejected, %zu failed\n",
              s.submits, s.jobs_executed, s.coalesce_hits,
              s.rejected_queue_full + s.rejected_inflight_cap +
                  s.rejected_bad_query,
              s.jobs_failed);
  return 0;
}

int run_connect(const CliOptions& opt) {
  service::WhatIfQuery base;
  if (!query_from(opt, &base)) return 2;

  service::Client client;
  std::string err;
  if (!client.connect(opt.connect_path, &err)) {
    std::fprintf(stderr, "connect failed: %s\n", err.c_str());
    return 1;
  }

  // A --sweep-bound list becomes one what-if query per bound, exercising
  // the daemon's hot session exactly like a local Scenario sweep.
  std::vector<service::WhatIfQuery> queries;
  if (opt.sweep_bounds.empty()) {
    queries.push_back(base);
  } else {
    for (const double bound : opt.sweep_bounds) {
      service::WhatIfQuery q = base;
      q.has_bound = true;
      q.scenario_bound_v = bound;
      queries.push_back(q);
    }
  }

  static const char* kFlowNames[] = {"idno", "isino", "gsino"};
  for (const service::WhatIfQuery& q : queries) {
    service::SubmitAck ack;
    if (!client.submit(q, &ack, &err)) {
      std::fprintf(stderr, "submit failed: %s\n", err.c_str());
      return 1;
    }
    if (ack.reject != service::RejectReason::kNone) {
      std::fprintf(stderr, "submit rejected (reason %d)\n",
                   static_cast<int>(ack.reject));
      return 1;
    }
    service::Result res;
    if (!client.wait(ack.ticket, &res, &err)) {
      std::fprintf(stderr, "poll failed: %s\n", err.c_str());
      return 1;
    }
    if (res.state != service::JobState::kDone) {
      std::fprintf(stderr, "job %llu did not complete: %s\n",
                   static_cast<unsigned long long>(ack.ticket),
                   res.error.empty() ? "not done" : res.error.c_str());
      return 1;
    }
    const service::FlowSummary& fs = res.summary;
    std::printf(
        "%-6s @ %.2f V | violations %5llu | avg WL %7.1f um | "
        "shields %7.0f | route %.1fs sino %.1fs refine %.1fs | "
        "%.2fs on server%s%s\n",
        kFlowNames[fs.flow], fs.bound_v,
        static_cast<unsigned long long>(fs.violating), fs.avg_wirelength_um,
        fs.total_shields, fs.route_s, fs.sino_s, fs.refine_s, fs.compute_s,
        fs.warm != 0 ? " [warm]" : "", ack.coalesced != 0 ? " [coalesced]" : "");
    if (opt.fingerprint) {
      std::printf("fingerprint %s @ %.2f: route=%016llx state=%016llx\n",
                  kFlowNames[fs.flow], fs.bound_v,
                  static_cast<unsigned long long>(fs.route_hash),
                  static_cast<unsigned long long>(fs.state_hash));
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--circuit")) {
      opt.circuit = next();
    } else if (!std::strcmp(argv[i], "--ispd98-class")) {
      opt.ispd98_class = next();
    } else if (!std::strcmp(argv[i], "--scale")) {
      opt.scale = std::atof(next());
    } else if (!std::strcmp(argv[i], "--net")) {
      opt.net_path = next();
    } else if (!std::strcmp(argv[i], "--are")) {
      opt.are_path = next();
    } else if (!std::strcmp(argv[i], "--outline")) {
      if (!parse_pair(next(), opt.outline_w, opt.outline_h)) usage(argv[0]);
    } else if (!std::strcmp(argv[i], "--grid")) {
      double a, b;
      if (!parse_pair(next(), a, b)) usage(argv[0]);
      opt.grid_x = static_cast<int>(a);
      opt.grid_y = static_cast<int>(b);
    } else if (!std::strcmp(argv[i], "--cap")) {
      double a, b;
      if (!parse_pair(next(), a, b)) usage(argv[0]);
      opt.cap_h = static_cast<int>(a);
      opt.cap_v = static_cast<int>(b);
    } else if (!std::strcmp(argv[i], "--rate")) {
      opt.rate = std::atof(next());
    } else if (!std::strcmp(argv[i], "--bound")) {
      opt.bound_v = std::atof(next());
    } else if (!std::strcmp(argv[i], "--flow")) {
      opt.flow = next();
    } else if (!std::strcmp(argv[i], "--sweep-bound")) {
      const char* s = next();
      while (*s != '\0') {
        char* end = nullptr;
        const double v = std::strtod(s, &end);
        if (end == s || v <= 0.0) usage(argv[0]);
        opt.sweep_bounds.push_back(v);
        s = (*end == ',') ? end + 1 : end;
      }
      if (opt.sweep_bounds.empty()) usage(argv[0]);
    } else if (!std::strcmp(argv[i], "--seed")) {
      opt.seed = std::strtoull(next(), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--threads")) {
      opt.threads = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--delta-demo")) {
      opt.delta_demo = std::atoi(next());
      if (opt.delta_demo <= 0) usage(argv[0]);
    } else if (!std::strcmp(argv[i], "--matrix")) {
      opt.matrix = true;
    } else if (!std::strcmp(argv[i], "--store-dir")) {
      opt.store_dir = next();
    } else if (!std::strcmp(argv[i], "--store-max-bytes")) {
      opt.store_max_bytes = std::strtoull(next(), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--noise-csv")) {
      opt.noise_csv = next();
    } else if (!std::strcmp(argv[i], "--fingerprint")) {
      opt.fingerprint = true;
    } else if (!std::strcmp(argv[i], "--trace-out")) {
      opt.trace_out = next();
    } else if (!std::strcmp(argv[i], "--metrics-out")) {
      opt.metrics_out = next();
    } else if (!std::strcmp(argv[i], "--profile")) {
      opt.profile = true;
    } else if (!std::strcmp(argv[i], "--serve")) {
      opt.serve_path = next();
    } else if (!std::strcmp(argv[i], "--serve-workers")) {
      opt.serve_workers = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--connect")) {
      opt.connect_path = next();
    } else {
      usage(argv[0]);
    }
  }

  if (!opt.serve_path.empty()) return run_serve(opt);
  if (!opt.connect_path.empty()) return run_connect(opt);

  GsinoParams params;
  params.sensitivity_rate = opt.rate;
  params.crosstalk_bound_v = opt.bound_v;
  params.seed = opt.seed;
  params.threads = opt.threads;
  params.router.threads = opt.threads;

  // ---- assemble netlist + grid.
  netlist::Netlist design;
  grid::RegionGridSpec gspec;
  if (!opt.ispd98_class.empty()) {
    const auto classes = netlist::ispd98_classes(opt.scale);
    const netlist::Ispd98ClassSpec* spec =
        netlist::find_ispd98_class(classes, opt.ispd98_class);
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown ISPD98 class '%s'\n",
                   opt.ispd98_class.c_str());
      return 2;
    }
    netlist::Ispd98Instance inst = netlist::make_ispd98_instance(*spec);
    std::printf("%s: %s (%zu modules, %zu nets)\n", spec->name.c_str(),
                inst.source.c_str(), inst.design.cell_count(),
                inst.design.net_count());
    if (inst.real && !inst.parse_stats.counts_match()) {
      std::fprintf(stderr, "warning: netD header/parsed mismatch — %s\n",
                   inst.parse_stats.mismatch_report().c_str());
    }
    design = std::move(inst.design);
    gspec = inst.gspec;
  } else if (!opt.net_path.empty()) {
    if (opt.outline_w <= 0.0) {
      std::fprintf(stderr, "--net requires --outline WxH\n");
      return 2;
    }
    std::printf("parsing %s ...\n", opt.net_path.c_str());
    design = netlist::Ispd98Parser().load(opt.net_path, opt.are_path);
    design.set_outline(opt.outline_w, opt.outline_h);
    std::printf("placing %zu cells (min-cut bisection) ...\n",
                design.cell_count());
    const netlist::PlacementResult pr = netlist::BisectionPlacer().place(design);
    std::printf("placement HPWL: %.0f um\n", pr.hpwl_um);
    gspec.cols = opt.grid_x;
    gspec.rows = opt.grid_y;
    gspec.region_w_um = opt.outline_w / opt.grid_x;
    gspec.region_h_um = opt.outline_h / opt.grid_y;
    gspec.h_capacity = opt.cap_h;
    gspec.v_capacity = opt.cap_v;
  } else {
    const auto suite = netlist::ibm_suite(opt.scale);
    int idx = -1;
    for (std::size_t i = 0; i < suite.size(); ++i) {
      if (suite[i].name == opt.circuit) idx = static_cast<int>(i);
    }
    if (idx < 0) {
      std::fprintf(stderr, "unknown circuit '%s'\n", opt.circuit.c_str());
      return 2;
    }
    const netlist::SyntheticSpec& spec = suite[static_cast<std::size_t>(idx)];
    design = netlist::generate(spec);
    gspec = spec.grid_spec();
  }
  std::printf("design: %zu nets on %d x %d regions, caps %d/%d, rate %.0f%%\n\n",
              design.net_count(), gspec.cols, gspec.rows, gspec.h_capacity,
              gspec.v_capacity, opt.rate * 100.0);

  const RoutingProblem problem(design, gspec, params);
  store::StorePtr artifact_store;
  if (!opt.store_dir.empty()) {
    try {
      artifact_store = std::make_shared<store::ArtifactStore>(
          opt.store_dir, store::StoreOptions{opt.store_max_bytes});
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }
  // ---- scenario matrix (--matrix): the four campaign kinds over this one
  // instance, each with its built-in from-scratch differential check —
  // exactly what bench_scenarios records per (class, kind) cell.
  if (opt.matrix) {
    const std::string name =
        !opt.ispd98_class.empty() ? opt.ispd98_class : opt.circuit;
    util::TablePrinter table("scenario matrix: " + name);
    table.set_header({"kind", "runs", "avoided", "match", "nets", "seconds"});
    bool all_match = true;
    for (const scenario::ScenarioKind kind : scenario::kAllScenarioKinds) {
      const scenario::ScenarioCell cell = scenario::ScenarioMatrix::run_cell(
          name, design, gspec, kind, params, artifact_store);
      all_match = all_match && cell.fingerprint_match == 1;
      table.add_row(
          {scenario::kind_name(kind),
           util::fmt_int(static_cast<long long>(cell.runs)),
           util::fmt_int(static_cast<long long>(cell.compute_avoided)),
           cell.fingerprint_match == 1 ? "yes" : "NO",
           util::fmt_int(static_cast<long long>(cell.total_nets)),
           util::fmt_double(cell.seconds, 2)});
    }
    table.print(std::cout);
    return all_match ? 0 : 1;
  }

  SessionOptions sopt;
  sopt.store = artifact_store;
  FlowSession session(problem, std::move(sopt));

  std::vector<FlowKind> kinds;
  if (opt.flow == "idno") {
    kinds = {FlowKind::kIdNo};
  } else if (opt.flow == "isino") {
    kinds = {FlowKind::kIsino};
  } else if (opt.flow == "gsino") {
    kinds = {FlowKind::kGsino};
  } else if (opt.flow == "all") {
    kinds = {FlowKind::kIdNo, FlowKind::kIsino, FlowKind::kGsino};
  } else {
    usage(argv[0]);
  }

  // ---- incremental delta demo (--delta-demo N): run every requested flow
  // once, then apply N seeded netlist deltas through
  // FlowSession::apply_delta, re-running every flow after each. Ends with
  // the differential contract from tests/delta_differential_test.cpp: the
  // whole chain applied up front and recomputed from scratch must match
  // each flow's incremental end state bit for bit (route hash and state
  // fingerprint).
  if (opt.delta_demo > 0) {
    std::vector<FlowResult> got;
    for (const FlowKind kind : kinds) {
      got.push_back(session.run(kind));
      report(got.back(), session.problem(), opt.fingerprint);
    }
    std::vector<scenario::NetlistDelta> chain;
    for (int step = 0; step < opt.delta_demo; ++step) {
      chain.push_back(scenario::random_delta(
          session.problem(), opt.seed + static_cast<std::uint64_t>(step), 6));
      const scenario::DeltaReport rep = session.apply_delta(chain.back());
      std::printf(
          "delta %d: %zu change(s) | routes %zu rerouted | "
          "regions %zu reused / %zu re-solved | %.2fs\n",
          step + 1, rep.changed_nets, rep.nets_rerouted,
          rep.regions_reused, rep.regions_solved, rep.seconds);
      for (std::size_t k = 0; k < kinds.size(); ++k) {
        got[k] = session.run(kinds[k]);
        report(got[k], session.problem(), opt.fingerprint);
      }
    }
    const StageCounters& c = session.counters();
    std::printf(
        "delta counters: %zu applies | nets %zu rerouted | "
        "regions %zu re-solved / %zu reused\n",
        c.delta_applies, c.delta_nets_rerouted,
        c.delta_regions_solved, c.delta_regions_reused);
    RoutingProblem scratch = problem;
    for (const scenario::NetlistDelta& delta : chain) {
      scratch = scenario::apply_delta(scratch, delta);
    }
    FlowSession fresh(scratch);
    bool ok = true;
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const FlowResult want = fresh.run(kinds[k]);
      if (state_fingerprint(want) != state_fingerprint(got[k]) ||
          router::route_hash(want.routing()) !=
              router::route_hash(got[k].routing())) {
        std::fprintf(stderr, "%s: incremental end state differs\n",
                     flow_name(kinds[k]));
        ok = false;
      }
    }
    std::printf("differential check (from-scratch recompute): %s\n",
                ok ? "bit-identical" : "MISMATCH");
    return ok ? 0 : 1;
  }

  // ---- observability: RLCR_TRACE="1" just records (pairs with
  // --profile); any other non-"0" value doubles as the trace output path.
  if (opt.trace_out.empty()) {
    const char* env = std::getenv("RLCR_TRACE");
    if (env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0 &&
        std::strcmp(env, "1") != 0) {
      opt.trace_out = env;
    }
  }
  std::optional<obs::TraceSession> trace;
  if (!opt.trace_out.empty() || opt.profile || obs::trace_env_enabled()) {
    trace.emplace();
  }
  std::optional<obs::ResourceSampler> sampler;
  if (!opt.metrics_out.empty()) {
    obs::ResourceSamplerOptions ro;
    ro.store = artifact_store.get();
    sampler.emplace(ro);
  }

  // ---- run the requested flow(s): one session, so flows with matching
  // router profiles (ID+NO and iSINO) share a Phase I artifact, and a
  // bound sweep re-solves Phase II/III off the cached routing.
  FlowResult last;
  for (FlowKind kind : kinds) {
    if (opt.sweep_bounds.empty()) {
      last = session.run(kind);
      report(last, problem, opt.fingerprint);
      continue;
    }
    for (double bound : opt.sweep_bounds) {
      Scenario scenario;
      scenario.bound_v = bound;
      last = session.run(kind, scenario);
      report(last, problem, opt.fingerprint);
    }
  }
  const StageCounters& c = session.counters();
  std::printf(
      "stage counters: route %zu/%zu, budget %zu/%zu, solve %zu/%zu "
      "(executed/requested — reuse is the gap)\n",
      c.route_executed, c.route_requests, c.budget_executed,
      c.budget_requests, c.solve_executed, c.solve_requests);
  if (artifact_store != nullptr) {
    const store::StoreStats s = artifact_store->stats();
    std::printf(
        "artifact store: %zu hits / %zu misses, %zu stored, %zu evicted, "
        "%.1f MiB on disk (%s)\n"
        "  warm start: route loaded %zu (executed %zu), budget loaded %zu "
        "(executed %zu)%s\n",
        s.hits, s.misses, s.stores, s.evictions,
        static_cast<double>(artifact_store->bytes_on_disk()) / (1024.0 * 1024.0),
        artifact_store->dir().c_str(), c.route_loaded, c.route_executed,
        c.budget_loaded, c.budget_executed,
        c.route_executed == 0 && c.route_loaded > 0
            ? " — Phase I skipped entirely"
            : "");
    if (s.put_failures > 0) {
      std::fprintf(stderr,
                   "warning: %zu artifact publish(es) failed — is %s "
                   "writable?\n",
                   s.put_failures, artifact_store->dir().c_str());
    }
  }

  if (!opt.noise_csv.empty() && last.phase1 != nullptr) {
    util::CsvWriter csv(opt.noise_csv);
    csv.write_row(std::vector<std::string>{"net", "lsk", "noise_v",
                                           "kth", "critical_path_um"});
    for (std::size_t n = 0; n < problem.net_count(); ++n) {
      csv.write_row(std::vector<double>{static_cast<double>(n),
                                        last.net_lsk()[n], last.net_noise()[n],
                                        last.kth()[n],
                                        last.critical_path_um()[n]});
    }
    std::printf("wrote per-net noise to %s\n", opt.noise_csv.c_str());
  }

  if (sampler) sampler->stop();
  if (!opt.metrics_out.empty()) {
    obs::MetricsSnapshot snap = session.metrics();
    if (sampler) sampler->append_gauges(snap);
    if (!snap.write_json(opt.metrics_out)) {
      std::fprintf(stderr, "failed to write metrics to %s\n",
                   opt.metrics_out.c_str());
      return 1;
    }
    std::printf("wrote metrics registry to %s\n", opt.metrics_out.c_str());
  }
  if (trace) {
    // The flow has quiesced (session.run returned, pool joined), so the
    // export contract in obs/trace.h holds.
    if (opt.profile) {
      // The per-name aggregates are exact: ring wraparound drops spans
      // from the timeline only.
      std::vector<obs::SpanStat> rows = trace->span_stats();
      std::sort(rows.begin(), rows.end(),
                [](const obs::SpanStat& a, const obs::SpanStat& b) {
                  return a.total_ns > b.total_ns;
                });
      util::TablePrinter table("run profile (span aggregates)");
      table.set_header({"span", "count", "total ms", "mean ms", "max ms"});
      for (const obs::SpanStat& s : rows) {
        const double total_ms = static_cast<double>(s.total_ns) / 1e6;
        table.add_row(
            {s.name, util::fmt_int(static_cast<long long>(s.count)),
             util::fmt_double(total_ms, 2),
             util::fmt_double(total_ms / static_cast<double>(s.count), 3),
             util::fmt_double(static_cast<double>(s.max_ns) / 1e6, 3)});
      }
      table.print(std::cout);
    }
    if (!opt.trace_out.empty()) {
      if (!trace->write_chrome_trace(opt.trace_out)) {
        std::fprintf(stderr, "failed to write trace to %s\n",
                     opt.trace_out.c_str());
        return 1;
      }
      std::printf("wrote %zu spans to %s (load in Perfetto or "
                  "chrome://tracing)\n",
                  trace->span_count(), opt.trace_out.c_str());
    }
    if (trace->dropped() > 0) {
      std::printf("(%llu spans dropped to ring wraparound — raise "
                  "TraceOptions::buffer_capacity)\n",
                  static_cast<unsigned long long>(trace->dropped()));
    }
  }
  return 0;
}
