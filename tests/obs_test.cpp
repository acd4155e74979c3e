// The observability layer (src/obs): tracer ring-buffer wraparound,
// multi-thread interleave, Chrome-trace export shape, the
// tracing-never-perturbs-outputs contract (bit-identical flows with
// tracing on vs off at threads 1 and 8), metrics-registry completeness
// over the five stats structs, and the resource sampler.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/session.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "router/route_types.h"
#include "store/artifact_store.h"

#include "golden_util.h"

namespace rlcr::gsino {
namespace {

// --------------------------------------------------------------- tracer

TEST(Tracer, SpanSitesAreInertWithoutASession) {
  EXPECT_FALSE(obs::trace_enabled());
  obs::ScopedSpan sp("obs_test.inert", "test");
  EXPECT_FALSE(sp.active());
}

TEST(Tracer, RingWrapKeepsNewestSpansAndCountsDrops) {
  obs::TraceOptions topt;
  topt.buffer_capacity = 8;
  obs::TraceSession session(topt);
  for (int i = 0; i < 20; ++i) {
    obs::ScopedSpan sp("obs_test.wrap", "test");
    sp.arg("i", static_cast<double>(i));
  }
  EXPECT_EQ(session.span_count(), 8u);
  EXPECT_EQ(session.dropped(), 12u);

  // Newest win: the retained spans are exactly i = 12..19.
  const std::vector<obs::SpanRecord> spans = session.snapshot();
  ASSERT_EQ(spans.size(), 8u);
  std::vector<double> args;
  for (const obs::SpanRecord& s : spans) {
    EXPECT_STREQ(s.name, "obs_test.wrap");
    args.push_back(s.arg_val);
  }
  std::sort(args.begin(), args.end());
  for (std::size_t j = 0; j < args.size(); ++j) {
    EXPECT_EQ(args[j], static_cast<double>(12 + j)) << "slot " << j;
  }
}

TEST(Tracer, MultiThreadSpansInterleaveWithoutLoss) {
  constexpr int kThreads = 4;
  constexpr int kSpans = 50;
  obs::TraceSession session;
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([] {
        for (int i = 0; i < kSpans; ++i) {
          obs::ScopedSpan sp("obs_test.mt", "test");
          sp.arg("i", static_cast<double>(i));
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }

  // Every span survives (well under capacity), each writer got its own
  // tid, and each thread's spans come back in its own program order.
  std::map<std::uint32_t, std::vector<const obs::SpanRecord*>> by_tid;
  const std::vector<obs::SpanRecord> spans = session.snapshot();
  for (const obs::SpanRecord& s : spans) {
    if (std::strcmp(s.name, "obs_test.mt") == 0) by_tid[s.tid].push_back(&s);
  }
  EXPECT_EQ(session.dropped(), 0u);
  ASSERT_EQ(by_tid.size(), static_cast<std::size_t>(kThreads));
  for (const auto& [tid, recs] : by_tid) {
    ASSERT_EQ(recs.size(), static_cast<std::size_t>(kSpans)) << "tid " << tid;
    std::vector<double> args;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      args.push_back(recs[i]->arg_val);
      if (i > 0) EXPECT_GE(recs[i]->start_ns, recs[i - 1]->start_ns);
    }
    std::sort(args.begin(), args.end());
    for (std::size_t i = 0; i < args.size(); ++i) {
      EXPECT_EQ(args[i], static_cast<double>(i)) << "tid " << tid;
    }
  }
}

TEST(Tracer, SessionEpochRetiresSpansOfEarlierSessions) {
  {
    obs::TraceSession stale;
    obs::ScopedSpan sp("obs_test.stale", "test");
  }
  obs::TraceSession fresh;
  {
    obs::ScopedSpan sp("obs_test.fresh", "test");
  }
  const std::vector<obs::SpanRecord> spans = fresh.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "obs_test.fresh");
}

TEST(Tracer, ChromeTraceExportHasTheExpectedShape) {
  obs::TraceSession session;
  {
    obs::ScopedSpan sp("obs_test.export", "test");
    sp.arg("payload", 3.5);
  }
  std::ostringstream os;
  session.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // metadata
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // duration event
  EXPECT_NE(json.find("\"name\":\"obs_test.export\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"test\""), std::string::npos);
  EXPECT_NE(json.find("\"payload\":3.5"), std::string::npos);
  // Well-formed enough to end like a JSON object; tools/check_trace.py
  // does the full parse in CI.
  EXPECT_EQ(json.back(), '\n');
  EXPECT_EQ(json[json.size() - 2], '}');
}

// ------------------------------------------- tracing never perturbs output

struct FlowDigest {
  std::uint64_t route_hash = 0;
  std::vector<double> lsk, noise;
  double shields = 0.0;
  std::size_t violating = 0, unfixable = 0;
};

bool operator==(const FlowDigest& a, const FlowDigest& b) {
  return a.route_hash == b.route_hash && a.lsk == b.lsk && a.noise == b.noise &&
         a.shields == b.shields && a.violating == b.violating &&
         a.unfixable == b.unfixable;
}

/// Full GSINO flow on a small pinned workload with every stage's thread
/// count forced to `threads` (RLCR_THREADS is cached at first read, so
/// explicit options are the only reliable per-run override).
FlowDigest run_flow(int threads) {
  netlist::SyntheticSpec spec = netlist::tiny_spec(200, 12);
  spec.grid_cols = 12;
  spec.grid_rows = 12;
  spec.chip_w_um = 600.0;
  spec.chip_h_um = 600.0;
  spec.h_capacity = 12;
  spec.v_capacity = 12;
  const netlist::Netlist design = netlist::generate(spec);
  GsinoParams params;
  params.sensitivity_rate = 0.5;
  params.threads = threads;
  params.router.threads = threads;
  const RoutingProblem problem = make_problem(design, spec, params);

  FlowSession session(problem);
  Scenario scenario;
  scenario.refine.threads = threads;
  const FlowResult fr = session.run(FlowKind::kGsino, scenario);

  FlowDigest d;
  d.route_hash = router::route_hash(fr.routing());
  d.lsk = fr.net_lsk();
  d.noise = fr.net_noise();
  d.shields = fr.total_shields;
  d.violating = fr.violating;
  d.unfixable = fr.unfixable;
  return d;
}

TEST(Tracer, TracingOnProducesBitIdenticalFlowsAtOneAndEightThreads) {
  for (const int threads : {1, 8}) {
    const FlowDigest off = run_flow(threads);
    FlowDigest on;
    {
      obs::TraceSession trace;
      on = run_flow(threads);
      EXPECT_GT(trace.span_count(), 0u) << "threads " << threads;
    }
    EXPECT_TRUE(on == off) << "threads " << threads;
  }
}

TEST(Tracer, SessionGateSuppressesSessionSpansOnly) {
  netlist::SyntheticSpec spec = netlist::tiny_spec(100, 12);
  spec.grid_cols = 12;
  spec.grid_rows = 12;
  spec.chip_w_um = 600.0;
  spec.chip_h_um = 600.0;
  spec.h_capacity = 12;
  spec.v_capacity = 12;
  const netlist::Netlist design = netlist::generate(spec);
  GsinoParams params;
  params.sensitivity_rate = 0.3;
  const RoutingProblem problem = make_problem(design, spec, params);

  obs::TraceSession trace;
  SessionOptions sopt;
  sopt.trace = false;  // per-session opt-out of the session-stage spans
  FlowSession session(problem, std::move(sopt));
  (void)session.run(FlowKind::kGsino);

  bool saw_session = false, saw_router = false;
  for (const obs::SpanRecord& s : trace.snapshot()) {
    if (std::strcmp(s.cat, "session") == 0) saw_session = true;
    if (std::strcmp(s.cat, "router") == 0) saw_router = true;
  }
  EXPECT_FALSE(saw_session);
  EXPECT_TRUE(saw_router);
}

// ------------------------------------------------------ metrics registry

TEST(Metrics, SnapshotOverwritesByNameAndExportsSortedJson) {
  obs::MetricsSnapshot snap;
  snap.set_counter("b.two", 2.0);
  snap.set_counter("a.one", 1.0);
  snap.set_counter("b.two", 4.0);  // overwrite, not duplicate
  snap.set_gauge("c.three", 0.5);
  ASSERT_EQ(snap.metrics().size(), 3u);
  EXPECT_EQ(snap.value_of("b.two"), 4.0);
  EXPECT_TRUE(snap.has("a.one"));
  EXPECT_FALSE(snap.has("missing"));
  EXPECT_EQ(snap.value_of("missing"), 0.0);

  const std::string json = snap.to_json();
  EXPECT_LT(json.find("\"a.one\""), json.find("\"b.two\""));
  EXPECT_LT(json.find("\"b.two\""), json.find("\"c.three\""));
  EXPECT_NE(json.find("\"kind\":\"gauge\",\"value\":0.5"), std::string::npos);
}

TEST(Metrics, EveryStatsFieldAppearsInTheRegistryExactlyOnce) {
  // Fill every field of the five source structs with a distinct value,
  // adapt them all into one snapshot, and require (a) the total metric
  // count to equal the total field count — no field dropped, no name
  // collision across adapters — and (b) every expected name to carry its
  // struct's value. The sizeof static_asserts in obs/metrics.cpp catch
  // new fields at compile time; this test catches adapter typos.
  StageCounters c;
  std::size_t v = 1;
  c.route_requests = v++;
  c.route_executed = v++;
  c.route_loaded = v++;
  c.budget_requests = v++;
  c.budget_executed = v++;
  c.budget_loaded = v++;
  c.solve_requests = v++;
  c.solve_executed = v++;
  c.solve_loaded = v++;
  c.refine_requests = v++;
  c.refine_executed = v++;
  c.refine_loaded = v++;
  c.delta_applies = v++;
  c.delta_nets_rerouted = v++;
  c.delta_regions_solved = v++;
  c.delta_regions_reused = v++;

  router::RoutingStats r;
  r.edges_initial = v++;
  r.edges_deleted = v++;
  r.edges_locked = v++;
  r.reinserts = v++;
  r.prerouted_nets = v++;
  r.rsmt_fallback_nets = v++;
  r.runtime_s = 0.25;

  RefineStats f;
  f.pass1_nets_fixed = static_cast<int>(v++);
  f.pass1_resolves = static_cast<int>(v++);
  f.pass1_gave_up = static_cast<int>(v++);
  f.pass2_shields_removed = static_cast<int>(v++);
  f.pass2_accepted = static_cast<int>(v++);
  f.pass2_rejected = static_cast<int>(v++);

  store::StoreStats st;
  st.hits = v++;
  st.misses = v++;
  st.stores = v++;
  st.evictions = v++;
  st.rejected = v++;
  st.put_failures = v++;
  st.lock_waits = v++;
  st.bytes_written = v++;
  st.bytes_read = v++;

  obs::MetricsSnapshot snap;
  obs::append_metrics(snap, c);
  obs::append_metrics(snap, r);
  obs::append_metrics(snap, f);
  obs::append_metrics(snap, st);

  // 16 + 7 + 6 + 9 exported fields across the four structs (RoutingStats'
  // two always-zero spec_* fields are not exported).
  EXPECT_EQ(snap.metrics().size(), 38u);

  const std::vector<std::pair<std::string, double>> expected = {
      {"session.route_requests", 1},
      {"session.refine_loaded", 12},
      {"session.delta_applies", 13},
      {"session.delta_regions_reused", 16},
      {"router.edges_initial", 17},
      {"router.rsmt_fallback_nets", 22},
      {"router.runtime_s", 0.25},
      {"refine.pass1_nets_fixed", 23},
      {"refine.pass2_rejected", 28},
      {"store.hits", 29},
      {"store.lock_waits", 35},
      {"store.bytes_read", 37},
  };
  for (const auto& [name, want] : expected) {
    EXPECT_TRUE(snap.has(name)) << name;
    EXPECT_EQ(snap.value_of(name), want) << name;
  }
}

TEST(Metrics, SessionMetricsFoldInTheAttachedStoresStats) {
  netlist::SyntheticSpec spec = netlist::tiny_spec(100, 12);
  spec.grid_cols = 12;
  spec.grid_rows = 12;
  spec.chip_w_um = 600.0;
  spec.chip_h_um = 600.0;
  spec.h_capacity = 12;
  spec.v_capacity = 12;
  const netlist::Netlist design = netlist::generate(spec);
  GsinoParams params;
  params.sensitivity_rate = 0.3;
  const RoutingProblem problem = make_problem(design, spec, params);

  {
    FlowSession session(problem);
    (void)session.run(FlowKind::kGsino);
    const obs::MetricsSnapshot snap = session.metrics();
    EXPECT_EQ(snap.value_of("session.route_executed"), 1.0);
    EXPECT_EQ(snap.value_of("session.refine_executed"), 1.0);
    // The most recent routing/refine artifacts' stats fold in too.
    EXPECT_TRUE(snap.has("router.runtime_s"));
    EXPECT_GT(snap.value_of("router.edges_initial"), 0.0);
    EXPECT_TRUE(snap.has("refine.pass1_resolves"));
    EXPECT_FALSE(snap.has("store.hits"));  // no store attached
  }

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "rlcr_obs_store";
  std::filesystem::remove_all(dir);
  SessionOptions sopt;
  sopt.store = std::make_shared<store::ArtifactStore>(dir);
  FlowSession session(problem, std::move(sopt));
  (void)session.run(FlowKind::kGsino);
  const obs::MetricsSnapshot snap = session.metrics();
  EXPECT_TRUE(snap.has("store.hits"));
  EXPECT_GE(snap.value_of("store.stores"), 1.0);
}

// ------------------------------------------------------ resource sampler

TEST(Metrics, ResourceSamplerRecordsAtLeastOneSampleAndExportsGauges) {
  obs::ResourceSamplerOptions ro;
  ro.period = std::chrono::milliseconds(5);
  obs::ResourceSampler sampler(ro);
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  sampler.stop();

  const std::vector<obs::ResourceSample> samples = sampler.samples();
  ASSERT_GE(samples.size(), 1u);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].t_s, samples[i - 1].t_s);
  }
#if defined(__linux__)
  EXPECT_GT(samples.front().rss_kb, 0.0);
#endif

  obs::MetricsSnapshot snap;
  sampler.append_gauges(snap);
  for (const char* name :
       {"resource.samples", "resource.rss_peak_kb", "resource.rss_last_kb",
        "resource.store_peak_bytes", "resource.pool_peak_threads"}) {
    EXPECT_TRUE(snap.has(name)) << name;
  }
  EXPECT_EQ(snap.value_of("resource.samples"),
            static_cast<double>(samples.size()));
}

// A run shorter than the sampling period still sees its own peak: stop()
// takes a closing sample, and the RSS peak reads the kernel's VmHWM
// watermark, so a 64 MiB block touched and freed between the two samples
// counts even though neither sample saw it resident.
TEST(Metrics, ResourceSamplerPeakSeesShortLivedAllocation) {
  obs::ResourceSamplerOptions ro;
  ro.period = std::chrono::seconds(60);
  obs::ResourceSampler sampler(ro);
  while (sampler.samples().empty()) std::this_thread::yield();
  {
    constexpr std::size_t kBytes = std::size_t{64} << 20;
    const std::unique_ptr<char[]> block(new char[kBytes]);
    volatile char* const touch = block.get();
    for (std::size_t i = 0; i < kBytes; i += 4096) {
      touch[i] = static_cast<char>(i >> 12);
    }
  }
  sampler.stop();

  const std::vector<obs::ResourceSample> samples = sampler.samples();
  ASSERT_EQ(samples.size(), 2u);
  obs::MetricsSnapshot snap;
  sampler.append_gauges(snap);
  EXPECT_EQ(snap.value_of("resource.samples"), 2.0);
#if defined(__linux__)
  EXPECT_GE(snap.value_of("resource.rss_peak_kb"),
            samples.front().rss_kb + 60.0 * 1024.0);
#endif
}

}  // namespace
}  // namespace rlcr::gsino
