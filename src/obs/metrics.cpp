#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "parallel/thread_pool.h"

namespace rlcr::obs {

double MetricsSnapshot::value_of(const std::string& name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? 0.0 : metrics_[it->second].value;
}

void MetricsSnapshot::set(const std::string& name, MetricKind kind,
                          double value) {
  const auto it = index_.find(name);
  if (it != index_.end()) {
    metrics_[it->second].kind = kind;
    metrics_[it->second].value = value;
    return;
  }
  index_.emplace(name, metrics_.size());
  metrics_.push_back(Metric{name, kind, value});
}

std::string MetricsSnapshot::to_json() const {
  std::vector<const Metric*> sorted;
  sorted.reserve(metrics_.size());
  for (const Metric& m : metrics_) sorted.push_back(&m);
  std::sort(sorted.begin(), sorted.end(),
            [](const Metric* a, const Metric* b) { return a->name < b->name; });

  std::string out = "{\"metrics\":{";
  char num[64];
  bool first = true;
  for (const Metric* m : sorted) {
    if (!first) out += ",";
    first = false;
    out += "\n\"" + m->name + "\":{\"kind\":\"";
    out += m->kind == MetricKind::kCounter ? "counter" : "gauge";
    std::snprintf(num, sizeof(num), "%.17g", m->value);
    out += "\",\"value\":";
    out += num;
    out += "}";
  }
  out += "\n}}\n";
  return out;
}

bool MetricsSnapshot::write_json(const std::filesystem::path& path) const {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f << to_json();
  f.flush();
  return static_cast<bool>(f);
}

// ------------------------------------------------------- struct adapters

void append_metrics(MetricsSnapshot& out, const gsino::StageCounters& c) {
  static_assert(sizeof(gsino::StageCounters) == 17 * sizeof(std::size_t),
                "StageCounters changed: update this adapter and the "
                "completeness test in tests/obs_test.cpp");
  const auto n = [](std::size_t v) { return static_cast<double>(v); };
  out.set_counter("session.route_requests", n(c.route_requests));
  out.set_counter("session.route_executed", n(c.route_executed));
  out.set_counter("session.route_loaded", n(c.route_loaded));
  out.set_counter("session.budget_requests", n(c.budget_requests));
  out.set_counter("session.budget_executed", n(c.budget_executed));
  out.set_counter("session.budget_loaded", n(c.budget_loaded));
  out.set_counter("session.solve_requests", n(c.solve_requests));
  out.set_counter("session.solve_executed", n(c.solve_executed));
  out.set_counter("session.solve_loaded", n(c.solve_loaded));
  out.set_counter("session.refine_requests", n(c.refine_requests));
  out.set_counter("session.refine_executed", n(c.refine_executed));
  out.set_counter("session.refine_loaded", n(c.refine_loaded));
  out.set_counter("session.delta_applies", n(c.delta_applies));
  out.set_counter("session.delta_nets_rerouted", n(c.delta_nets_rerouted));
  out.set_counter("session.delta_nets_reused", n(c.delta_nets_reused));
  out.set_counter("session.delta_regions_solved", n(c.delta_regions_solved));
  out.set_counter("session.delta_regions_reused", n(c.delta_regions_reused));
}

void append_metrics(MetricsSnapshot& out, const router::RoutingStats& s) {
  static_assert(sizeof(router::RoutingStats) ==
                    8 * sizeof(std::size_t) + sizeof(double),
                "RoutingStats changed: update this adapter and the "
                "completeness test in tests/obs_test.cpp");
  const auto n = [](std::size_t v) { return static_cast<double>(v); };
  out.set_counter("router.edges_initial", n(s.edges_initial));
  out.set_counter("router.edges_deleted", n(s.edges_deleted));
  out.set_counter("router.edges_locked", n(s.edges_locked));
  out.set_counter("router.reinserts", n(s.reinserts));
  out.set_counter("router.prerouted_nets", n(s.prerouted_nets));
  out.set_counter("router.rsmt_fallback_nets", n(s.rsmt_fallback_nets));
  // spec_attempted/spec_committed are always 0 and deliberately not
  // exported (see RoutingStats).
  out.set_gauge("router.runtime_s", s.runtime_s);
}

void append_metrics(MetricsSnapshot& out, const gsino::RefineStats& s) {
  static_assert(sizeof(gsino::RefineStats) == 6 * sizeof(int),
                "RefineStats changed: update this adapter and the "
                "completeness test in tests/obs_test.cpp");
  out.set_counter("refine.pass1_nets_fixed", s.pass1_nets_fixed);
  out.set_counter("refine.pass1_resolves", s.pass1_resolves);
  out.set_counter("refine.pass1_gave_up", s.pass1_gave_up);
  out.set_counter("refine.pass2_shields_removed", s.pass2_shields_removed);
  out.set_counter("refine.pass2_accepted", s.pass2_accepted);
  out.set_counter("refine.pass2_rejected", s.pass2_rejected);
}

void append_metrics(MetricsSnapshot& out, const store::StoreStats& s) {
  static_assert(sizeof(store::StoreStats) ==
                    7 * sizeof(std::size_t) + 2 * sizeof(std::uintmax_t),
                "StoreStats changed: update this adapter and the "
                "completeness test in tests/obs_test.cpp");
  const auto n = [](std::uintmax_t v) { return static_cast<double>(v); };
  out.set_counter("store.hits", n(s.hits));
  out.set_counter("store.misses", n(s.misses));
  out.set_counter("store.stores", n(s.stores));
  out.set_counter("store.evictions", n(s.evictions));
  out.set_counter("store.rejected", n(s.rejected));
  out.set_counter("store.put_failures", n(s.put_failures));
  out.set_counter("store.lock_waits", n(s.lock_waits));
  out.set_counter("store.bytes_written", n(s.bytes_written));
  out.set_counter("store.bytes_read", n(s.bytes_read));
}

// ------------------------------------------------------ resource sampler

double ResourceSampler::rss_kb_now() {
#if defined(__linux__)
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      double kb = 0.0;
      if (std::sscanf(line.c_str(), "VmRSS: %lf", &kb) == 1) return kb;
    }
  }
#endif
  return 0.0;
}

ResourceSampler::ResourceSampler(Options options)
    : options_(options), start_(std::chrono::steady_clock::now()) {
  thread_ = std::thread([this] { run(); });
}

ResourceSampler::~ResourceSampler() { stop(); }

void ResourceSampler::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

std::vector<ResourceSample> ResourceSampler::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

void ResourceSampler::run() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    // Sample first so even a short-lived flow gets at least one point.
    ResourceSample s;
    s.t_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start_)
                .count();
    lock.unlock();  // the callees lock their own mutexes; don't hold ours
    s.rss_kb = rss_kb_now();
    if (options_.store != nullptr) {
      s.store_bytes = static_cast<double>(options_.store->bytes_on_disk());
    }
    s.pool_threads =
        static_cast<double>(parallel::ThreadPool::global().spawned());
    lock.lock();
    samples_.push_back(s);
    if (cv_.wait_for(lock, options_.period, [this] { return stop_; })) return;
  }
}

void ResourceSampler::append_gauges(MetricsSnapshot& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  double peak_rss = 0.0, last_rss = 0.0, peak_store = 0.0, peak_pool = 0.0;
  for (const ResourceSample& s : samples_) {
    peak_rss = std::max(peak_rss, s.rss_kb);
    last_rss = s.rss_kb;
    peak_store = std::max(peak_store, s.store_bytes);
    peak_pool = std::max(peak_pool, s.pool_threads);
  }
  out.set_gauge("resource.samples", static_cast<double>(samples_.size()));
  out.set_gauge("resource.rss_peak_kb", peak_rss);
  out.set_gauge("resource.rss_last_kb", last_rss);
  out.set_gauge("resource.store_peak_bytes", peak_store);
  out.set_gauge("resource.pool_peak_threads", peak_pool);
}

}  // namespace rlcr::obs
