// Flow-wide metrics registry (the observability layer's counters half).
//
// The four stats structs scattered across the subsystems — StageCounters
// (core/session.h), RoutingStats (router/route_types.h), RefineStats
// (core/session.h), and StoreStats (store/artifact_store.h) — stay the
// internal source of truth; this layer only *adapts* them into one flat,
// name-keyed MetricsSnapshot for export (JSON, `route_cli --metrics-out`,
// the future what-if daemon's stats endpoint). Each adapter carries a
// sizeof static_assert so adding a field to a source struct without
// teaching the adapter fails the build, and the completeness test
// (tests/obs_test.cpp) proves every exported field appears in the registry
// exactly once.
//
// Naming convention: "<subsystem>.<field>" — session.*, router.*,
// refine.*, store.* — plus resource.* gauges from the sampler.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/session.h"
#include "router/route_types.h"
#include "store/artifact_store.h"

namespace rlcr::obs {

enum class MetricKind { kCounter, kGauge };

struct Metric {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;
};

/// A point-in-time, name-keyed view over the stats structs. Insertion
/// order is preserved in metrics(); to_json() sorts by name so the key
/// set — which tools/check_trace.py pins — is stable across refactors.
class MetricsSnapshot {
 public:
  void set_counter(const std::string& name, double value) {
    set(name, MetricKind::kCounter, value);
  }
  void set_gauge(const std::string& name, double value) {
    set(name, MetricKind::kGauge, value);
  }

  const std::vector<Metric>& metrics() const { return metrics_; }
  bool has(const std::string& name) const {
    return index_.find(name) != index_.end();
  }
  /// Value of `name`, or 0.0 when absent (check has() when it matters).
  double value_of(const std::string& name) const;

  /// {"metrics":{"<name>":{"kind":"counter|gauge","value":N}, ...}} with
  /// names sorted.
  std::string to_json() const;
  /// to_json() to a file; false on I/O failure.
  bool write_json(const std::filesystem::path& path) const;

 private:
  void set(const std::string& name, MetricKind kind, double value);

  std::vector<Metric> metrics_;
  std::unordered_map<std::string, std::size_t> index_;
};

// ------------------------------------------------------- struct adapters

/// session.* counters (requests/executed/loaded per stage + delta
/// economics).
void append_metrics(MetricsSnapshot& out, const gsino::StageCounters& c);
/// router.* counters plus the router.runtime_s gauge.
void append_metrics(MetricsSnapshot& out, const router::RoutingStats& s);
/// refine.* counters.
void append_metrics(MetricsSnapshot& out, const gsino::RefineStats& s);
/// store.* counters.
void append_metrics(MetricsSnapshot& out, const store::StoreStats& s);

// ------------------------------------------------------ resource sampler

struct ResourceSample {
  double t_s = 0.0;              ///< seconds since sampler start
  double rss_kb = 0.0;           ///< VmRSS (0 where /proc is unavailable)
  double rss_hwm_kb = 0.0;       ///< VmHWM: the process's peak RSS so far
  double store_bytes = 0.0;      ///< bytes on disk of the watched store
  double pool_threads = 0.0;     ///< spawned pool workers
};

struct ResourceSamplerOptions {
  std::chrono::milliseconds period{100};
  /// Optional store to watch; must outlive the sampler.
  const store::ArtifactStore* store = nullptr;
};

/// Periodically samples process RSS, artifact-store footprint, and pool
/// occupancy on a background thread. The sampled callees are internally
/// synchronized (ArtifactStore::bytes_on_disk() and ThreadPool::spawned()
/// both lock), so the sampler is safe to run alongside a flow — including
/// under TSan. stop() (or destruction) joins the thread and takes one
/// closing sample, so even a run shorter than the period is seen at its
/// start and its end.
class ResourceSampler {
 public:
  using Options = ResourceSamplerOptions;

  explicit ResourceSampler(Options options = {});
  ~ResourceSampler();
  ResourceSampler(const ResourceSampler&) = delete;
  ResourceSampler& operator=(const ResourceSampler&) = delete;

  void stop();
  std::vector<ResourceSample> samples() const;

  /// resource.* gauges (sample count, peak/last RSS, peak store bytes,
  /// peak pool threads) from the samples taken so far. The RSS peak also
  /// takes the kernel's VmHWM watermark, so an allocation that came and
  /// went between two samples still counts.
  void append_gauges(MetricsSnapshot& out) const;

 private:
  void run();
  ResourceSample take_sample() const;

  Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<ResourceSample> samples_;
  std::chrono::steady_clock::time_point start_;
  std::thread thread_;
};

}  // namespace rlcr::obs
