// Low-overhead scoped span tracer (the observability layer's timing half;
// the metrics registry in obs/metrics.h is the counters half).
//
// Design contract:
//
//   - A span site is `RLCR_TRACE_SPAN(sp, "router.build", "router");` at
//     the top of a scope, optionally followed by `sp.arg("nets", n)`.
//     With no TraceSession active the site costs one relaxed atomic load
//     and a predicted branch — cheap enough for per-net / per-task loops
//     (the <2% contract on BM_IdRouter64 is pinned by the CI A/B; see
//     docs/OBSERVABILITY.md). Building with -DRLCR_OBS=OFF compiles the
//     macro away entirely.
//   - Spans land in per-thread ring buffers: a writer thread touches only
//     its own buffer, so recording is lock-free and never serializes
//     worker threads against each other (tracing enabled must not perturb
//     outputs; goldens are the oracle). When a buffer wraps, the oldest
//     spans are dropped and counted (TraceSession::dropped()).
//   - Beside its ring, each thread keeps exact per-name aggregates (count,
//     total and max duration) in a small table keyed by the name pointer.
//     They never wrap: TraceSession::span_stats() merges them across
//     threads, so a profile stays exact when the ring (the timeline only)
//     drops spans.
//   - TraceSession is the on/off switch and the exporter: constructing one
//     starts an epoch (stale buffers from earlier sessions are ignored),
//     destroying it stops recording. snapshot()/write_chrome_trace() must
//     be called after the traced work has quiesced (pool run()/map()
//     returned) — the pool's join handshake is the happens-before edge
//     that makes the export race-free (TSan-checked at RLCR_THREADS=8).
//   - Span names and categories must be string literals (or otherwise
//     outlive the session): the tracer stores the pointers, not copies,
//     which is what keeps the record path allocation-free.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

namespace rlcr::obs {

namespace detail {
/// Global record switch. Writers read it relaxed: a span that straddles
/// session start/stop may be kept or dropped, but the check itself is one
/// predicted branch. Toggled only by TraceSession.
extern std::atomic<bool> g_trace_enabled;

void record_span(const char* name, const char* cat, std::uint64_t start_ns,
                 std::uint64_t dur_ns, const char* arg_name, double arg_val);
}  // namespace detail

/// Monotonic timestamp (steady_clock) in ns.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The disabled-path check every span site starts with.
inline bool trace_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// True when the RLCR_TRACE environment variable asks for tracing (set and
/// not "0"). CLIs use this as an opt-in besides their --trace-out flag.
bool trace_env_enabled();

/// One exported span. `tid` is the tracer's own registration index (0 is
/// the first thread that ever recorded), stable within a process — not the
/// OS thread id. `arg_name` is null when the span carries no argument.
struct SpanRecord {
  const char* name = nullptr;
  const char* cat = nullptr;
  std::uint32_t tid = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  const char* arg_name = nullptr;
  double arg_val = 0.0;
};

/// Exact aggregate of every span of one name in a session, whether or not
/// the ring kept it.
struct SpanStat {
  const char* name = nullptr;
  const char* cat = nullptr;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;
};

/// RAII span: stamps start on construction (when tracing is on), records
/// on destruction. Movable-from-nowhere by design — declare it with
/// RLCR_TRACE_SPAN at the top of the scope being measured.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* cat)
      : ScopedSpan(name, cat, true) {}
  /// `gate` adds a caller-side condition (e.g. SessionOptions::trace)
  /// on top of the global switch.
  ScopedSpan(const char* name, const char* cat, bool gate) {
    if (gate && trace_enabled()) {
      name_ = name;
      cat_ = cat;
      start_ns_ = now_ns();
    }
  }
  ~ScopedSpan() {
    if (name_ != nullptr) {
      detail::record_span(name_, cat_, start_ns_, now_ns() - start_ns_,
                          arg_name_, arg_val_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attach one numeric argument (exported into the trace event's args).
  /// `name` must be a string literal; the last call wins.
  void arg(const char* name, double value) {
    if (name_ != nullptr) {
      arg_name_ = name;
      arg_val_ = value;
    }
  }
  bool active() const { return name_ != nullptr; }

 private:
  const char* name_ = nullptr;  ///< null = not recording
  const char* cat_ = nullptr;
  const char* arg_name_ = nullptr;
  double arg_val_ = 0.0;
  std::uint64_t start_ns_ = 0;
};

/// What RLCR_TRACE_SPAN degrades to under -DRLCR_OBS=OFF.
struct NullSpan {
  void arg(const char*, double) {}
  bool active() const { return false; }
};

#ifdef RLCR_OBS_ENABLED
#define RLCR_TRACE_SPAN(var, name, cat) \
  ::rlcr::obs::ScopedSpan var((name), (cat))
#else
#define RLCR_TRACE_SPAN(var, name, cat) \
  ::rlcr::obs::NullSpan var;            \
  (void)var
#endif

struct TraceOptions {
  /// Ring capacity per thread, in spans (one span is 48 bytes). A full
  /// buffer wraps: newest spans win, dropped() reports the loss.
  std::size_t buffer_capacity = 16384;
};

/// Starts recording on construction, stops on destruction. One session at
/// a time per process (a second concurrent session steals the epoch; the
/// first one's snapshot comes back empty — don't nest them). Export
/// methods require the traced work to have quiesced first.
class TraceSession {
 public:
  explicit TraceSession(TraceOptions options = {});
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// All retained spans of this session, sorted by (start, tid).
  std::vector<SpanRecord> snapshot() const;
  /// Retained span count (cheaper than snapshot().size()).
  std::size_t span_count() const;
  /// Spans lost to ring wraparound across all threads.
  std::uint64_t dropped() const;
  /// Per-name aggregates of every span recorded in this session, merged
  /// across threads by name and sorted by name. Exact: ring wraparound
  /// does not touch them.
  std::vector<SpanStat> span_stats() const;

  /// Chrome trace-event JSON ("X" duration events + thread-name metadata),
  /// loadable in Perfetto / chrome://tracing. Timestamps are microseconds
  /// relative to session start.
  void write_chrome_trace(std::ostream& os) const;
  /// Same, to a file; false (with the trace unwritten) on I/O failure.
  bool write_chrome_trace(const std::filesystem::path& path) const;

  std::uint64_t origin_ns() const { return origin_ns_; }

 private:
  std::uint64_t epoch_ = 0;
  std::uint64_t origin_ns_ = 0;
};

}  // namespace rlcr::obs
