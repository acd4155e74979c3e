#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>

namespace rlcr::obs {

namespace detail {

std::atomic<bool> g_trace_enabled{false};

namespace {

/// In-buffer span; `tid` lives on the buffer, not the span.
struct Span {
  const char* name = nullptr;
  const char* cat = nullptr;
  const char* arg_name = nullptr;
  double arg_val = 0.0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

/// Open-addressing table of per-name aggregates, keyed by the name
/// pointer (names are literals, so one site is one key; the exporter
/// merges equal names across keys and threads). Grows by doubling at 3/4
/// load, so no span is ever left out.
class StatTable {
 public:
  void clear() {
    entries_.assign(64, SpanStat{});
    used_ = 0;
  }
  void add(const char* name, const char* cat, std::uint64_t dur_ns) {
    if ((used_ + 1) * 4 > entries_.size() * 3) grow();
    SpanStat& e = slot(name);
    if (e.name == nullptr) {
      e.name = name;
      e.cat = cat;
      ++used_;
    }
    ++e.count;
    e.total_ns += dur_ns;
    e.max_ns = std::max(e.max_ns, dur_ns);
  }
  const std::vector<SpanStat>& entries() const { return entries_; }

 private:
  SpanStat& slot(const char* name) {
    const std::size_t mask = entries_.size() - 1;
    std::size_t i = (reinterpret_cast<std::uintptr_t>(name) >> 3) & mask;
    while (entries_[i].name != nullptr && entries_[i].name != name) {
      i = (i + 1) & mask;
    }
    return entries_[i];
  }
  void grow() {
    std::vector<SpanStat> old;
    old.swap(entries_);
    entries_.assign(std::max<std::size_t>(64, old.size() * 2), SpanStat{});
    for (const SpanStat& e : old) {
      if (e.name != nullptr) slot(e.name) = e;
    }
  }

  std::vector<SpanStat> entries_;
  std::size_t used_ = 0;
};

/// One writer thread's ring and aggregates. Only the owning thread writes
/// `slots`, `capacity`, `stats` and `count`; the exporter reads them under
/// the registry mutex after acquiring `count` (release/acquire pairs with
/// the owner's per-span release store) — plus the external quiesce
/// contract (TraceSession docs), which is what makes the export race-free.
struct ThreadBuffer {
  std::atomic<std::uint64_t> count{0};   ///< total spans ever recorded
  std::atomic<std::uint64_t> epoch{0};   ///< session this ring belongs to
  std::uint32_t tid = 0;                 ///< registration index
  std::size_t capacity = 0;
  std::vector<Span> slots;
  StatTable stats;
};

/// Process-wide tracer state. Leaked on purpose: pool worker threads may
/// outlive static destruction order, and a worker touching a destroyed
/// registry on exit would be worse than the one-allocation leak.
struct Registry {
  std::mutex mu;  ///< guards `buffers` growth and session/export state
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::atomic<std::uint64_t> epoch{0};     ///< current session epoch
  std::atomic<std::size_t> capacity{0};    ///< current session ring size
  std::uint64_t sessions = 0;              ///< epoch counter (under mu)
};

Registry& registry() {
  static Registry* reg = new Registry;
  return *reg;
}

thread_local ThreadBuffer* tl_buf = nullptr;

ThreadBuffer* register_thread(Registry& reg) {
  auto buf = std::make_unique<ThreadBuffer>();
  std::lock_guard<std::mutex> lock(reg.mu);
  buf->tid = static_cast<std::uint32_t>(reg.buffers.size());
  tl_buf = buf.get();
  reg.buffers.push_back(std::move(buf));
  return tl_buf;
}

}  // namespace

void record_span(const char* name, const char* cat, std::uint64_t start_ns,
                 std::uint64_t dur_ns, const char* arg_name, double arg_val) {
  Registry& reg = registry();
  ThreadBuffer* buf = tl_buf;
  if (buf == nullptr) buf = register_thread(reg);

  // Lazily (re)arm the ring for the current session: buffers from earlier
  // epochs keep their stale contents until the owning thread records
  // again, and the exporter skips them by epoch.
  const std::uint64_t epoch = reg.epoch.load(std::memory_order_acquire);
  if (buf->epoch.load(std::memory_order_relaxed) != epoch) {
    const std::size_t cap = reg.capacity.load(std::memory_order_acquire);
    if (buf->slots.size() != cap) buf->slots.assign(cap, Span{});
    buf->capacity = cap;
    buf->stats.clear();
    buf->count.store(0, std::memory_order_relaxed);
    buf->epoch.store(epoch, std::memory_order_release);
  }
  if (buf->capacity == 0) return;  // no session active (raced the stop)

  const std::uint64_t n = buf->count.load(std::memory_order_relaxed);
  Span& s = buf->slots[n % buf->capacity];
  s.name = name;
  s.cat = cat;
  s.arg_name = arg_name;
  s.arg_val = arg_val;
  s.start_ns = start_ns;
  s.dur_ns = dur_ns;
  buf->stats.add(name, cat, dur_ns);
  // Release: an exporter that acquires `count` sees the slot contents and
  // the aggregates.
  buf->count.store(n + 1, std::memory_order_release);
}

}  // namespace detail

bool trace_env_enabled() {
  const char* env = std::getenv("RLCR_TRACE");
  return env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
}

TraceSession::TraceSession(TraceOptions options) {
  detail::Registry& reg = detail::registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  epoch_ = ++reg.sessions;
  reg.capacity.store(options.buffer_capacity, std::memory_order_release);
  reg.epoch.store(epoch_, std::memory_order_release);
  origin_ns_ = now_ns();
  detail::g_trace_enabled.store(true, std::memory_order_release);
}

TraceSession::~TraceSession() {
  detail::g_trace_enabled.store(false, std::memory_order_release);
}

std::vector<SpanRecord> TraceSession::snapshot() const {
  detail::Registry& reg = detail::registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<SpanRecord> out;
  for (const auto& bufp : reg.buffers) {
    const detail::ThreadBuffer& buf = *bufp;
    // Acquiring `epoch` orders the ring's (re)arm — slots storage and
    // capacity — before our reads; acquiring `count` orders the recorded
    // span contents.
    if (buf.epoch.load(std::memory_order_acquire) != epoch_) continue;
    const std::uint64_t n = buf.count.load(std::memory_order_acquire);
    const std::uint64_t cap = buf.capacity;
    if (cap == 0) continue;
    const std::uint64_t kept = std::min(n, cap);
    for (std::uint64_t i = n - kept; i < n; ++i) {
      const detail::Span& s = buf.slots[i % cap];
      out.push_back(SpanRecord{s.name, s.cat, buf.tid, s.start_ns, s.dur_ns,
                               s.arg_name, s.arg_val});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.dur_ns > b.dur_ns;  // parents before children
            });
  return out;
}

std::size_t TraceSession::span_count() const {
  detail::Registry& reg = detail::registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::size_t total = 0;
  for (const auto& bufp : reg.buffers) {
    if (bufp->epoch.load(std::memory_order_acquire) != epoch_) continue;
    const std::uint64_t n = bufp->count.load(std::memory_order_acquire);
    total += static_cast<std::size_t>(
        std::min<std::uint64_t>(n, bufp->capacity));
  }
  return total;
}

std::uint64_t TraceSession::dropped() const {
  detail::Registry& reg = detail::registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::uint64_t lost = 0;
  for (const auto& bufp : reg.buffers) {
    if (bufp->epoch.load(std::memory_order_acquire) != epoch_) continue;
    const std::uint64_t n = bufp->count.load(std::memory_order_acquire);
    if (n > bufp->capacity) lost += n - bufp->capacity;
  }
  return lost;
}

std::vector<SpanStat> TraceSession::span_stats() const {
  detail::Registry& reg = detail::registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<SpanStat> all;
  for (const auto& bufp : reg.buffers) {
    if (bufp->epoch.load(std::memory_order_acquire) != epoch_) continue;
    if (bufp->count.load(std::memory_order_acquire) == 0) continue;
    for (const SpanStat& e : bufp->stats.entries()) {
      if (e.name != nullptr) all.push_back(e);
    }
  }
  std::sort(all.begin(), all.end(), [](const SpanStat& a, const SpanStat& b) {
    return std::strcmp(a.name, b.name) < 0;
  });
  std::vector<SpanStat> merged;
  for (const SpanStat& e : all) {
    if (!merged.empty() && std::strcmp(merged.back().name, e.name) == 0) {
      SpanStat& m = merged.back();
      m.count += e.count;
      m.total_ns += e.total_ns;
      m.max_ns = std::max(m.max_ns, e.max_ns);
    } else {
      merged.push_back(e);
    }
  }
  return merged;
}

void TraceSession::write_chrome_trace(std::ostream& os) const {
  const std::vector<SpanRecord> spans = snapshot();

  // Which tids appear, for thread-name metadata rows.
  std::vector<std::uint32_t> tids;
  for (const SpanRecord& s : spans) tids.push_back(s.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  const auto comma = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  comma();
  os << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"rlcr\"}}";
  for (const std::uint32_t tid : tids) {
    comma();
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
       << (tid == 0 ? "main" : "worker ") << (tid == 0 ? "" : std::to_string(tid))
       << "\"}}";
  }

  char num[64];
  const auto us = [&](std::uint64_t ns) -> const char* {
    std::snprintf(num, sizeof(num), "%.3f", static_cast<double>(ns) / 1000.0);
    return num;
  };
  for (const SpanRecord& s : spans) {
    comma();
    const std::uint64_t rel =
        s.start_ns >= origin_ns_ ? s.start_ns - origin_ns_ : 0;
    os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ",\"name\":\""
       << s.name << "\",\"cat\":\"" << s.cat << "\",\"ts\":" << us(rel);
    os << ",\"dur\":" << us(s.dur_ns);
    if (s.arg_name != nullptr) {
      std::snprintf(num, sizeof(num), "%.17g", s.arg_val);
      os << ",\"args\":{\"" << s.arg_name << "\":" << num << "}";
    }
    os << "}";
  }
  os << "\n]}\n";
}

bool TraceSession::write_chrome_trace(const std::filesystem::path& path) const {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  write_chrome_trace(f);
  f.flush();
  return static_cast<bool>(f);
}

}  // namespace rlcr::obs
