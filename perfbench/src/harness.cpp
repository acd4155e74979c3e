#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

void reset_peak_rss() {
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

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

int cpu_count() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::size_t median_index(const std::vector<double>& v) {
  const double m = median(v);
  std::size_t best = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (std::fabs(v[i] - m) < std::fabs(v[best] - m)) best = i;
  }
  return best;
}

bool more_setups(const std::vector<double>& setup_s) {
  double total = 0.0;
  for (const double s : setup_s) total += s;
  return setup_s.size() < 3 || (setup_s.size() < 200 && total < 1.0);
}

// ----------------------------------------------------------------- tracer

int Tracer::begin(const char* name, int op, double start) {
  Span s;
  s.name = name;
  s.start = start;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.op = op;
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int>(spans_.size() - 1));
  return stack_.back();
}

void Tracer::end(int id, double end) {
  spans_[static_cast<std::size_t>(id)].end = end;
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void Tracer::add_op(int op, double start, double end) {
  Span s;
  s.name = "op";
  s.start = start;
  s.end = end;
  s.op = op;
  spans_.push_back(std::move(s));
}

double Tracer::op_wall(int op) const {
  for (const Span& s : spans_) {
    if (s.op == op && s.parent < 0) return s.seconds();
  }
  return 0.0;
}

double Tracer::unattributed(int op) const {
  double self = 0.0;
  for (const Span& s : spans_) {
    if (s.op != op) continue;
    if (s.parent < 0) {
      self += s.seconds();
    } else if (spans_[static_cast<std::size_t>(s.parent)].parent < 0) {
      self -= s.seconds();  // a direct child of the op root
    }
  }
  return self;
}

bool Tracer::write_json(const std::string& path, const Config& cfg) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": [",
               cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed));
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n  {\"id\": %zu, \"name\": \"%s\", \"op\": %d, "
                 "\"parent\": %d, \"start_s\": %.9f, \"end_s\": %.9f}",
                 i == 0 ? "" : ",", i, s.name.c_str(), s.op, s.parent,
                 s.start - t0, s.end - t0);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void note(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::fputs("perfbench: ", stderr);
  std::vfprintf(stderr, fmt, args);
  std::fputc('\n', stderr);
  va_end(args);
}

}  // namespace perfbench
