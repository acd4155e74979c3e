// Measurement harness shared by the perfbench workloads: clocks, process
// resource readings, order statistics, the benchmark-side span tracer, and
// the result record main() prints as JSON.
//
// Everything here is timed from outside the library: spans wrap public
// calls (FlowSession stages, LocalRefiner passes, TreeBuilder, the service
// Client), never anything inside them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------ run config

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test scale: every workload shrinks to a seconds-long instance.
  bool tiny = false;
  /// Where the traced run writes its span record (empty = not written).
  std::string trace_file;
  /// Scratch directory inside the checkout (service socket, store).
  std::string work_dir = ".";
  /// gsino_cold: expected fingerprints overriding the pinned/first-op ones
  /// (the self-test passes a wrong value to prove the gate counts it).
  std::optional<std::uint64_t> expect_route, expect_state;
};

// ------------------------------------------------------ clocks, resources

double now_s();           ///< steady clock
double cpu_s();           ///< process user + system CPU seconds
void reset_peak_rss();    ///< restart the VmHWM watermark (best effort)
double peak_rss_mib();    ///< VmHWM since the last reset
int cpu_count();          ///< online CPUs

// ------------------------------------------------------ order statistics

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
/// Index of the sample closest to the median (lowest index on ties).
std::size_t median_index(const std::vector<double>& v);
inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Set-up repetition rule: at least 3, and cheap set-ups repeat (up to 200
/// times) until a second of set-up has been measured, so the reported
/// median of a millisecond-scale set-up is steady too.
bool more_setups(const std::vector<double>& setup_s);

// ----------------------------------------------------------------- tracer

struct Span {
  std::string name;
  double start = 0.0, end = 0.0;
  int parent = -1;  ///< index into spans(), -1 for an op root
  int op = -1;
  double seconds() const { return end - start; }
};

/// Benchmark-side spans around public calls, kept in memory and written
/// once when the run ends. Disabled, a Scope still reads the clock (the
/// workloads use its duration) but records nothing, so traced and untraced
/// ops run the same code.
class Tracer {
 public:
  bool enabled = false;

  int begin(const char* name, int op, double start);
  void end(int id, double end);
  /// Records a finished op-root span after the fact (spans measured on
  /// other threads are collected and added by the main thread).
  void add_op(int op, double start, double end);

  /// Wall time of an op's root span (0 when the op was not traced).
  double op_wall(int op) const;
  /// The op root's self time: its wall time minus its child spans. The
  /// workloads' layer spans have no children of their own, so the layer
  /// times plus this remainder add up to op_wall(op).
  double unattributed(int op) const;

  bool write_json(const std::string& path, const Config& cfg) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Tracer& t, const char* name, int op)
      : t_(t), start_(now_s()), id_(t.enabled ? t.begin(name, op, start_) : -1) {}
  ~Scope() { stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Ends the span early; returns its duration (idempotent).
  double stop() {
    if (seconds_ < 0.0) {
      const double end = now_s();
      seconds_ = end - start_;
      if (id_ >= 0) t_.end(id_, end);
    }
    return seconds_;
  }

 private:
  Tracer& t_;
  double start_;
  int id_;
  double seconds_ = -1.0;
};

// ----------------------------------------------------------------- result

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  /// Records one checked operation.
  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// printf-style progress line on stderr (stdout carries only the result).
void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// --------------------------------------------------------------- workloads

RunResult run_gsino_cold(const Config& cfg, Tracer& tracer);
RunResult run_eco_delta(const Config& cfg, Tracer& tracer);
RunResult run_whatif_service(const Config& cfg, Tracer& tracer);

}  // namespace perfbench
