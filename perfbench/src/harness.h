// Shared machinery of the end-to-end benchmark: command-line options,
// result printing, percentile helpers, output checks, and an in-memory span
// tracer timed around each public call the benchmark makes into the
// optimizer (sql, serve, search, optimizer, exec).
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "plan/physical_plan.h"
#include "plan/query.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Measured-exec protocol of exec_analytic: "alternate" (the benchmark's),
  /// "aa" (expert plan timed on both sides), "learned-first",
  /// "expert-first". The last three exist for the protocol self-checks.
  std::string protocol = "alternate";
  /// Where the traced run writes its spans (created if missing).
  std::string trace_dir = ".bench_build/traces";
};

/// Parses --workload/--seed/--seconds/--trace/--protocol/--trace-dir.
/// Returns false (after printing why) on a bad command line.
bool ParseOptions(int argc, char** argv, Options* options);

// ---------------------------------------------------------------- timing

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time used so far by every thread of this process, exited threads
/// included. The end-to-end timings are CPU time: on a shared host the wall
/// clock also counts the time other tenants hold the cores.
int64_t ProcessCpuNs();

/// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
/// Geometric mean of positive values; 0 when empty.
double GeoMean(const std::vector<double>& values);
/// VmHWM of this process in MiB.
double PeakRssMb();
/// 64-bit FNV-1a, chained through `hash`.
uint64_t Fnv1a(const std::string& text, uint64_t hash = 1469598103934665603ull);

// --------------------------------------------------------------- results

/// Named metric values of one run. Units, and which metrics are end to end
/// and which per layer, are BENCHMARK.json's business (perfbench/run.py).
class Report {
 public:
  void Set(const std::string& name, double value);
  double Get(const std::string& name) const;

  /// Records an output-check failure (the run then reports correct=false
  /// and exits non-zero). Thread-safe.
  void Fail(const std::string& what);
  bool correct() const;

  std::atomic<int64_t> attempted{0};
  std::atomic<int64_t> failed{0};

  /// Prints the check failures and, as the last line, one JSON object
  /// {"correct", "attempted", "failed", "values": {name: value}} holding
  /// every metric the run set.
  void Print(const Options& options) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, double> values_;
  std::vector<std::string> failures_;
  int64_t num_failures_ = 0;
};

// ---------------------------------------------------------------- checks

/// True when every relation of `query` is scanned exactly once in `plan`
/// and the root covers all of them; otherwise fills `why`.
bool CoversEachRelationOnce(const hfq::Query& query, const hfq::PlanNode& plan,
                            std::string* why);

// --------------------------------------------------------------- tracing

/// One timed call. Spans of one request share `request`; `parent` is the
/// id of the enclosing span (0 = the request's root).
struct SpanRecord {
  uint64_t request = 0;
  uint32_t id = 0;
  uint32_t parent = 0;
  const char* name = "";
  std::string tag;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// For serve.plan spans: PlanResponse::planning_ms and service_ms.
  double planning_ms = 0.0;
  double service_ms = 0.0;
};

/// Per-thread span buffer; spans stay in memory until Tracer::Write.
class TraceBuffer {
 public:
  std::vector<SpanRecord> spans;
  uint32_t next_id = 1;
};

/// Owns all thread buffers of a traced run. Disabled tracers hand out null
/// buffers, which makes every Span a no-op.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// A buffer for one thread (null when disabled). Stable for the
  /// tracer's lifetime.
  TraceBuffer* NewBuffer();
  /// Durations in microseconds of every span called `name` whose tag
  /// starts with `tag_prefix`.
  std::vector<double> DurationsUs(const std::string& name,
                                  const std::string& tag_prefix = "") const;
  /// The spans called `name` whose tag starts with `tag_prefix`.
  std::vector<SpanRecord> Select(const std::string& name,
                                 const std::string& tag_prefix = "") const;
  /// Number of spans called `name` whose tag starts with `tag_prefix`.
  size_t Count(const std::string& name,
               const std::string& tag_prefix = "") const;
  /// Number of spans recorded so far.
  size_t NumSpans() const;
  /// Writes all spans as JSON lines; returns false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<TraceBuffer>> buffers_;
};

/// RAII span: records [construction, End()/destruction) into `buffer`
/// when it is non-null.
class Span {
 public:
  Span(TraceBuffer* buffer, uint64_t request, const char* name,
       uint32_t parent = 0);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_tag(std::string tag) {
    if (buffer_ != nullptr) tag_ = std::move(tag);
  }
  void set_plan_times(double planning_ms, double service_ms) {
    planning_ms_ = planning_ms;
    service_ms_ = service_ms;
  }
  uint32_t id() const { return id_; }
  void End();

 private:
  TraceBuffer* buffer_;
  uint64_t request_;
  const char* name_;
  uint32_t id_ = 0;
  uint32_t parent_;
  std::string tag_;
  int64_t start_ns_ = 0;
  double planning_ms_ = 0.0;
  double service_ms_ = 0.0;
};

/// Fills the per-layer metrics every workload derives the same way from
/// its spans: sql.parse_us_*, serve.* timings and tier shares,
/// search.planning_ms_*.<tier>, and trace.overhead_ratio: the measured cost
/// of recording one span times the spans per request, over the median
/// request latency (`latency_ms`) of the traced run.
void ReportCommonLayers(const Tracer& tracer,
                        const std::vector<double>& latency_ms, Report* report);

/// Writes `tracer` to <trace_dir>/<workload>-seed<seed>.jsonl when traced.
void WriteTrace(const Tracer& tracer, const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
