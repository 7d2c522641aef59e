#include "harness.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <time.h>

namespace perfbench {

namespace {

bool ParseValue(const char* flag, int argc, char** argv, int* i,
                std::string* out) {
  const size_t len = std::strlen(flag);
  const char* arg = argv[*i];
  if (std::strncmp(arg, flag, len) != 0) return false;
  if (arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  if (arg[len] == '\0' && *i + 1 < argc) {
    *out = argv[++*i];
    return true;
  }
  return false;
}

// Short decimal rendering that keeps every digit the clock gave us.
std::string FormatValue(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

}  // namespace

bool ParseOptions(int argc, char** argv, Options* options) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseValue("--workload", argc, argv, &i, &value)) {
      options->workload = value;
      have_workload = true;
    } else if (ParseValue("--seed", argc, argv, &i, &value)) {
      char* end = nullptr;
      errno = 0;
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (errno != 0 || end == value.c_str() || *end != '\0') {
        std::fprintf(stderr, "bad --seed '%s'\n", value.c_str());
        return false;
      }
    } else if (ParseValue("--seconds", argc, argv, &i, &value)) {
      options->seconds = std::atof(value.c_str());
      if (!(options->seconds > 0.0 && options->seconds <= 600.0)) {
        std::fprintf(stderr, "bad --seconds '%s'\n", value.c_str());
        return false;
      }
    } else if (ParseValue("--trace", argc, argv, &i, &value)) {
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "--trace takes 0 or 1\n");
        return false;
      }
      options->trace = value == "1";
    } else if (ParseValue("--protocol", argc, argv, &i, &value)) {
      options->protocol = value;
    } else if (ParseValue("--trace-dir", argc, argv, &i, &value)) {
      options->trace_dir = value;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
      return false;
    }
  }
  if (!have_workload) {
    std::fprintf(stderr,
                 "usage: hfq_perfbench --workload serve_hot|plan_cold|"
                 "exec_analytic [--seed N] [--seconds S] [--trace 0|1]\n");
    return false;
  }
  const std::string& p = options->protocol;
  if (p != "alternate" && p != "aa" && p != "learned-first" &&
      p != "expert-first") {
    std::fprintf(stderr, "bad --protocol '%s'\n", p.c_str());
    return false;
  }
  return true;
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

uint64_t Fnv1a(const std::string& text, uint64_t hash) {
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

void Report::Set(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  values_[name] = value;
}

double Report::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++num_failures_;
  if (failures_.size() < 20) failures_.push_back(what);
}

bool Report::correct() const {
  std::lock_guard<std::mutex> lock(mu_);
  return num_failures_ == 0;
}

void Report::Print(const Options& options) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::printf("--- %s seed=%llu seconds=%g trace=%d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::string json = "{";
  for (const auto& [name, value] : values_) {
    json += std::string(json.size() > 1 ? ", " : "") + "\"" + name +
            "\": " + FormatValue(value);
  }
  json += "}";
  for (const std::string& failure : failures_) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  if (num_failures_ > static_cast<int64_t>(failures_.size())) {
    std::printf("CHECK FAILED: ... %lld more\n",
                static_cast<long long>(num_failures_ - failures_.size()));
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"values\": %s}\n",
      num_failures_ == 0 ? "true" : "false",
      static_cast<long long>(attempted.load()),
      static_cast<long long>(failed.load()), json.c_str());
  std::fflush(stdout);
}

bool CoversEachRelationOnce(const hfq::Query& query, const hfq::PlanNode& plan,
                            std::string* why) {
  const int n = query.num_relations();
  std::vector<int> seen(static_cast<size_t>(n), 0);
  std::vector<const hfq::PlanNode*> nodes;
  plan.CollectNodes(&nodes);
  for (const hfq::PlanNode* node : nodes) {
    if (!node->IsScan()) continue;
    if (node->rel_idx < 0 || node->rel_idx >= n) {
      *why = "scan of relation index " + std::to_string(node->rel_idx) +
             " outside the query";
      return false;
    }
    ++seen[static_cast<size_t>(node->rel_idx)];
  }
  for (int r = 0; r < n; ++r) {
    if (seen[static_cast<size_t>(r)] != 1) {
      *why = "relation " + query.relations[static_cast<size_t>(r)].alias +
             " scanned " + std::to_string(seen[static_cast<size_t>(r)]) +
             " times";
      return false;
    }
  }
  const hfq::RelSet all = n >= 64 ? ~hfq::RelSet{0}
                                  : ((hfq::RelSet{1} << n) - 1);
  if (plan.rels != all) {
    *why = "plan root does not cover every relation";
    return false;
  }
  return true;
}

TraceBuffer* Tracer::NewBuffer() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<TraceBuffer>());
  buffers_.back()->spans.reserve(1 << 16);
  return buffers_.back().get();
}

std::vector<double> Tracer::DurationsUs(const std::string& name,
                                        const std::string& tag_prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const auto& buffer : buffers_) {
    for (const SpanRecord& span : buffer->spans) {
      if (name == span.name && span.tag.rfind(tag_prefix, 0) == 0) {
        out.push_back(static_cast<double>(span.end_ns - span.start_ns) *
                      1e-3);
      }
    }
  }
  return out;
}

std::vector<SpanRecord> Tracer::Select(const std::string& name,
                                       const std::string& tag_prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  for (const auto& buffer : buffers_) {
    for (const SpanRecord& span : buffer->spans) {
      if (name == span.name && span.tag.rfind(tag_prefix, 0) == 0) {
        out.push_back(span);
      }
    }
  }
  return out;
}

size_t Tracer::Count(const std::string& name,
                     const std::string& tag_prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t count = 0;
  for (const auto& buffer : buffers_) {
    for (const SpanRecord& span : buffer->spans) {
      if (name == span.name && span.tag.rfind(tag_prefix, 0) == 0) ++count;
    }
  }
  return count;
}

size_t Tracer::NumSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t count = 0;
  for (const auto& buffer : buffers_) count += buffer->spans.size();
  return count;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const auto& buffer : buffers_) {
    for (const SpanRecord& span : buffer->spans) {
      std::fprintf(out,
                   "{\"request\": %llu, \"span\": %u, \"parent\": %u, "
                   "\"name\": \"%s\", \"tag\": \"%s\", \"start_ns\": %lld, "
                   "\"dur_ns\": %lld, \"planning_ms\": %.6f, "
                   "\"service_ms\": %.6f}\n",
                   static_cast<unsigned long long>(span.request), span.id,
                   span.parent, span.name, span.tag.c_str(),
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns - span.start_ns),
                   span.planning_ms, span.service_ms);
    }
  }
  return std::fclose(out) == 0;
}

Span::Span(TraceBuffer* buffer, uint64_t request, const char* name,
           uint32_t parent)
    : buffer_(buffer), request_(request), name_(name), parent_(parent) {
  if (buffer_ != nullptr) {
    id_ = buffer_->next_id++;
    start_ns_ = NowNs();
  }
}

void Span::End() {
  if (buffer_ == nullptr) return;
  SpanRecord record;
  record.end_ns = NowNs();
  record.request = request_;
  record.id = id_;
  record.parent = parent_;
  record.name = name_;
  record.tag = std::move(tag_);
  record.start_ns = start_ns_;
  record.planning_ms = planning_ms_;
  record.service_ms = service_ms_;
  buffer_->spans.push_back(std::move(record));
  buffer_ = nullptr;
}

namespace {

// Wall time of recording one span (two clock reads, a tag, a push), timed
// over many spans into a scratch buffer.
double SpanCostNs() {
  constexpr int kSpans = 100000;
  TraceBuffer scratch;
  scratch.spans.reserve(kSpans);
  const int64_t start = NowNs();
  for (int i = 0; i < kSpans; ++i) {
    Span span(&scratch, static_cast<uint64_t>(i), "calibrate");
    span.set_tag("hit");
  }
  return static_cast<double>(NowNs() - start) / kSpans;
}

}  // namespace

void ReportCommonLayers(const Tracer& tracer,
                        const std::vector<double>& latency_ms,
                        Report* report) {
  const std::vector<double> parse = tracer.DurationsUs("sql.parse");
  report->Set("sql.parse_us_p50", Quantile(parse, 0.5));
  report->Set("sql.parse_us_p99", Quantile(parse, 0.99));

  const std::vector<double> hits = tracer.DurationsUs("serve.plan", "hit");
  const std::vector<double> misses = tracer.DurationsUs("serve.plan", "miss");
  const double plans = static_cast<double>(hits.size() + misses.size());
  if (plans > 0) {
    report->Set("serve.cache_hit_ratio",
                static_cast<double>(hits.size()) / plans);
  }
  if (!hits.empty()) report->Set("serve.hit_us_p50", Quantile(hits, 0.5));
  if (!misses.empty()) {
    report->Set("serve.miss_ms_p50", Quantile(misses, 0.5) * 1e-3);
    report->Set("serve.miss_ms_p99", Quantile(misses, 0.99) * 1e-3);
    std::vector<double> overhead_us;
    std::map<std::string, std::vector<double>> planning_by_tier;
    for (const SpanRecord& span : tracer.Select("serve.plan", "miss")) {
      overhead_us.push_back((span.service_ms - span.planning_ms) * 1e3);
      planning_by_tier[span.tag.substr(5)].push_back(span.planning_ms);
    }
    report->Set("serve.overhead_us_p50", Quantile(overhead_us, 0.5));
    for (const char* tier : {"greedy", "best-of-8", "beam-4"}) {
      const std::vector<double>& planning = planning_by_tier[tier];
      report->Set(std::string("serve.tier_share.") + tier,
                  static_cast<double>(planning.size()) /
                      static_cast<double>(misses.size()));
      if (!planning.empty()) {
        report->Set(std::string("search.planning_ms_p50.") + tier,
                    Quantile(planning, 0.5));
        report->Set(std::string("search.planning_ms_p99.") + tier,
                    Quantile(planning, 0.99));
      }
    }
  }
  const size_t requests = tracer.Count("request");
  const size_t spans = tracer.NumSpans();
  const double median_ms = Median(latency_ms);
  if (requests > 0 && median_ms > 0) {
    const double per_request_ns =
        SpanCostNs() * static_cast<double>(spans) /
        static_cast<double>(requests);
    report->Set("trace.overhead_ratio", per_request_ns * 1e-6 / median_ms);
  }
}

void WriteTrace(const Tracer& tracer, const Options& options, Report* report) {
  if (!tracer.enabled()) return;
  std::error_code ec;
  std::filesystem::create_directories(options.trace_dir, ec);
  const std::string path = options.trace_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".jsonl";
  if (ec || !tracer.Write(path)) {
    report->Fail("could not write the trace to " + path);
    return;
  }
  std::printf("trace written to %s\n", path.c_str());
}

}  // namespace perfbench
