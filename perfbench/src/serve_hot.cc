// serve_hot: open-loop serving of repeated SQL.
//
// Requests draw their SQL Zipf(s=1) from a pool of kPoolSize distinct
// 3-8-relation queries, which fits the 16x256-entry plan cache, so after
// warm-up a request is parse + cache hit. The offered rate is not a guess:
// a short closed-loop phase first measures how many such requests per
// second kWorkers threads complete, and the open loop then offers
// kLoadFraction of that capacity as a seeded Poisson process. Each worker
// claims the next due request, waits for its due time and times it from
// then, so a stall also delays the requests queued behind it. At one third
// and two thirds of the horizon a background update (one RefineWithTeacher
// iteration on a small fixed set) publishes a new policy, which invalidates
// the cache and triggers a re-plan burst through the budget tiers
// (kBudgetMs per request).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <set>
#include <thread>

#include "sql/parser.h"
#include "system.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr uint64_t kPopulationSeed = 0x5E27E;
constexpr double kScale = 0.2;
constexpr size_t kPoolSize = 1024;
constexpr double kZipfS = 1.0;
constexpr int kWorkers = 3;
constexpr double kBudgetMs = 1.0;
constexpr double kSloMs = 2.0;
/// Length of the closed-loop capacity measurement.
constexpr double kCapacitySeconds = 2.0;
constexpr int kCapacityWindows = 20;
/// Offered rate over measured capacity: enough load that a slower hot path
/// queues, with headroom for the re-plan bursts.
constexpr double kLoadFraction = 0.5;
/// Policy publishes, evenly spaced inside the horizon (at 1/3 and 2/3).
constexpr int kPublishes = 2;
/// The stream digest covers this many requests: the offered rate scales the
/// arrival times only, so this prefix is the same in every run of a seed.
constexpr size_t kDigestRequests = 100000;
constexpr size_t kPlanCostSample = 128;
constexpr int kSetupRepeats = 3;

/// One request of the seeded stream: its gap after the previous request at
/// unit rate (an Exp(1) draw) and its SQL (pool index = Zipf rank).
struct Draw {
  double unit_gap;
  uint32_t pool_index;
};

// Runs one policy update + publish per requested mark, in order, on its own
// thread; the serving threads only bump `requested`.
class Updater {
 public:
  Updater(hfq::PlanServer* server, std::vector<hfq::Query> refine_on)
      : server_(server), refine_on_(std::move(refine_on)) {
    thread_ = std::thread([this] { Loop(); });
  }
  Updater(const Updater&) = delete;
  Updater& operator=(const Updater&) = delete;
  ~Updater() { Finish(); }

  void Request() {
    std::lock_guard<std::mutex> lock(mu_);
    ++requested_;
    cv_.notify_one();
  }

  /// Runs every requested update, then stops the thread.
  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
      cv_.notify_one();
    }
    if (thread_.joinable()) thread_.join();
  }

  const std::vector<double>& update_s() const { return update_s_; }
  int failures() const { return failures_; }

 private:
  void Loop() {
    hfq::TeacherConfig teacher;
    teacher.iterations = 1;
    teacher.learn_passes = 1;
    int done = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || requested_ > done; });
        if (requested_ == done) return;  // stop_ and nothing pending
      }
      const int64_t start = NowNs();
      hfq::Status status =
          server_->ApplyUpdate([&](hfq::HandsFreeOptimizer* live) {
            return live->RefineWithTeacher(refine_on_, teacher);
          });
      update_s_.push_back(static_cast<double>(NowNs() - start) * 1e-9);
      if (!status.ok()) ++failures_;
      ++done;
    }
  }

  hfq::PlanServer* server_;
  std::vector<hfq::Query> refine_on_;
  std::mutex mu_;
  std::condition_variable cv_;
  int requested_ = 0;
  bool stop_ = false;
  std::vector<double> update_s_;
  int failures_ = 0;
  std::thread thread_;  // Last: started after every member it uses.
};

// Sleeps off all but the last 100 us, then spins until NowNs() >= due, so
// a request starts within a microsecond of its due time.
void WaitUntil(int64_t due_ns) {
  for (;;) {
    const int64_t ahead = due_ns - NowNs();
    if (ahead <= 0) return;
    if (ahead > 200000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(ahead - 100000));
    }
  }
}

struct WorkerResult {
  std::vector<double> latency_ms;
  /// Start minus due time of the requests claimed before they were due:
  /// how precisely the generator releases them (queueing not included).
  std::vector<double> lateness_ms;
  int64_t slo_misses = 0;
};

}  // namespace

void RunServeHot(const Options& options, Report* report) {
  std::unique_ptr<System> system = BringUp(kScale, kSetupRepeats, report);
  if (system == nullptr) return;
  hfq::Engine* engine = system->engine.get();
  hfq::PlanServer* server = system->server.get();

  // --- Inputs (benchmark-only work): the SQL pool (fixed population; pool
  // index = Zipf popularity rank) and the seeded request stream.
  hfq::Rng population(kPopulationSeed);
  hfq::WorkloadGenerator generator(&engine->catalog(), population.Next(),
                                   hfq::QueryShapeOptions(), &engine->db());
  std::vector<SqlText> pool;
  std::set<std::string> seen;
  while (pool.size() < kPoolSize) {
    const int n = static_cast<int>(population.UniformInt(3, 8));
    auto query = generator.GenerateQuery(n, "");
    if (!query.ok()) continue;
    std::string sql = query->ToSql();
    if (!seen.insert(sql).second) continue;
    pool.push_back({std::move(sql), std::move(*query)});
  }
  std::vector<std::string> names;
  int64_t mismatches = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    names.push_back(QueryName("hot", i));
    auto parsed = hfq::ParseSql(pool[i].sql, engine->catalog(), names[i]);
    if (!parsed.ok()) {
      report->Fail("generated SQL does not parse: " + pool[i].sql);
      return;
    }
    if (ReparseDiffers(*parsed, pool[i].generated)) ++mismatches;
  }
  report->Set("sql.reparse_mismatch_ratio",
              static_cast<double>(mismatches) / static_cast<double>(kPoolSize));

  hfq::Rng rng(options.seed);
  std::vector<Draw> draws;
  auto draw_more = [&](size_t count) {
    while (draws.size() < count) {
      const double gap = -std::log(1.0 - rng.Uniform());
      const int64_t rank = rng.Zipf(static_cast<int64_t>(kPoolSize), kZipfS);
      draws.push_back({gap, static_cast<uint32_t>(rank - 1)});
    }
  };
  draw_more(kDigestRequests);
  uint64_t stream_digest = Fnv1a("");
  for (size_t i = 0; i < kDigestRequests; ++i) {
    stream_digest = Fnv1a(pool[draws[i].pool_index].sql, stream_digest);
  }

  // --- plan_cost_ratio over the most popular queries (Zipf rank = pool
  // index): planned single-threaded with no budget, so the tier (beam-4) and
  // the plans are fixed, against the expert's DP cost, which is their floor.
  std::vector<double> ratios;
  ExpertTimings expert_timings;
  for (size_t i = 0; i < kPlanCostSample; ++i) {
    auto query = hfq::ParseSql(pool[i].sql, engine->catalog(), names[i]);
    auto learned = server->Plan(*query, /*budget_ms=*/0.0);  // Parsed above.
    hfq::PlanNodePtr expert =
        TimedExpertPlan(engine, *query, &expert_timings, report);
    if (!learned.ok()) {
      report->Fail("plan of " + names[i] + ": " + learned.status().ToString());
    }
    if (expert == nullptr || !learned.ok()) return;
    if (learned->cost < expert->est_cost * (1.0 - 1e-9)) {
      report->Fail("learned plan cheaper than the DP floor for " + names[i]);
    }
    ratios.push_back(learned->cost / expert->est_cost);
  }
  report->Set("plan_cost_ratio", GeoMean(ratios));
  expert_timings.Fill(report);

  // --- Warm-up: every other pool query planned once, under the request
  // budget, so the cache holds the whole pool.
  {
    std::atomic<size_t> next{kPlanCostSample};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWorkers; ++w) {
      threads.emplace_back([&] {
        for (size_t i; (i = next.fetch_add(1)) < pool.size();) {
          auto query = hfq::ParseSql(pool[i].sql, engine->catalog(), names[i]);
          auto response = server->Plan(*query, kBudgetMs);  // Parsed above.
          if (!response.ok()) {
            report->Fail("warm-up plan of " + names[i] + ": " +
                         response.status().ToString());
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  // One request: parse + plan + output check. Returns false when it failed.
  auto serve = [&](uint32_t p, uint64_t id, TraceBuffer* buffer) {
    Span request(buffer, id, "request");
    Span parse(buffer, id, "sql.parse", request.id());
    auto query = hfq::ParseSql(pool[p].sql, engine->catalog(), names[p]);
    parse.End();
    if (!query.ok()) {
      report->Fail("parse failed: " + query.status().ToString());
      return false;
    }
    Span plan(buffer, id, "serve.plan", request.id());
    auto response = server->Plan(*query, kBudgetMs);
    if (!response.ok()) return false;
    plan.set_tag(response->cache_hit ? "hit" : "miss:" + response->search_mode);
    plan.set_plan_times(response->planning_ms, response->service_ms);
    plan.End();
    std::string why;
    if (!CoversEachRelationOnce(*query, *response->plan, &why)) {
      report->Fail(names[p] + ": " + why);
    }
    return true;
  };

  // --- Capacity: kWorkers threads serve the stream closed-loop (every
  // request a cache hit now) for kCapacitySeconds, in kCapacityWindows
  // windows. The median window's wall-clock rate sets the offered rate; the
  // median window's requests per CPU second is the hot path's bounded
  // figure.
  double capacity_rps = 0.0;
  {
    std::atomic<size_t> next{0};
    std::atomic<bool> stop{false};
    const int64_t start_ns = NowNs();
    int64_t window_cpu_ns = ProcessCpuNs();
    std::vector<std::thread> threads;
    for (int w = 0; w < kWorkers; ++w) {
      threads.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          const size_t i = next.fetch_add(1);
          if (!serve(draws[i % draws.size()].pool_index, i, nullptr)) {
            report->Fail("a request failed while measuring capacity");
          }
        }
      });
    }
    std::vector<double> window_rps;
    std::vector<double> window_cpu_rps;
    int64_t window_start = start_ns;
    size_t window_count = 0;
    for (int k = 0; k < kCapacityWindows; ++k) {
      std::this_thread::sleep_for(std::chrono::duration<double>(
          kCapacitySeconds / kCapacityWindows));
      const int64_t now = NowNs();
      const int64_t now_cpu_ns = ProcessCpuNs();
      const size_t count = next.load();
      window_rps.push_back(static_cast<double>(count - window_count) /
                           (static_cast<double>(now - window_start) * 1e-9));
      window_cpu_rps.push_back(
          static_cast<double>(count - window_count) /
          (static_cast<double>(now_cpu_ns - window_cpu_ns) * 1e-9));
      window_start = now;
      window_cpu_ns = now_cpu_ns;
      window_count = count;
    }
    stop.store(true);
    for (std::thread& t : threads) t.join();
    capacity_rps = Median(window_rps);
    report->Set("requests_per_cpu_s", Median(window_cpu_rps));
    report->Set("throughput_rps", capacity_rps);
  }
  // Read before the open loop: its bookkeeping grows with the offered rate,
  // i.e. with the capacity just measured.
  report->Set("peak_rss_mb", PeakRssMb());

  // --- The open-loop schedule at kLoadFraction of that capacity.
  const double rate = kLoadFraction * capacity_rps;
  const double horizon_s = options.seconds;
  std::vector<int64_t> due_offset_ns;
  std::vector<size_t> publish_at;  // request indices that trigger an update
  double unit_time = 0.0;
  for (size_t i = 0;; ++i) {
    draw_more(i + 1);
    unit_time += draws[i].unit_gap;
    const double t_s = unit_time / rate;
    if (t_s >= horizon_s) break;
    if (publish_at.size() < kPublishes &&
        t_s >= horizon_s * static_cast<double>(publish_at.size() + 1) /
                   (kPublishes + 1)) {
      publish_at.push_back(i);
    }
    due_offset_ns.push_back(static_cast<int64_t>(t_s * 1e9));
  }
  const size_t num_requests = due_offset_ns.size();
  std::printf("serve_hot: %zu distinct SQL; capacity %.0f req/s closed-loop, "
              "offering %.0f req/s: %zu requests over %.1fs\n",
              pool.size(), capacity_rps, rate, num_requests, horizon_s);

  // --- Measurement.
  const hfq::PlanServerStats stats_before = server->stats();
  const hfq::ShardedCacheStats cache_before = server->cache_stats();
  Tracer tracer(options.trace);
  std::vector<hfq::Query> refine_on = TrainingQueries(*engine);
  refine_on.resize(std::min<size_t>(refine_on.size(), 4));
  Updater updater(server, std::move(refine_on));
  std::vector<WorkerResult> results(kWorkers);
  std::atomic<size_t> next{0};
  const int64_t start_ns = NowNs() + 2000000;  // 2 ms to start the workers.
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      WorkerResult& out = results[static_cast<size_t>(w)];
      out.latency_ms.reserve(num_requests / kWorkers + 1024);
      out.lateness_ms.reserve(num_requests / kWorkers + 1024);
      TraceBuffer* buffer = tracer.NewBuffer();
      for (size_t i; (i = next.fetch_add(1)) < num_requests;) {
        const int64_t due = start_ns + due_offset_ns[i];
        const bool early = NowNs() < due;  // else it queued behind others
        WaitUntil(due);
        const int64_t begin = NowNs();
        if (std::find(publish_at.begin(), publish_at.end(), i) !=
            publish_at.end()) {
          updater.Request();
        }
        report->attempted.fetch_add(1, std::memory_order_relaxed);
        const bool ok = serve(draws[i].pool_index, i, buffer);
        const int64_t end = NowNs();
        const double latency_ms = static_cast<double>(end - due) * 1e-6;
        out.latency_ms.push_back(latency_ms);
        if (early) {
          out.lateness_ms.push_back(static_cast<double>(begin - due) * 1e-6);
        }
        if (!ok) report->failed.fetch_add(1, std::memory_order_relaxed);
        if (!ok || latency_ms > kSloMs) ++out.slo_misses;
      }
    });
  }
  for (std::thread& t : workers) t.join();
  updater.Finish();

  // --- Metrics.
  std::vector<double> latency, lateness;
  int64_t slo_misses = 0;
  for (const WorkerResult& r : results) {
    latency.insert(latency.end(), r.latency_ms.begin(), r.latency_ms.end());
    lateness.insert(lateness.end(), r.lateness_ms.begin(), r.lateness_ms.end());
    slo_misses += r.slo_misses;
  }
  const double attempted = static_cast<double>(report->attempted.load());
  report->Set("latency_p50_ms", Quantile(latency, 0.5));
  report->Set("latency_p90_ms", Quantile(latency, 0.9));
  if (latency.size() >= 1000) {
    report->Set("latency_p99_ms", Quantile(latency, 0.99));
  }
  report->Set("client.offered_rps", rate);
  report->Set("error_ratio", static_cast<double>(report->failed.load()) /
                                 attempted);
  report->Set("slo_miss_ratio", static_cast<double>(slo_misses) / attempted);
  report->Set("client.lateness_ms_p99", Quantile(lateness, 0.99));

  const hfq::PlanServerStats stats = server->stats();
  const hfq::ShardedCacheStats cache = server->cache_stats();
  report->Set("serve.stale_misses",
              static_cast<double>(cache.stale_misses - cache_before.stale_misses));
  report->Set("serve.evictions",
              static_cast<double>(cache.evictions - cache_before.evictions));
  report->Set("serve.publishes", static_cast<double>(stats.policy_publishes -
                                                     stats_before.policy_publishes));
  report->Set("serve.greedy_fallbacks",
              static_cast<double>(stats.greedy_fallbacks -
                                  stats_before.greedy_fallbacks));
  if (!updater.update_s().empty()) {
    report->Set("serve.publish_s", Median(updater.update_s()));
  }
  if (updater.failures() > 0) {
    report->Fail(std::to_string(updater.failures()) + " policy updates failed");
  }
  if (publish_at.size() != kPublishes) {
    report->Fail("the horizon is too short for the policy publishes");
  }
  if (options.trace) ReportCommonLayers(tracer, latency, report);
  std::printf("digest sql_stream=%016llx plan_cost_ratio=%.17g\n",
              static_cast<unsigned long long>(stream_digest),
              report->Get("plan_cost_ratio"));
  WriteTrace(tracer, options, report);
}

}  // namespace perfbench
