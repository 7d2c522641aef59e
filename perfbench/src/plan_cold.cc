// plan_cold: closed-loop cold planning.
//
// One session takes the next request of a stream in which every SQL text is
// new to the run: 4-10 relations, join topology uniform over all seven
// generator topologies (stratified: each block of the stream holds one query
// per topology x relation count). A request parses its SQL, plans it through
// PlanServer::Plan with no budget (beam-4, deterministic) and then has the
// expert (TraditionalOptimizer::Optimize, exhaustive DP at n <= 10) plan the
// same parsed query. The plan cache only inserts here, so learned search and
// DP do the work, and the name-keyed memos behind both grow with every
// request.
//
// One session, not several: the memos behind planning (estimator, true-
// cardinality oracle) serialize on global locks, so three sessions served no
// more requests per second than one, and each request's latency then
// depended on which other request held the lock (a 4-relation query took
// 90 ms in one run and 4.9 s in another).
#include <cstdio>
#include <set>

#include "sql/parser.h"
#include "system.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kScale = 0.2;
constexpr uint64_t kPopulationSeed = 0xC01D;
/// Blocks of 49 queries (7 topologies x 4-10 relations); a 10 s run serves
/// two at today's speed.
constexpr size_t kBlocks = 24;
/// Every run serves at least this many blocks, and requests_per_cpu_s is
/// taken over them: the same queries in every run. Single queries dominate
/// (two of the first 98 take half its time), so a figure over however many
/// blocks fit before the deadline would change with the blocks it holds.
constexpr size_t kMeasuredBlocks = 2;
constexpr int kSetupRepeats = 3;

const hfq::JoinTopology kTopologies[] = {
    hfq::JoinTopology::kRandom,    hfq::JoinTopology::kChain,
    hfq::JoinTopology::kStar,      hfq::JoinTopology::kClique,
    hfq::JoinTopology::kSnowflake, hfq::JoinTopology::kCyclic,
    hfq::JoinTopology::kDisconnected,
};

}  // namespace

void RunPlanCold(const Options& options, Report* report) {
  std::unique_ptr<System> system = BringUp(kScale, kSetupRepeats, report);
  if (system == nullptr) return;
  hfq::Engine* engine = system->engine.get();
  hfq::PlanServer* server = system->server.get();

  // --- Inputs (benchmark-only work). The population is kBlocks blocks, each
  // holding one query per (topology, relation count) cell, so every block
  // has the same mix of shapes; the seed orders the queries within each
  // block. Runs serve kMeasuredBlocks blocks, then whole blocks until the
  // deadline (the one in progress then is finished), so the measured work
  // does not depend on where the clock stops.
  hfq::Rng population(kPopulationSeed);
  hfq::WorkloadGenerator generator(&engine->catalog(), population.Next(),
                                   hfq::QueryShapeOptions(), &engine->db());
  hfq::Rng rng(options.seed);
  std::vector<SqlText> stream;
  std::vector<std::string> shapes;  // "<topology>-<relations>" per request
  std::vector<size_t> block_end;    // stream index one past each block
  std::set<std::string> seen;
  uint64_t stream_digest = Fnv1a("");
  for (size_t b = 0; b < kBlocks; ++b) {
    std::vector<std::pair<SqlText, std::string>> block;
    for (hfq::JoinTopology topology : kTopologies) {
      for (int n = 4; n <= kMaxRelations; ++n) {
        for (int attempt = 0; attempt < 8; ++attempt) {
          auto query = generator.GenerateTopologyQuery(topology, n, "");
          if (!query.ok()) continue;
          std::string sql = query->ToSql();
          if (!seen.insert(sql).second) continue;
          block.push_back({{std::move(sql), std::move(*query)},
                           std::string(hfq::JoinTopologyName(topology)) + "-" +
                               std::to_string(n) + "#" + std::to_string(b)});
          break;
        }
      }
    }
    Shuffle(&block, &rng);
    for (auto& [entry, shape] : block) {
      stream_digest = Fnv1a(entry.sql, stream_digest);
      stream.push_back(std::move(entry));
      shapes.push_back(std::move(shape));
    }
    block_end.push_back(stream.size());
  }
  std::vector<std::string> names;
  int64_t mismatches = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    names.push_back(QueryName("cold", i));
    auto parsed = hfq::ParseSql(stream[i].sql, engine->catalog(), names[i]);
    if (!parsed.ok()) {
      report->Fail("generated SQL does not parse: " + stream[i].sql);
      return;
    }
    if (ReparseDiffers(*parsed, stream[i].generated)) ++mismatches;
  }
  report->Set("sql.reparse_mismatch_ratio",
              static_cast<double>(mismatches) /
                  static_cast<double>(stream.size()));

  // --- Measurement: one session, kMeasuredBlocks blocks and then whole
  // blocks until the deadline.
  const hfq::ShardedCacheStats cache_before = server->cache_stats();
  Tracer tracer(options.trace);
  TraceBuffer* buffer = tracer.NewBuffer();
  std::vector<double> latency;
  std::vector<double> cost_ratio;
  ExpertTimings expert_timings;
  const int64_t start_ns = NowNs();
  const int64_t start_cpu_ns = ProcessCpuNs();
  const int64_t deadline_ns =
      start_ns + static_cast<int64_t>(options.seconds * 1e9);
  size_t k = 0;
  double measured_cpu_s = 0.0;
  for (size_t b = 0; b < block_end.size(); ++b) {
    const size_t end = block_end[b];
    if (b >= kMeasuredBlocks && NowNs() >= deadline_ns) break;
    for (; k < end; ++k) {
      report->attempted.fetch_add(1);
      const int64_t begin = NowNs();
      Span request(buffer, k, "request");
      request.set_tag(shapes[k]);
      Span parse(buffer, k, "sql.parse", request.id());
      auto query = hfq::ParseSql(stream[k].sql, engine->catalog(), names[k]);
      parse.End();
      if (!query.ok()) {
        report->failed.fetch_add(1);
        report->Fail("parse failed: " + query.status().ToString());
        continue;
      }
      Span plan(buffer, k, "serve.plan", request.id());
      auto response = server->Plan(*query, /*budget_ms=*/0.0);
      if (response.ok()) {
        plan.set_tag(response->cache_hit ? "hit"
                                         : "miss:" + response->search_mode);
        plan.set_plan_times(response->planning_ms, response->service_ms);
      }
      plan.End();
      if (!response.ok()) {
        report->failed.fetch_add(1);
        continue;
      }
      latency.push_back(static_cast<double>(NowNs() - begin) * 1e-6);
      std::string why;
      if (!CoversEachRelationOnce(*query, *response->plan, &why)) {
        report->Fail(names[k] + " learned plan: " + why);
      }
      Span expert_span(buffer, k, "optimizer.optimize", request.id());
      hfq::PlanNodePtr expert =
          TimedExpertPlan(engine, *query, &expert_timings, report);
      expert_span.End();
      if (expert == nullptr) continue;
      if (!CoversEachRelationOnce(*query, *expert, &why)) {
        report->Fail(names[k] + " expert plan: " + why);
      }
      // The expert's exhaustive DP is the cost floor (eval_test's gate).
      if (response->cost < expert->est_cost * (1.0 - 1e-9)) {
        report->Fail(names[k] + ": learned cost below the DP floor");
      }
      if (k < block_end[0]) {
        cost_ratio.push_back(response->cost / expert->est_cost);
      }
    }
    // The memos grow with every distinct query served, so memory is read
    // after the first block, which every run serves: a faster planner that
    // serves more blocks must not read as a memory regression.
    if (k == block_end[0]) report->Set("peak_rss_mb", PeakRssMb());
    if (b + 1 == kMeasuredBlocks) {
      measured_cpu_s =
          static_cast<double>(ProcessCpuNs() - start_cpu_ns) * 1e-9;
    }
  }
  const double elapsed_s = static_cast<double>(NowNs() - start_ns) * 1e-9;

  // --- Metrics.
  // Over the first block, which every run serves: a deterministic figure.
  if (cost_ratio.size() != block_end[0]) {
    report->Fail("a request of the first block failed");
  } else {
    report->Set("plan_cost_ratio", GeoMean(cost_ratio));
  }
  const double attempted = static_cast<double>(report->attempted.load());
  report->Set("latency_p50_ms", Quantile(latency, 0.5));
  report->Set("latency_p90_ms", Quantile(latency, 0.9));
  if (latency.size() >= 1000) {
    report->Set("latency_p99_ms", Quantile(latency, 0.99));
  }
  report->Set("requests_per_cpu_s",
              static_cast<double>(block_end[kMeasuredBlocks - 1]) /
                  measured_cpu_s);
  report->Set("throughput_rps", static_cast<double>(latency.size()) / elapsed_s);
  report->Set("error_ratio",
              static_cast<double>(report->failed.load()) / attempted);
  expert_timings.Fill(report);
  const hfq::ShardedCacheStats cache = server->cache_stats();
  report->Set("serve.evictions",
              static_cast<double>(cache.evictions - cache_before.evictions));
  report->Set("serve.stale_misses",
              static_cast<double>(cache.stale_misses - cache_before.stale_misses));
  if (options.trace) ReportCommonLayers(tracer, latency, report);
  std::printf("plan_cold: %zu requests served\n", latency.size());
  std::printf("digest sql_stream=%016llx plan_cost_ratio=%.17g\n",
              static_cast<unsigned long long>(stream_digest),
              report->Get("plan_cost_ratio"));
  WriteTrace(tracer, options, report);
}

}  // namespace perfbench
