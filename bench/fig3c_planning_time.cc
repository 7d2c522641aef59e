// FIG3C — Figure 3c, "Optimization time": planning time (ms) vs number of
// relations, expert optimizer vs trained ReJOIN inference. The paper's
// counter-intuitive result: after training, ReJOIN's O(n) bottom-up
// network inference is often *faster* than the traditional enumerator,
// with the gap widening as relations grow.
#include <map>

#include "bench/bench_common.h"
#include "util/stopwatch.h"

using namespace hfq;         // NOLINT
using namespace hfq::bench;  // NOLINT

int main() {
  PrintHeader(
      "FIG3C  planning time vs relation count (expert enumerator vs "
      "trained ReJOIN)",
      "ReJOIN's planning time grows ~linearly and undercuts PostgreSQL's "
      "enumerator as queries grow");

  auto engine = MakeEngine();

  // Per-size probe workloads (3 queries per relation count, 4..17).
  WorkloadGenerator generator(&engine->catalog(), 5150, QueryShapeOptions(),
                          &engine->db());
  std::map<int, std::vector<Query>> by_size;
  for (int n = 4; n <= 17; ++n) {
    auto queries = generator.GenerateFixedSizeWorkload(
        3, n, "t" + std::to_string(n) + "_");
    HFQ_CHECK(queries.ok());
    by_size[n] = std::move(*queries);
  }

  // Briefly train a ReJOIN agent over mixed sizes (inference cost does not
  // depend on policy quality, but a warm policy keeps the comparison
  // honest: this is the planner a user would actually run).
  std::vector<Query> train;
  for (auto& [n, queries] : by_size) {
    for (const Query& q : queries) train.push_back(q);
  }
  PolicyGradientConfig pg;
  pg.hidden_dims = {128, 128};
  RejoinHarness harness = MakeRejoinHarness(engine.get(), 17, train, pg);
  std::printf("training ReJOIN (1500 episodes)...\n");
  harness.Train(train, 1500);

  std::printf("%-6s %16s %16s  %s\n", "rels", "expert (ms)", "rejoin (ms)",
              "expert enumerator");
  PrintRule(78);
  const int kReps = 3;
  for (auto& [n, queries] : by_size) {
    double expert_ms = 0.0, rejoin_ms = 0.0;
    for (const Query& q : queries) {
      for (int rep = 0; rep < kReps; ++rep) {
        Stopwatch watch;
        auto plan = engine->expert().Optimize(q);
        HFQ_CHECK(plan.ok());
        expert_ms += watch.ElapsedMillis();
        double ms = 0.0;
        harness.Plan(q, SearchConfig(), &ms);
        rejoin_ms += ms;
      }
    }
    const double denom = static_cast<double>(queries.size() * kReps);
    const char* mode =
        n <= engine->expert().options().geqo_threshold ? "(exhaustive DP)"
                                                       : "(genetic/GEQO)";
    std::printf("%-6d %16.3f %16.3f  %s\n", n, expert_ms / denom,
                rejoin_ms / denom, mode);
    std::fflush(stdout);
  }
  PrintRule(78);
  std::printf(
      "shape check: expert time should grow super-linearly toward the DP "
      "limit\n(then stay high under GEQO); ReJOIN inference grows ~linearly "
      "in n.\n");

  // Plan-time search extension: the same trained policy driven through the
  // pluggable search layer. Planning time charges the FULL search (every
  // rollout/expansion), so this is the honest cost/latency trade-off of
  // searched inference vs the single greedy rollout. Plan cost is the
  // expert-physicalized tree cost relative to greedy (< 1 = search found a
  // cheaper join order).
  std::printf("\nplan-time search trade-off (same policy, searched "
              "inference):\n");
  std::printf("%-6s %14s %14s %14s %14s\n", "rels", "greedy (ms)",
              "best-of-8 (ms)", "beam-4 (ms)", "cost vs greedy");
  PrintRule(78);
  SearchConfig best_of_8;
  best_of_8.mode = SearchMode::kBestOfK;
  best_of_8.best_of_k = 8;
  SearchConfig beam_4;
  beam_4.mode = SearchMode::kBeam;
  beam_4.beam_width = 4;
  for (int n : {4, 8, 12, 17}) {
    double greedy_ms = 0.0, best_ms = 0.0, beam_ms = 0.0;
    double greedy_cost = 0.0, best_cost = 0.0, beam_cost = 0.0;
    for (const Query& q : by_size[n]) {
      double ms = 0.0;
      greedy_cost += harness.Plan(q, SearchConfig(), &ms)->est_cost;
      greedy_ms += ms;
      best_cost += harness.Plan(q, best_of_8, &ms)->est_cost;
      best_ms += ms;
      beam_cost += harness.Plan(q, beam_4, &ms)->est_cost;
      beam_ms += ms;
    }
    const double denom = static_cast<double>(by_size[n].size());
    std::printf("%-6d %14.3f %14.3f %14.3f   b8:%.3f w4:%.3f\n", n,
                greedy_ms / denom, best_ms / denom, beam_ms / denom,
                best_cost / greedy_cost, beam_cost / greedy_cost);
    std::fflush(stdout);
  }
  PrintRule(78);
  std::printf(
      "search multiplies planning time by ~K (resp. ~W x actions) but can "
      "only\nlower plan cost: the greedy rollout is always a candidate.\n");
  return 0;
}
