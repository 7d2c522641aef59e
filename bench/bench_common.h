// Shared infrastructure for the figure/claim benches: engine construction
// at bench scale, the JOB-like suite, ReJOIN training wiring, and small
// table-printing helpers. Every bench is deterministic (fixed seeds).
#ifndef HFQ_BENCH_BENCH_COMMON_H_
#define HFQ_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/full_env.h"
#include "core/reward.h"
#include "rl/rollout.h"
#include "rl/search_context.h"
#include "search/plan_search.h"
#include "util/check.h"
#include "util/logging.h"
#include "workload/generator.h"

namespace hfq {
namespace bench {

/// The benchmark database: IMDB-like at scale `scale` (0.2 by default:
/// title 4k rows, cast_info 20k rows — large enough for real operator
/// tradeoffs, small enough that every bench finishes in tens of seconds).
inline std::unique_ptr<Engine> MakeEngine(double scale = 0.2,
                                          uint64_t seed = 42) {
  SetLogLevel(LogLevel::kError);
  EngineOptions options;
  options.imdb.scale = scale;
  options.data_seed = seed;
  auto engine = Engine::CreateImdbLike(options);
  HFQ_CHECK_MSG(engine.ok(), "bench engine construction failed");
  return std::move(*engine);
}

/// The JOB-like workload: 22 families x 4 variants spanning 4-17 relations
/// (names q1a...q22d), mirroring the suite the paper trains and evaluates
/// ReJOIN on.
inline std::vector<Query> MakeJobSuite(Engine* engine,
                                       uint64_t seed = 2019) {
  WorkloadGenerator generator(&engine->catalog(), seed, QueryShapeOptions(),
                              &engine->db());
  auto suite = generator.GenerateJobLikeSuite(/*families=*/22,
                                              /*variants=*/4,
                                              /*min_relations=*/4,
                                              /*max_relations=*/17);
  HFQ_CHECK_MSG(suite.ok(), "workload generation failed");
  return std::move(*suite);
}

/// A latency-experiment workload: queries whose *expert* plan simulates
/// within [min_ms, max_ms]. Mirrors how curated suites (JOB) select
/// realistic queries — substantial but bounded work — so latency rewards
/// carry signal. Relation counts cycle over [min_rels, max_rels].
inline std::vector<Query> MakeLatencyWorkload(Engine* engine, int count,
                                              int min_rels, int max_rels,
                                              uint64_t seed,
                                              double min_ms = 5.0,
                                              double max_ms = 60000.0) {
  WorkloadGenerator generator(&engine->catalog(), seed, QueryShapeOptions(),
                              &engine->db());
  std::vector<Query> workload;
  int attempts = 0;
  while (static_cast<int>(workload.size()) < count && attempts < count * 60) {
    ++attempts;
    int n = min_rels + static_cast<int>(workload.size() + attempts) %
                           (max_rels - min_rels + 1);
    auto q = generator.GenerateQuery(
        n, "lw" + std::to_string(seed) + "_" + std::to_string(attempts));
    HFQ_CHECK(q.ok());
    auto expert = engine->RunExpert(*q);
    HFQ_CHECK(expert.ok());
    if (expert->latency_ms < min_ms || expert->latency_ms > max_ms) continue;
    workload.push_back(std::move(*q));
  }
  HFQ_CHECK_MSG(static_cast<int>(workload.size()) == count,
                "could not curate a latency workload; widen the band");
  return workload;
}

/// Everything a ReJOIN experiment needs, wired to one engine: the
/// plan-building env with only the join-order stage enabled (the expert
/// physicalizes every learned join tree, the paper's Section 3 division of
/// labour) and a policy-gradient agent trained by the shared rollout loop.
struct RejoinHarness {
  std::unique_ptr<RejoinFeaturizer> featurizer;
  std::unique_ptr<ExpertRelativeCostReward> reward;
  std::unique_ptr<FullPipelineEnv> env;
  std::unique_ptr<PolicyGradientAgent> agent;
  std::unique_ptr<RolloutLoop<FullPipelineEnv>> rollouts;
  /// Planning scratch, reused across queries (the arena is immovable).
  MlpWorkspace plan_ws;
  std::unique_ptr<SearchScratch> plan_scratch =
      std::make_unique<SearchScratch>();

  /// Trains over `workload` round-robin; `on_episode(e, reward)` fires
  /// after episode e (see RolloutLoop::Train for the ordering).
  void Train(const std::vector<Query>& workload, int episodes,
             const std::function<void(int, double)>& on_episode = nullptr) {
    rollouts->Train(
        workload, episodes,
        [](int, FullPipelineEnv*, const Episode& episode) {
          return episode.TotalReward();
        },
        [&on_episode](int e, double reward) {
          if (on_episode) on_episode(e, reward);
        });
  }

  /// Plans `query` with the frozen policy under `search` (greedy by
  /// default) and returns the physical plan. `planning_ms_out` receives
  /// the search's own planning-time charge — every rollout and expansion,
  /// the Figure 3c metric. Deterministic per (model, query, search).
  PlanNodePtr Plan(const Query& query,
                   const SearchConfig& search = SearchConfig(),
                   double* planning_ms_out = nullptr,
                   SearchResult* result_out = nullptr) {
    env->SetQuery(&query);
    AgentPolicy policy(agent.get());
    SearchContext ctx{&policy, /*rng=*/nullptr, &plan_ws,
                      plan_scratch.get()};
    auto result = MakePlanSearch(search)->Search(env.get(), ctx);
    HFQ_CHECK_MSG(result.ok(), "plan search failed");
    if (planning_ms_out != nullptr) *planning_ms_out = result->planning_ms;
    if (result_out != nullptr) *result_out = std::move(*result);
    return env->FinalPlan()->Clone();
  }
};

/// Builds the ReJOIN setup of the paper's case study, rewarded with
/// -log10(M(t) / expert cost): the same optimum per query as the paper's
/// 1/M(t) (ReciprocalCostReward), but cross-query comparable, which
/// stabilizes one policy trained over a heterogeneous suite. Fig 3a's
/// window metric (cost relative to the expert) is recovered exactly as
/// 10^(-reward). `workload` is the training workload the reward prices
/// expert costs for up front.
inline RejoinHarness MakeRejoinHarness(
    Engine* engine, int max_relations, const std::vector<Query>& workload,
    PolicyGradientConfig pg = PolicyGradientConfig(),
    int episodes_per_update = 8, int num_rollout_workers = 1,
    uint64_t seed = 7) {
  RejoinHarness harness;
  harness.featurizer = std::make_unique<RejoinFeaturizer>(
      max_relations, &engine->estimator());
  harness.reward = std::make_unique<ExpertRelativeCostReward>(
      &engine->expert(), workload);
  FullEnvConfig env_config;
  env_config.stages = PipelineStages::JoinOrderOnly();
  harness.env = std::make_unique<FullPipelineEnv>(
      harness.featurizer.get(), &engine->expert(), harness.reward.get(),
      env_config);
  harness.agent = std::make_unique<PolicyGradientAgent>(
      harness.env->state_dim(), harness.env->action_dim(), pg, seed);
  harness.rollouts = std::make_unique<RolloutLoop<FullPipelineEnv>>(
      harness.agent.get(), harness.env.get(), episodes_per_update,
      num_rollout_workers, seed);
  return harness;
}

/// The Fig-3a training schedule: decay learning rate and entropy twice.
inline void ApplyRejoinSchedule(PolicyGradientAgent* agent, int episode,
                                int total_episodes) {
  if (episode == total_episodes / 3) {
    agent->set_policy_learning_rate(5e-4);
    agent->set_entropy_coef(0.005);
  } else if (episode == 2 * total_episodes / 3) {
    agent->set_policy_learning_rate(2e-4);
    agent->set_entropy_coef(0.002);
  }
}

/// Formats a (possibly astronomical) simulated latency for humans.
inline std::string HumanTime(double ms) {
  char buf[64];
  if (ms < 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1f ms", ms);
  } else if (ms < 60e3) {
    std::snprintf(buf, sizeof(buf), "%.1f s", ms / 1e3);
  } else if (ms < 3.6e6) {
    std::snprintf(buf, sizeof(buf), "%.1f min", ms / 6e4);
  } else if (ms < 8.64e7) {
    std::snprintf(buf, sizeof(buf), "%.1f hours", ms / 3.6e6);
  } else if (ms < 3.156e10) {
    std::snprintf(buf, sizeof(buf), "%.1f days", ms / 8.64e7);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2g years", ms / 3.156e10);
  }
  return buf;
}

/// Prints a rule line like "----" sized to `width`.
inline void PrintRule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// Prints the standard bench header naming the reproduced artifact.
inline void PrintHeader(const std::string& artifact,
                        const std::string& paper_claim) {
  PrintRule(78);
  std::printf("%s\n", artifact.c_str());
  std::printf("paper: %s\n", paper_claim.c_str());
  PrintRule(78);
}

}  // namespace bench
}  // namespace hfq

#endif  // HFQ_BENCH_BENCH_COMMON_H_
