// SEC4-NAIVE — Section 4, "Search Space Size": a naive extension of ReJOIN
// to the full execution-plan search space (join order x access paths x
// join operators x aggregates, cross products allowed) fails to beat
// random choice within a training budget that suffices for the restricted
// join-order-only space. (The paper reports the naive agent not beating
// random even after 72 hours.)
#include "bench/bench_common.h"
#include "core/full_env.h"
#include "rl/policy_gradient.h"

using namespace hfq;         // NOLINT
using namespace hfq::bench;  // NOLINT

namespace {

// Mean final-plan cost over `episodes` rollouts with a uniform-random
// policy in `env` (the random baseline).
double RandomPolicyMeanCost(FullPipelineEnv* env,
                            const std::vector<Query>& workload,
                            int episodes, uint64_t seed) {
  Rng rng(seed);
  double total = 0.0;
  for (int e = 0; e < episodes; ++e) {
    const Query& q = workload[static_cast<size_t>(e) % workload.size()];
    env->SetQuery(&q);
    env->Reset();
    while (!env->Done()) {
      std::vector<bool> mask = env->ActionMask();
      std::vector<int> valid;
      for (int a = 0; a < env->action_dim(); ++a) {
        if (mask[static_cast<size_t>(a)]) valid.push_back(a);
      }
      env->Step(rng.Choice(valid));
    }
    total += env->FinalPlan()->est_cost;
  }
  return total / episodes;
}

// Trains a policy-gradient agent in `env` and returns the mean greedy cost
// over the workload after training.
double TrainAndEvaluate(FullPipelineEnv* env,
                        const std::vector<Query>& workload, int episodes,
                        uint64_t seed, double* train_mean_cost) {
  PolicyGradientConfig pg;
  pg.hidden_dims = {128, 128};
  PolicyGradientAgent agent(env->state_dim(), env->action_dim(), pg, seed);
  std::vector<Episode> pending;
  double cost_sum = 0.0;
  int cost_count = 0;
  for (int e = 0; e < episodes; ++e) {
    const Query& q = workload[static_cast<size_t>(e) % workload.size()];
    env->SetQuery(&q);
    env->Reset();
    Episode episode;
    while (!env->Done()) {
      Transition t;
      t.state = env->StateVector();
      t.mask = env->ActionMask();
      t.action = agent.SampleAction(t.state, t.mask, &t.old_prob);
      const bool done = env->Step(t.action).done;
      t.reward = done ? env->TerminalReward() : 0.0;
      episode.steps.push_back(std::move(t));
    }
    if (e >= episodes * 3 / 4) {  // Tail window: post-training behaviour.
      cost_sum += env->FinalPlan()->est_cost;
      ++cost_count;
    }
    if (!episode.steps.empty()) {
      pending.push_back(std::move(episode));
      if (pending.size() >= 16) {
        agent.Update(pending);
        pending.clear();
      }
    }
  }
  *train_mean_cost = cost_sum / std::max(1, cost_count);

  double greedy_total = 0.0;
  for (const Query& q : workload) {
    env->SetQuery(&q);
    env->Reset();
    while (!env->Done()) {
      std::vector<double> s = env->StateVector();
      std::vector<bool> m = env->ActionMask();
      env->Step(agent.GreedyAction(s, m));
    }
    greedy_total += env->FinalPlan()->est_cost;
  }
  return greedy_total / static_cast<double>(workload.size());
}

}  // namespace

int main() {
  PrintHeader(
      "SEC4-NAIVE  naive full-pipeline DRL vs random choice vs restricted "
      "space",
      "a naive ReJOIN extension to the full plan space did not beat random "
      "choice; the restricted join-order space converges");

  auto engine = MakeEngine();
  WorkloadGenerator generator(&engine->catalog(), 404, QueryShapeOptions(),
                          &engine->db());
  std::vector<Query> workload;
  for (int i = 0; i < 12; ++i) {
    auto q = generator.GenerateQuery(6 + i % 4, "naive" + std::to_string(i));
    HFQ_CHECK(q.ok());
    workload.push_back(std::move(*q));
  }

  RejoinFeaturizer featurizer(10, &engine->estimator());
  NegLogCostReward reward;
  const int kBudget = 1500;

  // (a) Naive: full pipeline + cross products allowed.
  FullEnvConfig naive_config;
  naive_config.allow_cross_products = true;
  FullPipelineEnv naive_env(&featurizer, &engine->expert(), &reward,
                            naive_config);
  double naive_train = 0.0;
  double naive_greedy =
      TrainAndEvaluate(&naive_env, workload, kBudget, 1, &naive_train);
  double naive_random =
      RandomPolicyMeanCost(&naive_env, workload, 300, 2);

  // (b) Restricted: join order only, connected joins only (ReJOIN).
  FullEnvConfig restricted_config;
  restricted_config.stages = PipelineStages::JoinOrderOnly();
  FullPipelineEnv restricted_env(&featurizer, &engine->expert(), &reward,
                                 restricted_config);
  double restricted_train = 0.0;
  double restricted_greedy = TrainAndEvaluate(&restricted_env, workload,
                                              kBudget, 3, &restricted_train);
  double restricted_random =
      RandomPolicyMeanCost(&restricted_env, workload, 300, 4);

  // Expert reference.
  double expert_mean = 0.0;
  for (const Query& q : workload) {
    auto plan = engine->expert().Optimize(q);
    HFQ_CHECK(plan.ok());
    expert_mean += (*plan)->est_cost;
  }
  expert_mean /= static_cast<double>(workload.size());

  std::printf("%-44s %16s %14s\n", "configuration (budget 1500 episodes)",
              "mean plan cost", "vs expert");
  PrintRule(78);
  auto row = [&](const char* label, double cost) {
    std::printf("%-44s %16.0f %13.1fx\n", label, cost, cost / expert_mean);
  };
  row("expert optimizer", expert_mean);
  row("naive full space: random policy", naive_random);
  row("naive full space: trained policy (greedy)", naive_greedy);
  row("naive full space: trained (tail window)", naive_train);
  row("restricted join-order: random policy", restricted_random);
  row("restricted join-order: trained (greedy)", restricted_greedy);
  row("restricted join-order: trained (tail)", restricted_train);
  PrintRule(78);
  std::printf(
      "claim check: at an equal budget the naive full-space agent lands "
      "%.1fx the expert\nwhile the restricted join-order agent reaches "
      "%.1fx — the search-space blowup\ncosts orders of magnitude in "
      "convergence, as Section 4 argues.\n(Deviation note: unlike the "
      "paper's 2018 prototype, our masked PPO-style naive\nagent does "
      "eventually beat uniform-random choice — see EXPERIMENTS.md.)\n",
      naive_greedy / expert_mean, restricted_greedy / expert_mean);
  return 0;
}
