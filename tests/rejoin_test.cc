// Tests for ReJOIN (paper Section 3): featurization properties, the
// join-order stage's transition/mask semantics, and short-horizon training
// improvement through the shared rollout loop.
#include <gtest/gtest.h>

#include <sstream>

#include "core/full_env.h"
#include "core/reward.h"
#include "rl/rollout.h"
#include "search/plan_search.h"
#include "tests/test_common.h"
#include "workload/generator.h"

namespace hfq {
namespace {

std::vector<int> ValidActions(const FullPipelineEnv& env) {
  std::vector<bool> mask = env.ActionMask();
  std::vector<int> valid;
  for (int a = 0; a < env.action_dim(); ++a) {
    if (mask[static_cast<size_t>(a)]) valid.push_back(a);
  }
  return valid;
}

std::string Weights(PolicyGradientAgent& agent) {
  std::ostringstream out;
  HFQ_CHECK(agent.Save(out).ok());
  return out.str();
}

// The join subtree under an optional aggregate root.
const PlanNode* JoinRoot(const PlanNode* plan) {
  return plan->IsAggregate() ? plan->child(0) : plan;
}

class RejoinTest : public ::testing::Test {
 protected:
  RejoinTest() : rejoin_(kN) {}

  Query MakeQuery(int n, uint64_t seed, const std::string& name) {
    WorkloadGenerator gen(&testing::SharedEngine().catalog(), seed);
    auto q = gen.GenerateQuery(n, name);
    HFQ_CHECK(q.ok());
    return std::move(*q);
  }

  // Greedy episode under the agent's current policy; returns its reward.
  double GreedyReward(PolicyGradientAgent& agent, const Query& q) {
    env_.SetQuery(&q);
    env_.Reset();
    while (!env_.Done()) {
      env_.Step(agent.GreedyAction(env_.StateVector(), env_.ActionMask()));
    }
    return env_.TerminalReward();
  }

  static constexpr int kN = 8;
  testing::RejoinEnv rejoin_;
  RejoinFeaturizer& featurizer_ = rejoin_.featurizer;
  FullPipelineEnv& env_ = rejoin_.env;
};

TEST_F(RejoinTest, FeatureDimAndStaticBlocks) {
  EXPECT_EQ(featurizer_.FeatureDim(), 2 * kN * kN + 3 * kN);
  Query q = MakeQuery(4, 1, "feat1");
  env_.SetQuery(&q);
  env_.Reset();
  std::vector<double> f = env_.StateVector();
  // The featurizer's block, then the stage one-hot (join order) and the
  // decision-target block, empty while joins are decided.
  ASSERT_EQ(static_cast<int>(f.size()), featurizer_.FeatureDim() + 4 + 2 * kN);
  const size_t tail = static_cast<size_t>(featurizer_.FeatureDim());
  EXPECT_EQ(f[tail], 1.0);
  for (size_t i = tail + 1; i < f.size(); ++i) EXPECT_EQ(f[i], 0.0);
  // Initial state: each leaf subtree s contains only relation s at depth 0
  // -> tree block is the identity scaled by 1.
  for (int s = 0; s < 4; ++s) {
    for (int r = 0; r < kN; ++r) {
      double expected = (s == r) ? 1.0 : 0.0;
      EXPECT_DOUBLE_EQ(f[static_cast<size_t>(s * kN + r)], expected);
    }
  }
  // Adjacency block symmetric, matches join count * 2.
  double adj_sum = 0.0;
  for (int i = 0; i < kN * kN; ++i) {
    adj_sum += f[static_cast<size_t>(kN * kN + i)];
  }
  EXPECT_DOUBLE_EQ(adj_sum, 2.0 * static_cast<double>(q.joins.size()));
}

TEST_F(RejoinTest, DepthWeightedTreeEncoding) {
  Query q = MakeQuery(4, 2, "feat2");
  env_.SetQuery(&q);
  env_.Reset();
  std::vector<int> valid = ValidActions(env_);
  ASSERT_FALSE(valid.empty());
  const int action = valid.front();
  env_.Step(action);
  std::vector<double> f = env_.StateVector();
  // Action x * N + y: the merged tree sits at slot min(x, y); both
  // relations are at depth 1 -> encoded as 1/2.
  int slot = std::min(action / kN, action % kN);
  int count_half = 0;
  for (int r = 0; r < kN; ++r) {
    if (f[static_cast<size_t>(slot * kN + r)] == 0.5) ++count_half;
  }
  EXPECT_EQ(count_half, 2);
}

TEST_F(RejoinTest, MaskAllowsOnlyConnectedPairs) {
  Query q = MakeQuery(5, 3, "mask1");
  env_.SetQuery(&q);
  env_.Reset();
  // Before the first join, slot x holds relation x.
  for (int a : ValidActions(env_)) {
    const int x = a / kN;
    const int y = a % kN;
    ASSERT_LT(x, 5);
    ASSERT_LT(y, 5);
    EXPECT_NE(x, y);
    EXPECT_FALSE(q.JoinPredsBetween(RelSetOf(x), RelSetOf(y)).empty())
        << "masked-in action joins disconnected subtrees";
  }
}

TEST_F(RejoinTest, CrossProductsAllowedWhenConfigured) {
  testing::RejoinEnv wide(kN, /*allow_cross_products=*/true);
  Query q = MakeQuery(4, 4, "mask2");
  wide.env.SetQuery(&q);
  wide.env.Reset();
  // Every ordered pair of the 4 subtrees: 4*3 = 12.
  EXPECT_EQ(ValidActions(wide.env).size(), 12u);
}

TEST_F(RejoinTest, EpisodeBuildsCompleteTree) {
  Query q = MakeQuery(6, 5, "ep1");
  env_.SetQuery(&q);
  env_.Reset();
  Rng rng(1);
  int steps = 0;
  while (!env_.Done()) {
    std::vector<int> valid = ValidActions(env_);
    ASSERT_FALSE(valid.empty());
    env_.Step(rng.Choice(valid));
    ++steps;
  }
  EXPECT_EQ(steps, 5);  // n-1 joins.
  EXPECT_GT(env_.TerminalReward(), 0.0);
  const PlanNode* joins = JoinRoot(env_.FinalPlan());
  EXPECT_EQ(joins->rels, RelSetAll(6));
  std::vector<const PlanNode*> nodes;
  joins->CollectNodes(&nodes);
  int num_joins = 0;
  for (const PlanNode* node : nodes) {
    if (node->IsJoin()) ++num_joins;
  }
  EXPECT_EQ(num_joins, 5);
}

TEST_F(RejoinTest, TrainerImprovesOverRandomBaseline) {
  // Short ReJOIN training on two fixed queries must beat the mean random-
  // policy reward on those queries (sanity check of the learning loop; the
  // full convergence claim lives in the Fig 3a bench).
  std::vector<Query> workload;
  workload.push_back(MakeQuery(5, 6, "train_a"));
  workload.push_back(MakeQuery(6, 7, "train_b"));

  // Random baseline.
  Rng rng(3);
  double random_total = 0.0;
  int random_episodes = 0;
  for (int e = 0; e < 40; ++e) {
    const Query& q = workload[static_cast<size_t>(e) % workload.size()];
    env_.SetQuery(&q);
    env_.Reset();
    while (!env_.Done()) env_.Step(rng.Choice(ValidActions(env_)));
    random_total += env_.TerminalReward();
    ++random_episodes;
  }
  double random_mean = random_total / random_episodes;

  PolicyGradientConfig pg;
  pg.hidden_dims = {32, 32};
  pg.policy_lr = 2e-3;
  PolicyGradientAgent agent(env_.state_dim(), env_.action_dim(), pg, 17);
  testing::TrainSerially(&agent, &env_, workload, 400);

  double trained_total = 0.0;
  for (const Query& q : workload) trained_total += GreedyReward(agent, q);
  double trained_mean = trained_total / static_cast<double>(workload.size());
  EXPECT_GT(trained_mean, random_mean);
}

TEST_F(RejoinTest, TrainFlushesTrailingEpisodes) {
  // Episodes short of episodes_per_update must not stay buffered past the
  // end of Train: they would leak (with stale old_prob values) into a
  // later run's update. Every run flushes its remainder.
  Query q = MakeQuery(4, 10, "flush1");
  PolicyGradientConfig pg;
  pg.hidden_dims = {16};
  PolicyGradientAgent agent(env_.state_dim(), env_.action_dim(), pg, 21);
  RolloutLoop<FullPipelineEnv> loop(&agent, &env_, /*episodes_per_update=*/8,
                                    /*num_workers=*/1, /*seed=*/21);
  auto no_stats = [](int, FullPipelineEnv*, const Episode&) { return 0; };

  const std::string initial = Weights(agent);
  loop.Train(std::vector<Query>{q}, 3, no_stats, [](int, int) {});
  // 3 < 8: the only update the run can make is the trailing flush.
  const std::string after_short_run = Weights(agent);
  EXPECT_NE(after_short_run, initial);

  // 8 trigger an update, 3 trail; the report of episode 7 fires after the
  // batch update, so the trailing 3 must move the weights again.
  std::string after_batch;
  loop.Train(std::vector<Query>{q}, 11, no_stats, [&](int e, int) {
    if (e == 7) after_batch = Weights(agent);
  });
  EXPECT_NE(after_batch, after_short_run);
  EXPECT_NE(Weights(agent), after_batch);
}

TEST_F(RejoinTest, PlanIsDeterministicAndTimed) {
  Query q = MakeQuery(6, 8, "plan1");
  PolicyGradientConfig pg;
  pg.hidden_dims = {16};
  PolicyGradientAgent agent(env_.state_dim(), env_.action_dim(), pg, 19);
  testing::TrainSerially(&agent, &env_, {q}, 40);
  AgentPolicy policy(&agent);
  MlpWorkspace ws;
  std::unique_ptr<PlanSearch> greedy = MakePlanSearch(SearchConfig());
  auto plan = [&](double* ms) {
    env_.SetQuery(&q);
    auto result = greedy->Search(&env_, SearchContext{&policy, nullptr, &ws});
    HFQ_CHECK(result.ok());
    *ms = result->planning_ms;
    return env_.FinalPlan()->ToString(q);
  };
  double ms1 = -1.0, ms2 = -1.0;
  const std::string p1 = plan(&ms1);
  EXPECT_EQ(plan(&ms2), p1);
  EXPECT_GE(ms1, 0.0);
  EXPECT_GE(ms2, 0.0);
  EXPECT_EQ(JoinRoot(env_.FinalPlan())->rels, RelSetAll(6));
}

TEST_F(RejoinTest, SingleRelationEpisodeIsTrivial) {
  Query q = MakeQuery(1, 9, "single");
  env_.SetQuery(&q);
  env_.Reset();
  EXPECT_TRUE(env_.Done());
  EXPECT_EQ(JoinRoot(env_.FinalPlan())->rels, RelSetOf(0));

  // Training on it decides nothing, scores nothing and updates nothing,
  // but every episode is still reported.
  testing::CountingReward counting(&rejoin_.reward);
  env_.set_reward(&counting);
  PolicyGradientConfig pg;
  pg.hidden_dims = {16};
  PolicyGradientAgent agent(env_.state_dim(), env_.action_dim(), pg, 23);
  RolloutLoop<FullPipelineEnv> loop(&agent, &env_, /*episodes_per_update=*/2,
                                    /*num_workers=*/1, /*seed=*/23);
  const std::string initial = Weights(agent);
  int reported = 0;
  loop.Train(
      std::vector<Query>{q}, 3,
      [](int, FullPipelineEnv*, const Episode& episode) {
        return static_cast<int>(episode.steps.size());
      },
      [&reported](int, int steps) {
        EXPECT_EQ(steps, 0);
        ++reported;
      });
  EXPECT_EQ(reported, 3);
  EXPECT_EQ(counting.calls(), 0);
  EXPECT_EQ(Weights(agent), initial);
  env_.set_reward(&rejoin_.reward);
}

// A pooled env that copies a warm env of another binding takes the warm
// featurization cache along; what it featurizes from that cache is
// bit-identical to what an env replaying the same actions on a cold cache
// featurizes.
TEST_F(RejoinTest, PooledCopyOfWarmEnvFeaturizesIdentically) {
  Query q = MakeQuery(6, 13, "warm_copy");
  env_.SetQuery(&q);
  env_.Reset();
  Rng rng(5);
  std::vector<int> actions;
  while (!env_.Done()) {
    env_.StateVector();  // Warms env_'s cache with this state's blocks.
    testing::RejoinEnv pooled(kN);
    ASSERT_TRUE(pooled.env.TryCopySearchStateFrom(env_));
    testing::RejoinEnv cold(kN);
    cold.env.SetQuery(&q);
    cold.env.Reset();
    for (int a : actions) cold.env.Step(a);
    EXPECT_EQ(pooled.env.StateVector(), cold.env.StateVector());
    actions.push_back(rng.Choice(ValidActions(env_)));
    env_.Step(actions.back());
  }
}

}  // namespace
}  // namespace hfq
