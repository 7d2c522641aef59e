// Tests for src/rejoin: featurization properties, the join-order MDP's
// transition/mask semantics, and short-horizon training improvement.
#include <gtest/gtest.h>

#include <set>

#include "core/reward.h"
#include "rejoin/join_env.h"
#include "rejoin/rejoin.h"
#include "tests/test_common.h"
#include "workload/generator.h"

namespace hfq {
namespace {

class RejoinTest : public ::testing::Test {
 protected:
  RejoinTest()
      : featurizer_(kN, &testing::SharedEngine().estimator()),
        reward_fn_([this](const Query& q, const JoinTreeNode& tree) {
          auto plan =
              testing::SharedEngine().expert().PhysicalizeJoinTree(q, tree);
          HFQ_CHECK(plan.ok());
          return 1e5 / std::max(1.0, (*plan)->est_cost);
        }),
        env_(&featurizer_, reward_fn_) {}

  Query MakeQuery(int n, uint64_t seed, const std::string& name) {
    WorkloadGenerator gen(&testing::SharedEngine().catalog(), seed);
    auto q = gen.GenerateQuery(n, name);
    HFQ_CHECK(q.ok());
    return std::move(*q);
  }

  static constexpr int kN = 8;
  RejoinFeaturizer featurizer_;
  JoinRewardFn reward_fn_;
  JoinOrderEnv env_;
};

TEST_F(RejoinTest, FeatureDimAndStaticBlocks) {
  EXPECT_EQ(featurizer_.FeatureDim(), 2 * kN * kN + 3 * kN);
  Query q = MakeQuery(4, 1, "feat1");
  env_.SetQuery(&q);
  env_.Reset();
  std::vector<double> f = env_.StateVector();
  ASSERT_EQ(static_cast<int>(f.size()), featurizer_.FeatureDim());
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
  // Join subtrees 0 and 1 (if valid, else first valid pair).
  std::vector<bool> mask = env_.ActionMask();
  int action = -1;
  for (int a = 0; a < env_.action_dim(); ++a) {
    if (mask[static_cast<size_t>(a)]) {
      action = a;
      break;
    }
  }
  ASSERT_GE(action, 0);
  auto [x, y] = env_.DecodeAction(action);
  env_.Step(action);
  std::vector<double> f = env_.StateVector();
  // The merged tree sits at slot min(x, y); both relations are at depth 1
  // -> encoded as 1/2.
  int slot = std::min(x, y);
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
  std::vector<bool> mask = env_.ActionMask();
  auto subtrees = env_.Subtrees();
  for (int a = 0; a < env_.action_dim(); ++a) {
    if (!mask[static_cast<size_t>(a)]) continue;
    auto [x, y] = env_.DecodeAction(a);
    ASSERT_LT(static_cast<size_t>(x), subtrees.size());
    ASSERT_LT(static_cast<size_t>(y), subtrees.size());
    EXPECT_NE(x, y);
    EXPECT_FALSE(q.JoinPredsBetween(subtrees[static_cast<size_t>(x)]->rels,
                                    subtrees[static_cast<size_t>(y)]->rels)
                     .empty())
        << "masked-in action joins disconnected subtrees";
  }
}

TEST_F(RejoinTest, CrossProductsAllowedWhenConfigured) {
  JoinEnvConfig config;
  config.allow_cross_products = true;
  JoinOrderEnv env(&featurizer_, reward_fn_, config);
  Query q = MakeQuery(4, 4, "mask2");
  env.SetQuery(&q);
  env.Reset();
  std::vector<bool> mask = env.ActionMask();
  int valid = 0;
  for (int a = 0; a < env.action_dim(); ++a) {
    if (mask[static_cast<size_t>(a)]) ++valid;
  }
  // Every ordered pair of the 4 subtrees: 4*3 = 12.
  EXPECT_EQ(valid, 12);
}

TEST_F(RejoinTest, EpisodeBuildsCompleteTree) {
  Query q = MakeQuery(6, 5, "ep1");
  env_.SetQuery(&q);
  env_.Reset();
  Rng rng(1);
  int steps = 0;
  double final_reward = 0.0;
  while (!env_.Done()) {
    std::vector<bool> mask = env_.ActionMask();
    std::vector<int> valid;
    for (int a = 0; a < env_.action_dim(); ++a) {
      if (mask[static_cast<size_t>(a)]) valid.push_back(a);
    }
    ASSERT_FALSE(valid.empty());
    env_.Step(rng.Choice(valid));
    ++steps;
  }
  final_reward = env_.TerminalReward();
  EXPECT_EQ(steps, 5);  // n-1 joins.
  EXPECT_GT(final_reward, 0.0);
  const JoinTreeNode* tree = env_.FinalTree();
  EXPECT_EQ(tree->rels, RelSetAll(6));
  EXPECT_EQ(tree->NumJoins(), 5);
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
    while (!env_.Done()) {
      std::vector<bool> mask = env_.ActionMask();
      std::vector<int> valid;
      for (int a = 0; a < env_.action_dim(); ++a) {
        if (mask[static_cast<size_t>(a)]) valid.push_back(a);
      }
      env_.Step(rng.Choice(valid));
    }
    random_total += env_.TerminalReward();
    ++random_episodes;
  }
  double random_mean = random_total / random_episodes;

  RejoinConfig config;
  config.pg.hidden_dims = {32, 32};
  config.pg.policy_lr = 2e-3;
  RejoinTrainer trainer(&env_, config, 17);
  trainer.Train(workload, 400);

  double trained_total = 0.0;
  for (const Query& q : workload) {
    RejoinEpisodeStats stats = trainer.RunEpisode(q, /*train=*/false);
    trained_total += stats.reward;
  }
  double trained_mean = trained_total / static_cast<double>(workload.size());
  EXPECT_GT(trained_mean, random_mean);
}

TEST_F(RejoinTest, TrainFlushesTrailingEpisodes) {
  // Episodes short of episodes_per_update used to be left in the pending
  // buffer at the end of Train, leaking (with stale old_prob values) into a
  // later Train/RunEpisode update. Train must flush the remainder.
  Query q = MakeQuery(4, 10, "flush1");
  RejoinConfig config;
  config.pg.hidden_dims = {16};
  config.episodes_per_update = 8;
  RejoinTrainer trainer(&env_, config, 21);
  trainer.Train({q}, 3);  // 3 < 8: a trailing partial batch.
  EXPECT_EQ(trainer.pending_episodes(), 0u);
  trainer.Train({q}, 11);  // 8 trigger an update, 3 trail again.
  EXPECT_EQ(trainer.pending_episodes(), 0u);

  // Callers driving RunEpisode directly buffer episodes and can flush
  // explicitly; a second flush is a no-op.
  trainer.RunEpisode(q, /*train=*/true);
  EXPECT_EQ(trainer.pending_episodes(), 1u);
  trainer.FlushPendingEpisodes();
  EXPECT_EQ(trainer.pending_episodes(), 0u);
  trainer.FlushPendingEpisodes();
  EXPECT_EQ(trainer.pending_episodes(), 0u);
  // Evaluation episodes never enter the pending buffer.
  trainer.RunEpisode(q, /*train=*/false);
  EXPECT_EQ(trainer.pending_episodes(), 0u);
}

// RunEpisode (training and evaluation alike) pulls the terminal reward
// exactly once per episode; a second pull and copies of the finished env
// reuse the cached score.
TEST_F(RejoinTest, EpisodesPullTheRewardOnce) {
  int calls = 0;
  JoinOrderEnv env(&featurizer_,
                   [this, &calls](const Query& q, const JoinTreeNode& tree) {
                     ++calls;
                     return reward_fn_(q, tree);
                   });
  RejoinConfig config;
  config.pg.hidden_dims = {16};
  RejoinTrainer trainer(&env, config, 23);
  Query q = MakeQuery(5, 11, "pull1");
  for (int e = 0; e < 4; ++e) {
    RejoinEpisodeStats stats = trainer.RunEpisode(q, /*train=*/e % 2 == 0);
    EXPECT_EQ(calls, e + 1);
    EXPECT_EQ(stats.reward, env.TerminalReward());
  }
  EXPECT_EQ(calls, 4);

  const double cost = env.FinalCost();
  std::unique_ptr<SearchEnv> clone = env.CloneSearch();
  JoinOrderEnv pooled(&featurizer_, reward_fn_);
  ASSERT_TRUE(pooled.TryCopySearchStateFrom(env));
  EXPECT_EQ(clone->FinalCost(), cost);
  EXPECT_EQ(pooled.FinalCost(), cost);
  EXPECT_EQ(calls, 4);

  // A single-relation episode is trivial: it scores 0 without a call.
  Query single = MakeQuery(1, 12, "pull_single");
  trainer.RunEpisode(single, /*train=*/true);
  EXPECT_EQ(env.TerminalReward(), 0.0);
  EXPECT_EQ(calls, 4);
}

TEST_F(RejoinTest, PlanIsDeterministicAndTimed) {
  Query q = MakeQuery(6, 8, "plan1");
  RejoinConfig config;
  config.pg.hidden_dims = {16};
  RejoinTrainer trainer(&env_, config, 19);
  trainer.Train({q}, 40);
  double ms1 = -1.0, ms2 = -1.0;
  auto t1 = trainer.Plan(q, &ms1);
  auto t2 = trainer.Plan(q, &ms2);
  EXPECT_EQ(t1->ToString(q), t2->ToString(q));
  EXPECT_GE(ms1, 0.0);
  EXPECT_GE(ms2, 0.0);
  EXPECT_EQ(t1->rels, RelSetAll(6));
}

TEST_F(RejoinTest, SingleRelationEpisodeIsTrivial) {
  Query q = MakeQuery(1, 9, "single");
  env_.SetQuery(&q);
  env_.Reset();
  EXPECT_TRUE(env_.Done());
  EXPECT_EQ(env_.FinalTree()->rels, RelSetOf(0));
}

TEST_F(RejoinTest, ReassignedQueryVariableIsRefeaturized) {
  // One Query variable, one name, two structures. Neither the env bound to
  // it nor a pooled env that copied its state may serve the first
  // structure's cached feature blocks for the second.
  Query q = MakeQuery(4, 11, "reused_feat");
  env_.SetQuery(&q);
  env_.Reset();
  JoinOrderEnv pooled(&featurizer_, reward_fn_);
  ASSERT_TRUE(pooled.TryCopySearchStateFrom(env_));
  const std::vector<double> first = env_.StateVector();
  EXPECT_EQ(pooled.StateVector(), first);

  q = MakeQuery(4, 12, "reused_feat");
  env_.SetQuery(&q);
  env_.Reset();
  ASSERT_TRUE(pooled.TryCopySearchStateFrom(env_));
  JoinOrderEnv fresh(&featurizer_, reward_fn_);
  fresh.SetQuery(&q);
  fresh.Reset();
  const std::vector<double> expected = fresh.StateVector();
  ASSERT_NE(expected, first);
  EXPECT_EQ(env_.StateVector(), expected);
  EXPECT_EQ(pooled.StateVector(), expected);
}

// A pooled env that copies a warm env of another binding takes the warm
// featurization cache along; what it featurizes from that cache is
// bit-identical to an uncached featurization.
TEST_F(RejoinTest, PooledCopyOfWarmEnvFeaturizesIdentically) {
  Query q = MakeQuery(6, 13, "warm_copy");
  env_.SetQuery(&q);
  env_.Reset();
  Rng rng(5);
  while (!env_.Done()) {
    env_.StateVector();  // Warms env_'s cache with this state's blocks.
    JoinOrderEnv pooled(&featurizer_, reward_fn_);
    ASSERT_TRUE(pooled.TryCopySearchStateFrom(env_));
    EXPECT_EQ(pooled.StateVector(),
              featurizer_.Featurize(q, pooled.Subtrees()));
    std::vector<bool> mask = env_.ActionMask();
    std::vector<int> valid;
    for (int a = 0; a < env_.action_dim(); ++a) {
      if (mask[static_cast<size_t>(a)]) valid.push_back(a);
    }
    env_.Step(rng.Choice(valid));
  }
}

}  // namespace
}  // namespace hfq
