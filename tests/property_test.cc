// Randomized property suites spanning modules:
//  * oracle algebra: cross products factor exactly; subsets nest sanely;
//  * estimator sanity under random queries;
//  * arbitrary (random) join trees execute to the same row count as expert
//    plans — plan-shape invariance of query semantics;
//  * full-pipeline env: every random rollout yields a valid, executable,
//    annotated plan;
//  * model persistence round-trips (agents, predictors, the facade).
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <sstream>

#include "core/full_env.h"
#include "core/hands_free.h"
#include "exec/executor.h"
#include "rl/policy_gradient.h"
#include "rl/reward_predictor.h"
#include "tests/test_common.h"
#include "workload/generator.h"

namespace hfq {
namespace {

class PropertyTest : public ::testing::TestWithParam<int> {
 protected:
  Engine& engine() { return testing::SharedEngine(); }

  Query RandomQuery(int n, uint64_t salt) {
    WorkloadGenerator gen(&engine().catalog(),
                          static_cast<uint64_t>(GetParam()) * 7919 + salt);
    auto q = gen.GenerateQuery(
        n, "prop" + std::to_string(GetParam()) + "_" + std::to_string(salt));
    HFQ_CHECK(q.ok());
    q->aggregates.clear();
    q->group_by.clear();
    return std::move(*q);
  }
};

TEST_P(PropertyTest, OracleCrossProductFactorization) {
  // For two disjoint connected halves A, B with no predicates between
  // them, Rows(A u B) == Rows(A) * Rows(B).
  Query q = RandomQuery(4, 1);
  // Drop predicates between {0,1} and {2,3} to force disconnection, keeping
  // intra-half joins.
  std::vector<JoinPredicate> kept;
  RelSet half_a = RelSetOf(0) | RelSetOf(1);
  for (const auto& j : q.joins) {
    bool left_in_a = RelSetHas(half_a, j.left.rel_idx);
    bool right_in_a = RelSetHas(half_a, j.right.rel_idx);
    if (left_in_a == right_in_a) kept.push_back(j);
  }
  q.joins = kept;
  q.name += "_split";
  double a = engine().oracle().Rows(q, half_a);
  double b = engine().oracle().Rows(q, RelSetOf(2) | RelSetOf(3));
  double ab = engine().oracle().Rows(q, RelSetAll(4));
  EXPECT_DOUBLE_EQ(ab, a * b);
}

TEST_P(PropertyTest, OracleSingletonMatchesSelectedRows) {
  Query q = RandomQuery(3, 2);
  for (int rel = 0; rel < q.num_relations(); ++rel) {
    double rows = engine().oracle().Rows(q, RelSetOf(rel));
    EXPECT_EQ(rows, static_cast<double>(
                        engine().oracle().SelectedRows(q, rel).size()));
    EXPECT_LE(rows, engine().oracle().BaseRows(q, rel));
  }
}

TEST_P(PropertyTest, EstimatorRowsPositiveAndSelectionsShrink) {
  Query q = RandomQuery(4, 3);
  CardinalityEstimator& est = engine().estimator();
  for (int rel = 0; rel < q.num_relations(); ++rel) {
    double filtered = est.ScanRows(q, rel);
    double base = est.BaseRows(q, rel);
    EXPECT_GE(filtered, 1.0);
    EXPECT_LE(filtered, base + 1e-9);
  }
  EXPECT_GE(est.Rows(q, RelSetAll(4)), 1.0);
}

TEST_P(PropertyTest, RandomJoinTreesExecuteIdentically) {
  // Semantics are plan-invariant: a random bushy orientation-scrambled
  // tree must produce exactly as many rows as the expert's plan.
  Query q = RandomQuery(4, 4);
  auto expert = engine().expert().Optimize(q);
  ASSERT_TRUE(expert.ok());
  Executor executor(&engine().db());
  auto expert_result = executor.Execute(q, **expert);
  ASSERT_TRUE(expert_result.ok());

  Rng rng(static_cast<uint64_t>(GetParam()) + 99);
  // Build a random connected join tree via random pair merges.
  std::vector<std::unique_ptr<JoinTreeNode>> forest;
  for (int rel = 0; rel < q.num_relations(); ++rel) {
    forest.push_back(JoinTreeNode::Leaf(rel));
  }
  while (forest.size() > 1) {
    // Pick a random connected pair (fall back to any pair).
    std::vector<std::pair<int, int>> pairs;
    for (size_t i = 0; i < forest.size(); ++i) {
      for (size_t j = 0; j < forest.size(); ++j) {
        if (i != j && !q.JoinPredsBetween(forest[i]->rels,
                                          forest[j]->rels)
                           .empty()) {
          pairs.emplace_back(static_cast<int>(i), static_cast<int>(j));
        }
      }
    }
    if (pairs.empty()) {
      pairs.emplace_back(0, 1);
    }
    auto [x, y] = rng.Choice(pairs);
    auto left = std::move(forest[static_cast<size_t>(x)]);
    auto right = std::move(forest[static_cast<size_t>(y)]);
    forest[static_cast<size_t>(std::min(x, y))] =
        JoinTreeNode::Join(std::move(left), std::move(right));
    forest.erase(forest.begin() + std::max(x, y));
  }
  auto plan = engine().expert().PhysicalizeJoinTree(q, *forest[0]);
  ASSERT_TRUE(plan.ok());
  auto result = executor.Execute(q, **plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->join_rows, expert_result->join_rows);
}

TEST_P(PropertyTest, FullEnvRandomRolloutsYieldExecutablePlans) {
  Query q = RandomQuery(5, 5);
  RejoinFeaturizer featurizer(6, &engine().estimator());
  NegLogCostReward reward;
  FullPipelineEnv env(&featurizer, &engine().expert(), &reward);
  env.SetQuery(&q);
  env.Reset();
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 5);
  while (!env.Done()) {
    std::vector<bool> mask = env.ActionMask();
    std::vector<int> valid;
    for (int a = 0; a < env.action_dim(); ++a) {
      if (mask[static_cast<size_t>(a)]) valid.push_back(a);
    }
    ASSERT_FALSE(valid.empty());
    env.Step(rng.Choice(valid));
  }
  const PlanNode* plan = env.FinalPlan();
  // The plan covers every relation and executes successfully.
  const PlanNode* joins = plan->IsAggregate() ? plan->child(0) : plan;
  EXPECT_EQ(joins->rels, RelSetAll(q.num_relations()));
  Executor executor(&engine().db());
  auto result = executor.Execute(q, *plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString() << "\n"
                           << plan->ToString(q);
  EXPECT_EQ(static_cast<double>(result->join_rows),
            engine().oracle().Rows(q, RelSetAll(q.num_relations())));
}

TEST_P(PropertyTest, DpNeverCostsMoreThanGeqo) {
  // DP is exhaustive over the bushy space; GEQO samples permutations
  // decoded by greedy attachment. Both physicalize with the same BestJoin
  // arithmetic, so DP's plan cost is a lower bound (up to fp noise) for
  // every query, size, and topology.
  OptimizerOptions dp_options = engine().expert().options();
  dp_options.geqo_threshold = kMaxRelations;
  TraditionalOptimizer dp(&engine().catalog(), &engine().cost_model(),
                          dp_options);
  OptimizerOptions geqo_options = engine().expert().options();
  geqo_options.geqo_threshold = 1;
  TraditionalOptimizer geqo(&engine().catalog(), &engine().cost_model(),
                            geqo_options);
  int salt = 0;
  for (JoinTopology topology :
       {JoinTopology::kRandom, JoinTopology::kChain, JoinTopology::kStar,
        JoinTopology::kClique, JoinTopology::kSnowflake,
        JoinTopology::kCyclic, JoinTopology::kDisconnected}) {
    for (int n : {3, 6, 9}) {
      WorkloadGenerator gen(&engine().catalog(),
                            static_cast<uint64_t>(GetParam()) * 104729 +
                                static_cast<uint64_t>(salt));
      auto q = gen.GenerateTopologyQuery(
          topology, n,
          "dpgeqo" + std::to_string(GetParam()) + "_" +
              std::to_string(salt));
      ++salt;
      ASSERT_TRUE(q.ok()) << q.status().ToString();
      auto dp_plan = dp.Optimize(*q);
      auto geqo_plan = geqo.Optimize(*q);
      ASSERT_TRUE(dp_plan.ok() && geqo_plan.ok());
      EXPECT_LE((*dp_plan)->est_cost,
                (*geqo_plan)->est_cost * (1.0 + 1e-9))
          << JoinTopologyName(topology) << " n=" << n << ": " << q->ToSql();
    }
  }
}

TEST_P(PropertyTest, JobSuiteConnectedWithUniqueInRangeNames) {
  // Every generated suite query is fully connected, sized within the
  // requested range, and named q<family><variant letter> with no
  // duplicates — the invariants the eval harness and trainers rely on.
  WorkloadGenerator gen(&engine().catalog(),
                        static_cast<uint64_t>(GetParam()) * 31337 + 7);
  const int families = 4, variants = 3, min_rel = 3, max_rel = 9;
  auto suite = gen.GenerateJobLikeSuite(families, variants, min_rel, max_rel);
  ASSERT_TRUE(suite.ok());
  ASSERT_EQ(suite->size(), static_cast<size_t>(families * variants));
  std::set<std::string> names;
  for (size_t i = 0; i < suite->size(); ++i) {
    const Query& q = (*suite)[i];
    EXPECT_TRUE(q.IsFullyConnected()) << q.ToSql();
    EXPECT_TRUE(q.Validate(engine().catalog()).ok());
    EXPECT_GE(q.num_relations(), min_rel);
    EXPECT_LE(q.num_relations(), max_rel);
    EXPECT_TRUE(names.insert(q.name).second) << "duplicate name " << q.name;
    const int family = 1 + static_cast<int>(i) / variants;
    const char variant = static_cast<char>('a' + static_cast<int>(i) % variants);
    std::string expected = "q";
    expected += std::to_string(family);
    expected += variant;
    EXPECT_EQ(q.name, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PropertyTest, ::testing::Range(0, 8));

// --- persistence round-trips ---

TEST(PersistenceTest, PolicyGradientAgentRoundTrip) {
  PolicyGradientConfig config;
  config.hidden_dims = {16, 8};
  PolicyGradientAgent a(6, 4, config, 11);
  PolicyGradientAgent b(6, 4, config, 22);  // Different weights.
  std::vector<double> state = {0.1, -0.2, 0.3, 0.0, 1.0, -1.0};
  std::vector<bool> mask = {true, true, true, true};
  std::stringstream ss;
  ASSERT_TRUE(a.Save(ss).ok());
  ASSERT_TRUE(b.LoadWeights(ss).ok());
  auto pa = a.ActionProbabilities(state, mask);
  auto pb = b.ActionProbabilities(state, mask);
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_NEAR(pa[i], pb[i], 1e-12);
  }
  EXPECT_NEAR(a.Value(state), b.Value(state), 1e-12);
}

TEST(PersistenceTest, PolicyGradientAgentRejectsWrongShape) {
  PolicyGradientConfig config;
  config.hidden_dims = {16};
  PolicyGradientAgent a(6, 4, config, 11);
  PolicyGradientAgent b(7, 4, config, 22);  // Different state dim.
  std::stringstream ss;
  ASSERT_TRUE(a.Save(ss).ok());
  EXPECT_FALSE(b.LoadWeights(ss).ok());
}

TEST(PersistenceTest, RewardPredictorRoundTrip) {
  RewardPredictorConfig config;
  config.hidden_dims = {12};
  RewardPredictor a(3, 5, config, 1);
  RewardPredictor b(3, 5, config, 2);
  a.AddExample(OutcomeExample{{0.5, 0.5, 0.5}, 2, 3.0});
  a.TrainSteps(20);
  std::stringstream ss;
  ASSERT_TRUE(a.Save(ss).ok());
  ASSERT_TRUE(b.LoadWeights(ss).ok());
  std::vector<double> state = {0.5, 0.5, 0.5};
  auto preds_a = a.PredictAll(state);
  auto preds_b = b.PredictAll(state);
  for (size_t i = 0; i < preds_a.size(); ++i) {
    EXPECT_NEAR(preds_a[i], preds_b[i], 1e-12);
  }
}

TEST(PersistenceTest, HandsFreeModelRoundTrip) {
  Engine& e = testing::SharedEngine();
  WorkloadGenerator gen(&e.catalog(), 808);
  std::vector<Query> workload;
  for (int i = 0; i < 3; ++i) {
    auto q = gen.GenerateQuery(4, "persist" + std::to_string(i));
    ASSERT_TRUE(q.ok());
    workload.push_back(std::move(*q));
  }
  HandsFreeConfig config;
  config.strategy = TrainingStrategy::kLearningFromDemonstration;
  config.max_relations = 6;
  config.training_episodes = 10;
  config.lfd.pretrain_steps = 50;

  const std::string path = ::testing::TempDir() + "/hfq_model.txt";
  {
    HandsFreeOptimizer trained(&e, config);
    // Saving before training fails.
    EXPECT_EQ(trained.SaveModel(path).code(),
              StatusCode::kFailedPrecondition);
    ASSERT_TRUE(trained.Train(workload).ok());
    ASSERT_TRUE(trained.SaveModel(path).ok());

    HandsFreeOptimizer loaded(&e, config);
    ASSERT_TRUE(loaded.LoadModel(path).ok());
    // Both produce identical plans without re-training.
    auto p1 = trained.Optimize(workload[0]);
    auto p2 = loaded.Optimize(workload[0]);
    ASSERT_TRUE(p1.ok() && p2.ok());
    EXPECT_EQ((*p1)->Fingerprint(), (*p2)->Fingerprint());

    // Strategy mismatch is rejected.
    HandsFreeConfig other = config;
    other.strategy = TrainingStrategy::kCostModelBootstrapping;
    HandsFreeOptimizer wrong(&e, other);
    EXPECT_EQ(wrong.LoadModel(path).code(),
              StatusCode::kFailedPrecondition);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hfq
