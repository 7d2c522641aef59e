// Tests for the search-as-teacher refinement loop (src/rl/teacher_loop,
// RejoinTrainer::RefineWithTeacher, HandsFreeOptimizer::RefineWithTeacher):
// the per-iteration greedy mean cost is non-increasing by construction, a
// frozen student re-discovers nothing (pool dedup), the loop is
// deterministic across identical trainers, the experience pool checkpoint
// round-trips and resumes, and the facade wires every strategy backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/hands_free.h"
#include "core/reward.h"
#include "rejoin/join_env.h"
#include "rejoin/rejoin.h"
#include "rl/experience_pool.h"
#include "rl/teacher_loop.h"
#include "search/plan_search.h"
#include "tests/test_common.h"
#include "workload/generator.h"

namespace hfq {
namespace {

class TeacherLoopTest : public ::testing::Test {
 protected:
  TeacherLoopTest()
      : featurizer_(kN, &testing::SharedEngine().estimator()),
        reward_fn_([](const Query& q, const JoinTreeNode& tree) {
          auto plan =
              testing::SharedEngine().expert().PhysicalizeJoinTree(q, tree);
          HFQ_CHECK(plan.ok());
          return 1e5 / std::max(1.0, (*plan)->est_cost);
        }),
        env_(&featurizer_, reward_fn_),
        trainer_(&env_, RejoinConfig(), /*seed=*/20260730) {
    WorkloadGenerator gen(&testing::SharedEngine().catalog(), 99);
    for (int i = 0; i < 4; ++i) {
      auto q = gen.GenerateQuery(4 + i % 3, "teach_q" + std::to_string(i));
      HFQ_CHECK(q.ok());
      queries_.push_back(std::move(*q));
    }
    // Deliberately short training: the teacher needs a gap to close.
    trainer_.Train(queries_, 48);
  }

  static SearchConfig Beam4() {
    SearchConfig config;
    config.mode = SearchMode::kBeam;
    config.beam_width = 4;
    return config;
  }

  static constexpr int kN = 8;
  RejoinFeaturizer featurizer_;
  JoinRewardFn reward_fn_;
  JoinOrderEnv env_;
  RejoinTrainer trainer_;
  std::vector<Query> queries_;
};

TEST_F(TeacherLoopTest, GreedyMeanCostMonotoneNonIncreasing) {
  TeacherConfig teacher;
  teacher.iterations = 4;
  ExperiencePool pool;
  auto stats = trainer_.RefineWithTeacher(queries_, teacher, Beam4(), &pool);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->size(), 4u);
  for (size_t i = 0; i < stats->size(); ++i) {
    const TeacherIterationStats& row = (*stats)[i];
    EXPECT_EQ(row.iteration, static_cast<int>(i));
    // FinalCost here is the negated episode reward, so values are
    // negative; only finiteness and ordering are meaningful.
    EXPECT_TRUE(std::isfinite(row.teacher_mean_cost));
    EXPECT_TRUE(std::isfinite(row.greedy_mean_cost));
    // Every query has a best-known plan from iteration 0 on.
    EXPECT_EQ(row.demos, static_cast<int>(queries_.size()));
    if (i > 0) {
      EXPECT_LE(row.greedy_mean_cost, (*stats)[i - 1].greedy_mean_cost)
          << "iteration " << i;
    }
  }
  // The first iteration searched an empty pool: its winners are all new.
  EXPECT_GE((*stats)[0].new_plans, 1);
  EXPECT_GE(pool.size(), static_cast<size_t>((*stats)[0].new_plans));
}

TEST_F(TeacherLoopTest, FrozenStudentRediscoversNothing) {
  // learn_passes = 0 freezes the student: the second iteration's searches
  // replay the first's exactly, so pool dedup must reject every plan and
  // the greedy metric cannot move.
  TeacherConfig teacher;
  teacher.iterations = 2;
  teacher.learn_passes = 0;
  ExperiencePool pool;
  auto stats = trainer_.RefineWithTeacher(queries_, teacher, Beam4(), &pool);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->size(), 2u);
  EXPECT_GE((*stats)[0].new_plans, 1);
  EXPECT_EQ((*stats)[1].new_plans, 0);
  EXPECT_EQ((*stats)[0].greedy_mean_cost, (*stats)[1].greedy_mean_cost);
  EXPECT_FALSE((*stats)[0].rolled_back);
  EXPECT_FALSE((*stats)[1].rolled_back);

  // A later refinement against the same (still frozen) policy and pool
  // starts from full knowledge: nothing new in any iteration.
  auto again = trainer_.RefineWithTeacher(queries_, teacher, Beam4(), &pool);
  ASSERT_TRUE(again.ok());
  for (const TeacherIterationStats& row : *again) {
    EXPECT_EQ(row.new_plans, 0);
    EXPECT_EQ(row.greedy_mean_cost, (*stats)[0].greedy_mean_cost);
  }
}

TEST_F(TeacherLoopTest, DeterministicAcrossIdenticalTrainers) {
  // Two trainers built and refined identically must agree bit-for-bit:
  // same per-iteration stats, same final weights. (The loop is serial and
  // never consumes the trainer's sampling streams.)
  auto run = [this](std::string* weights_out) {
    JoinOrderEnv env(&featurizer_, reward_fn_);
    RejoinTrainer trainer(&env, RejoinConfig(), /*seed=*/20260730);
    trainer.Train(queries_, 48);
    TeacherConfig teacher;
    teacher.iterations = 3;
    auto stats = trainer.RefineWithTeacher(queries_, teacher, Beam4());
    HFQ_CHECK(stats.ok());
    std::ostringstream weights;
    HFQ_CHECK(trainer.agent().Save(weights).ok());
    *weights_out = weights.str();
    return *stats;
  };
  std::string weights_a, weights_b;
  std::vector<TeacherIterationStats> a = run(&weights_a);
  std::vector<TeacherIterationStats> b = run(&weights_b);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].teacher_mean_cost, b[i].teacher_mean_cost) << i;
    EXPECT_EQ(a[i].greedy_mean_cost, b[i].greedy_mean_cost) << i;
    EXPECT_EQ(a[i].new_plans, b[i].new_plans) << i;
    EXPECT_EQ(a[i].demos, b[i].demos) << i;
    EXPECT_EQ(a[i].student_loss, b[i].student_loss) << i;
    EXPECT_EQ(a[i].rolled_back, b[i].rolled_back) << i;
  }
  EXPECT_EQ(weights_a, weights_b);
}

TEST_F(TeacherLoopTest, PoolCheckpointRoundTripsAndResumes) {
  TeacherConfig teacher;
  teacher.iterations = 1;
  teacher.learn_passes = 0;  // Frozen policy: discoveries are reproducible.
  ExperiencePool pool;
  auto stats = trainer_.RefineWithTeacher(queries_, teacher, Beam4(), &pool);
  ASSERT_TRUE(stats.ok());
  ASSERT_GE(pool.size(), 1u);

  std::ostringstream saved;
  ASSERT_TRUE(pool.Save(saved).ok());
  std::istringstream in(saved.str());
  auto loaded = ExperiencePool::Load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::ostringstream resaved;
  ASSERT_TRUE(loaded->Save(resaved).ok());
  EXPECT_EQ(saved.str(), resaved.str());

  // Resuming against the restored checkpoint: the frozen policy's searches
  // only rediscover plans the pool already holds.
  auto resumed =
      trainer_.RefineWithTeacher(queries_, teacher, Beam4(), &*loaded);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ((*resumed)[0].new_plans, 0);
  EXPECT_EQ(loaded->size(), pool.size());
}

// ---- Facade wiring -------------------------------------------------------

// A facade configuration small enough that training a strategy takes well
// under a second on the shared 0.05-scale engine (mirrors hands_free_test).
HandsFreeConfig TinyConfig(TrainingStrategy strategy) {
  HandsFreeConfig config;
  config.strategy = strategy;
  config.max_relations = 5;
  config.training_episodes = 8;
  config.seed = 17;
  config.lfd.pretrain_steps = 40;
  config.lfd.finetune_steps_per_episode = 1;
  config.lfd.predictor.hidden_dims = {32};
  config.bootstrap.pg.hidden_dims = {32};
  config.bootstrap.episodes_per_update = 4;
  config.incremental_pg.hidden_dims = {32};
  return config;
}

// Query names embed the seed so failures name their query.
std::vector<Query> TinyWorkload(int count, int num_relations, uint64_t seed) {
  WorkloadGenerator gen(&testing::SharedEngine().catalog(), seed);
  std::vector<Query> workload;
  for (int i = 0; i < count; ++i) {
    auto q = gen.GenerateQuery(num_relations, "teach_s" + std::to_string(seed) +
                                                  "_q" + std::to_string(i));
    HFQ_CHECK(q.ok());
    workload.push_back(std::move(*q));
  }
  return workload;
}

TEST(TeacherFacadeTest, RefineRequiresTrainedModel) {
  HandsFreeOptimizer optimizer(&testing::SharedEngine(),
                               TinyConfig(TrainingStrategy::
                                              kCostModelBootstrapping));
  TeacherConfig teacher;
  teacher.iterations = 1;
  Status status = optimizer.RefineWithTeacher(TinyWorkload(2, 3, 500),
                                              teacher);
  EXPECT_FALSE(status.ok());
}

TEST(TeacherFacadeTest, RefineAppendsStatsAndKeepsGreedyNonWorse) {
  HandsFreeOptimizer optimizer(&testing::SharedEngine(),
                               TinyConfig(TrainingStrategy::
                                              kCostModelBootstrapping));
  std::vector<Query> workload = TinyWorkload(4, 4, 501);
  ASSERT_TRUE(optimizer.Train(workload).ok());
  EXPECT_TRUE(optimizer.teacher_stats().empty());

  TeacherConfig teacher;
  teacher.iterations = 2;
  ASSERT_TRUE(optimizer.RefineWithTeacher(workload, teacher).ok());
  ASSERT_EQ(optimizer.teacher_stats().size(), 2u);
  EXPECT_LE(optimizer.teacher_stats()[1].greedy_mean_cost,
            optimizer.teacher_stats()[0].greedy_mean_cost);
  ASSERT_NE(optimizer.teacher_pool(), nullptr);
  EXPECT_GE(optimizer.teacher_pool()->size(), 1u);

  // Stats append and the pool persists across calls.
  ASSERT_TRUE(optimizer.RefineWithTeacher(workload, teacher).ok());
  ASSERT_EQ(optimizer.teacher_stats().size(), 4u);
  EXPECT_LE(optimizer.teacher_stats()[3].greedy_mean_cost,
            optimizer.teacher_stats()[1].greedy_mean_cost + 1e-12);

  // Refinement never breaks planning.
  for (const Query& q : workload) {
    EXPECT_TRUE(optimizer.Optimize(q).ok());
  }
}

// The teacher loop's searches and greedy re-evaluations only plan; its
// demonstration replay is the one place it learns from a reward, and it
// pulls that reward exactly once per demonstrated episode.
TEST(TeacherFacadeTest, DemoReplayPullsTheRewardOncePerDemo) {
  HandsFreeOptimizer optimizer(&testing::SharedEngine(),
                               TinyConfig(TrainingStrategy::
                                              kCostModelBootstrapping));
  std::vector<Query> workload = TinyWorkload(3, 4, 504);
  ASSERT_TRUE(optimizer.Train(workload).ok());
  testing::CountingReward counting(optimizer.env().reward());
  optimizer.env().set_reward(&counting);

  TeacherConfig teacher;
  teacher.iterations = 2;
  ASSERT_TRUE(optimizer.RefineWithTeacher(workload, teacher).ok());
  ASSERT_EQ(optimizer.teacher_stats().size(), 2u);
  int demos = 0;
  for (const TeacherIterationStats& row : optimizer.teacher_stats()) {
    demos += row.demos;
  }
  EXPECT_EQ(demos, 2 * static_cast<int>(workload.size()));
  EXPECT_EQ(counting.calls(), demos);
}

TEST(TeacherFacadeTest, TrainRunsTeacherWhenConfigured) {
  HandsFreeConfig config =
      TinyConfig(TrainingStrategy::kCostModelBootstrapping);
  config.teacher.iterations = 2;
  HandsFreeOptimizer optimizer(&testing::SharedEngine(), config);
  ASSERT_TRUE(optimizer.Train(TinyWorkload(4, 4, 502)).ok());
  EXPECT_EQ(optimizer.teacher_stats().size(), 2u);
}

TEST(TeacherFacadeTest, PredictorStudentRefinesLfdStrategy) {
  HandsFreeOptimizer optimizer(
      &testing::SharedEngine(),
      TinyConfig(TrainingStrategy::kLearningFromDemonstration));
  std::vector<Query> workload = TinyWorkload(3, 4, 503);
  ASSERT_TRUE(optimizer.Train(workload).ok());
  TeacherConfig teacher;
  teacher.iterations = 2;
  ASSERT_TRUE(optimizer.RefineWithTeacher(workload, teacher).ok());
  ASSERT_EQ(optimizer.teacher_stats().size(), 2u);
  EXPECT_LE(optimizer.teacher_stats()[1].greedy_mean_cost,
            optimizer.teacher_stats()[0].greedy_mean_cost);
  for (const Query& q : workload) {
    EXPECT_TRUE(optimizer.Optimize(q).ok());
  }
}

}  // namespace
}  // namespace hfq
