// Parallel rollout-collection contract tests:
//   * the 1-worker parallel path reproduces the (pre-threadpool) serial
//     trainer bit-for-bit — trajectories and final network weights;
//   * an N-worker run is deterministic for a fixed seed and worker count;
//   * parallel demonstration collection equals the serial pass;
//   * the facade's workload-parallel Compare equals per-query Compare.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/hands_free.h"
#include "core/reward.h"
#include "rl/rollout.h"
#include "tests/test_common.h"
#include "workload/generator.h"

namespace hfq {
namespace {

void ExpectEpisodesEqual(const Episode& a, const Episode& b) {
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (size_t i = 0; i < a.steps.size(); ++i) {
    const Transition& x = a.steps[i];
    const Transition& y = b.steps[i];
    EXPECT_EQ(x.action, y.action);
    EXPECT_EQ(x.old_prob, y.old_prob);  // Bitwise.
    EXPECT_EQ(x.reward, y.reward);
    ASSERT_EQ(x.state.size(), y.state.size());
    for (size_t j = 0; j < x.state.size(); ++j) {
      EXPECT_EQ(x.state[j], y.state[j]);
    }
    EXPECT_EQ(x.mask, y.mask);
  }
}

void ExpectNetsEqual(Mlp& a, Mlp& b) {
  auto pa = a.Params();
  auto pb = b.Params();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    ASSERT_TRUE(pa[i]->SameShape(*pb[i]));
    for (int64_t j = 0; j < pa[i]->size(); ++j) {
      EXPECT_EQ(pa[i]->data()[j], pb[i]->data()[j]);
    }
  }
}

class ParallelRolloutTest : public ::testing::Test {
 protected:
  ParallelRolloutTest() : rejoin_(kN) {}

  Query MakeQuery(int n, uint64_t seed, const std::string& name) {
    WorkloadGenerator gen(&testing::SharedEngine().catalog(), seed);
    auto q = gen.GenerateQuery(n, name);
    HFQ_CHECK(q.ok());
    return std::move(*q);
  }

  std::vector<Query> MakeWorkload(uint64_t seed, const std::string& prefix) {
    std::vector<Query> workload;
    workload.push_back(MakeQuery(5, seed, prefix + "_a"));
    workload.push_back(MakeQuery(6, seed + 1, prefix + "_b"));
    workload.push_back(MakeQuery(4, seed + 2, prefix + "_c"));
    return workload;
  }

  // Trains through the shared rollout loop and returns every episode's
  // trajectory in episode order.
  static std::vector<Episode> TrainThroughLoop(
      PolicyGradientAgent* agent, FullPipelineEnv* env,
      const std::vector<Query>& workload, int episodes,
      int episodes_per_update, int workers, uint64_t seed) {
    RolloutLoop<FullPipelineEnv> loop(agent, env, episodes_per_update,
                                      workers, seed);
    std::vector<Episode> trajs;
    loop.Train(
        workload, episodes,
        [](int, FullPipelineEnv*, const Episode& episode) { return episode; },
        [&trajs](int e, const Episode& episode) {
          EXPECT_EQ(e, static_cast<int>(trajs.size()));
          trajs.push_back(episode);
        });
    return trajs;
  }

  static constexpr int kN = 8;
  testing::RejoinEnv rejoin_;
  FullPipelineEnv& env_ = rejoin_.env;
};

TEST_F(ParallelRolloutTest, OneWorkerMatchesSerialReferenceBitForBit) {
  std::vector<Query> workload = MakeWorkload(100, "eq");
  constexpr int kEpisodes = 50;
  constexpr int kEpisodesPerUpdate = 8;
  constexpr uint64_t kSeed = 33;
  PolicyGradientConfig pg;
  pg.hidden_dims = {24, 24};

  // The shared loop's (round-based, workspace-inference) path.
  PolicyGradientAgent agent(env_.state_dim(), env_.action_dim(), pg, kSeed);
  std::vector<Episode> loop_trajs = TrainThroughLoop(
      &agent, &env_, workload, kEpisodes, kEpisodesPerUpdate, 1, kSeed);

  // Hand-rolled serial reference replicating the pre-parallelism trainer:
  // mutating SampleAction from the agent's rng, update every
  // episodes_per_update episodes, trailing flush.
  PolicyGradientAgent reference(env_.state_dim(), env_.action_dim(), pg,
                                kSeed);
  std::vector<Episode> reference_trajs;
  std::vector<Episode> pending;
  for (int e = 0; e < kEpisodes; ++e) {
    const Query& query = workload[static_cast<size_t>(e) % workload.size()];
    env_.SetQuery(&query);
    env_.Reset();
    Episode episode;
    while (!env_.Done()) {
      Transition t;
      t.state = env_.StateVector();
      t.mask = env_.ActionMask();
      t.action = reference.SampleAction(t.state, t.mask, &t.old_prob);
      const bool done = env_.Step(t.action).done;
      t.reward = done ? env_.TerminalReward() : 0.0;
      episode.steps.push_back(std::move(t));
    }
    reference_trajs.push_back(episode);
    if (!episode.steps.empty()) {
      pending.push_back(std::move(episode));
      if (static_cast<int>(pending.size()) >= kEpisodesPerUpdate) {
        reference.Update(pending);
        pending.clear();
      }
    }
  }
  if (!pending.empty()) reference.Update(pending);

  ASSERT_EQ(loop_trajs.size(), reference_trajs.size());
  for (size_t i = 0; i < loop_trajs.size(); ++i) {
    ExpectEpisodesEqual(loop_trajs[i], reference_trajs[i]);
  }
  ExpectNetsEqual(agent.policy_net(), reference.policy_net());
  ExpectNetsEqual(agent.value_net(), reference.value_net());
}

TEST_F(ParallelRolloutTest, NWorkerRunIsDeterministicForFixedSeed) {
  std::vector<Query> workload = MakeWorkload(200, "det");
  constexpr int kEpisodes = 40;
  constexpr int kWorkers = 3;
  constexpr uint64_t kSeed = 55;

  auto run = [&](std::vector<Episode>* trajs) {
    testing::RejoinEnv primary(kN);
    PolicyGradientConfig pg;
    pg.hidden_dims = {24, 24};
    PolicyGradientAgent agent(primary.env.state_dim(),
                              primary.env.action_dim(), pg, kSeed);
    *trajs = TrainThroughLoop(&agent, &primary.env, workload, kEpisodes,
                              /*episodes_per_update=*/8, kWorkers, kSeed);
    return Mlp(agent.policy_net());
  };

  std::vector<Episode> trajs1, trajs2;
  Mlp policy1 = run(&trajs1);
  Mlp policy2 = run(&trajs2);
  ASSERT_EQ(trajs1.size(), static_cast<size_t>(kEpisodes));
  ASSERT_EQ(trajs2.size(), static_cast<size_t>(kEpisodes));
  for (size_t i = 0; i < trajs1.size(); ++i) {
    ExpectEpisodesEqual(trajs1[i], trajs2[i]);
  }
  ExpectNetsEqual(policy1, policy2);
}

TEST(ParallelCoreTest, ParallelDemonstrationCollectionMatchesSerial) {
  Engine& engine = testing::SharedEngine();
  WorkloadGenerator gen(&engine.catalog(), 777);
  std::vector<Query> workload;
  for (int i = 0; i < 6; ++i) {
    auto q = gen.GenerateQuery(3 + i % 3, "lfd_par" + std::to_string(i));
    ASSERT_TRUE(q.ok());
    workload.push_back(std::move(*q));
  }

  auto make_learner = [&engine](FullPipelineEnv* env,
                                NegLogLatencyReward* reward, int workers) {
    (void)reward;
    LfdConfig config;
    config.predictor.hidden_dims = {16};
    config.pretrain_steps = 30;
    config.num_rollout_workers = workers;
    return std::make_unique<DemonstrationLearner>(env, &engine, config,
                                                  /*seed=*/21);
  };

  RejoinFeaturizer featurizer(8, &engine.estimator());
  NegLogLatencyReward reward(&engine.latency());
  FullPipelineEnv env_serial(&featurizer, &engine.expert(), &reward);
  FullPipelineEnv env_parallel(&featurizer, &engine.expert(), &reward);

  auto serial = make_learner(&env_serial, &reward, 1);
  auto parallel = make_learner(&env_parallel, &reward, 3);
  auto collected_serial = serial->CollectDemonstrations(workload);
  auto collected_parallel = parallel->CollectDemonstrations(workload);
  ASSERT_TRUE(collected_serial.ok());
  ASSERT_TRUE(collected_parallel.ok());
  EXPECT_EQ(*collected_serial, *collected_parallel);
  EXPECT_EQ(serial->predictor().buffer_size(),
            parallel->predictor().buffer_size());

  // Identical example order + identical seeds: pre-training consumes the
  // same sample stream, so the resulting predictors agree exactly.
  serial->Pretrain();
  parallel->Pretrain();
  for (const Query& q : workload) {
    EXPECT_EQ(serial->EvaluateQuery(q), parallel->EvaluateQuery(q));
  }
}

TEST(ParallelCoreTest, CompareWorkloadMatchesPerQueryCompare) {
  Engine& engine = testing::SharedEngine();
  WorkloadGenerator gen(&engine.catalog(), 888);
  std::vector<Query> workload;
  for (int i = 0; i < 5; ++i) {
    auto q = gen.GenerateQuery(3 + i % 2, "hf_par" + std::to_string(i));
    ASSERT_TRUE(q.ok());
    workload.push_back(std::move(*q));
  }

  HandsFreeConfig config;
  config.strategy = TrainingStrategy::kCostModelBootstrapping;
  config.max_relations = 6;
  config.training_episodes = 32;
  config.num_rollout_workers = 3;
  config.bootstrap.pg.hidden_dims = {16};
  HandsFreeOptimizer optimizer(&engine, config);
  ASSERT_TRUE(optimizer.Train(workload).ok());

  auto parallel = optimizer.CompareWorkload(workload);
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(parallel->size(), workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    auto single = optimizer.Compare(workload[i]);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ((*parallel)[i].learned_cost, single->learned_cost);
    EXPECT_EQ((*parallel)[i].learned_latency_ms, single->learned_latency_ms);
    EXPECT_EQ((*parallel)[i].expert_cost, single->expert_cost);
    EXPECT_EQ((*parallel)[i].expert_latency_ms, single->expert_latency_ms);
  }

  // OptimizeWorkload plans agree with per-query Optimize.
  auto plans = optimizer.OptimizeWorkload(workload);
  ASSERT_TRUE(plans.ok());
  for (size_t i = 0; i < workload.size(); ++i) {
    auto single = optimizer.Optimize(workload[i]);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ((*plans)[i]->ToString(workload[i]),
              (*single)->ToString(workload[i]));
  }
}

TEST(ParallelCoreTest, IncrementalTrainerParallelRunIsDeterministic) {
  Engine& engine = testing::SharedEngine();
  RejoinFeaturizer featurizer(6, &engine.estimator());
  NegLogCostReward reward;

  auto run = [&](std::vector<double>* rewards) {
    FullPipelineEnv env(&featurizer, &engine.expert(), &reward);
    WorkloadGenerator gen(&engine.catalog(), 999);
    PolicyGradientConfig pg;
    pg.hidden_dims = {16};
    IncrementalTrainer trainer(&env, &gen, pg, /*episodes_per_update=*/4,
                               /*seed=*/61, /*num_rollout_workers=*/3);
    std::vector<CurriculumPhase> phases =
        BuildCurriculum(CurriculumKind::kPipeline, 24, 5);
    Status status = trainer.Run(phases, /*queries_per_phase=*/4,
                                [rewards](const CurriculumEpisodeStats& s) {
                                  rewards->push_back(s.reward);
                                });
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_EQ(rewards->size(), 24u);
  };

  std::vector<double> rewards1, rewards2;
  run(&rewards1);
  run(&rewards2);
  ASSERT_EQ(rewards1.size(), rewards2.size());
  for (size_t i = 0; i < rewards1.size(); ++i) {
    EXPECT_EQ(rewards1[i], rewards2[i]);
  }
}

}  // namespace
}  // namespace hfq
