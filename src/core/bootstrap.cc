#include "core/bootstrap.h"

#include <algorithm>

#include "rl/rollout.h"
#include "util/check.h"

namespace hfq {

const char* BootstrapSwitchModeName(BootstrapSwitchMode mode) {
  switch (mode) {
    case BootstrapSwitchMode::kUnscaled:
      return "unscaled";
    case BootstrapSwitchMode::kScaled:
      return "scaled";
    case BootstrapSwitchMode::kScaledTransfer:
      return "scaled+transfer";
  }
  return "?";
}

BootstrapTrainer::BootstrapTrainer(FullPipelineEnv* env, Engine* engine,
                                   BootstrapConfig config, uint64_t seed)
    : env_(env),
      engine_(engine),
      config_(config),
      agent_(env->state_dim(), env->action_dim(), config.pg, seed),
      seed_(seed),
      cost_reward_(&engine->cost_model()),
      latency_reward_(&engine->latency()),
      scaled_reward_(&engine->latency()) {
  HFQ_CHECK(env != nullptr && engine != nullptr);
  HFQ_CHECK(config_.num_rollout_workers >= 1);
  env_->set_reward(&cost_reward_);
}

void BootstrapTrainer::EnsureWorkers() {
  if (config_.num_rollout_workers <= 1) return;
  while (static_cast<int>(worker_envs_.size()) <
         config_.num_rollout_workers - 1) {
    worker_envs_.push_back(std::make_unique<FullPipelineEnv>(
        env_->featurizer(), env_->expert(), env_->reward(), env_->config()));
    worker_rngs_.push_back(std::make_unique<Rng>(
        seed_ + static_cast<uint64_t>(worker_rngs_.size()) + 1));
  }
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(config_.num_rollout_workers);
  }
}

void BootstrapTrainer::RunPhase(
    const std::vector<Query>& workload, int episodes, int phase,
    const std::function<void(const BootstrapEpisodeStats&)>& on_episode) {
  HFQ_CHECK(!workload.empty());
  EnsureWorkers();
  std::vector<FullPipelineEnv*> envs = {env_};
  std::vector<Rng*> rngs = {&agent_.rng()};
  for (auto& worker_env : worker_envs_) {
    // The reward regime changes between phases: resync worker envs with
    // the primary env's current signal (the signals themselves are
    // thread-safe and shared).
    worker_env->set_stages(env_->stages());
    worker_env->set_reward(env_->reward());
  }
  for (size_t w = 0; w < worker_envs_.size(); ++w) {
    envs.push_back(worker_envs_[w].get());
    rngs.push_back(worker_rngs_[w].get());
  }
  ThreadPool* pool = config_.num_rollout_workers > 1 ? pool_.get() : nullptr;

  // Round-based collection: a round ends exactly where the serial loop
  // would apply a policy update, so the policy is frozen within a round
  // and the update cadence matches the serial path episode-for-episode.
  int e = 0;
  while (e < episodes) {
    const int room =
        config_.episodes_per_update - static_cast<int>(pending_.size());
    const int round = std::min(episodes - e, std::max(1, room));
    std::vector<const Query*> queries(static_cast<size_t>(round));
    std::vector<BootstrapEpisodeStats> stats(static_cast<size_t>(round));
    for (int i = 0; i < round; ++i) {
      queries[static_cast<size_t>(i)] =
          &workload[static_cast<size_t>(e + i) % workload.size()];
    }
    std::vector<Episode> collected = CollectRollouts(
        agent_, envs, rngs, queries, pool,
        [&](int i, FullPipelineEnv* env, const Episode& episode) {
          // In-worker: harvest plan-dependent stats before the env moves
          // on (latency simulation shares the thread-safe oracle).
          BootstrapEpisodeStats& s = stats[static_cast<size_t>(i)];
          s.phase = phase;
          s.query_name = queries[static_cast<size_t>(i)]->name;
          s.reward = episode.TotalReward();
          const PlanNode* plan = env->FinalPlan();
          s.cost = plan->est_cost;
          s.latency_ms = engine_->latency().SimulateMs(
              *queries[static_cast<size_t>(i)], *plan);
        });
    for (int i = 0; i < round; ++i) {
      BootstrapEpisodeStats& s = stats[static_cast<size_t>(i)];
      s.episode = episode_counter_++;
      if (phase == 1 && calibrating_ && e + i >= calibration_start_) {
        if (!have_ranges_) {
          cost_min_ = cost_max_ = s.cost;
          lat_min_ = lat_max_ = s.latency_ms;
          have_ranges_ = true;
        } else {
          cost_min_ = std::min(cost_min_, s.cost);
          cost_max_ = std::max(cost_max_, s.cost);
          lat_min_ = std::min(lat_min_, s.latency_ms);
          lat_max_ = std::max(lat_max_, s.latency_ms);
        }
      }
      Episode& episode = collected[static_cast<size_t>(i)];
      if (!episode.steps.empty()) {
        pending_.push_back(std::move(episode));
        if (static_cast<int>(pending_.size()) >=
            config_.episodes_per_update) {
          agent_.Update(pending_);
          pending_.clear();
        }
      }
      if (on_episode) on_episode(s);
    }
    e += round;
  }
  // Flush the trailing partial batch: leftover episodes would otherwise
  // be dropped at the end of Phase 2, or leak Phase-1 cost-reward
  // episodes (with stale old_prob PPO ratios) into the first Phase-2
  // update under a different reward scale.
  if (!pending_.empty()) {
    agent_.Update(pending_);
    pending_.clear();
  }
}

void BootstrapTrainer::RunPhase1(
    const std::vector<Query>& workload, int episodes,
    const std::function<void(const BootstrapEpisodeStats&)>& on_episode) {
  HFQ_CHECK(!workload.empty());
  env_->set_reward(&cost_reward_);
  // At least the final Phase-1 episode always calibrates.
  calibration_start_ = std::min(
      episodes - 1,
      episodes - static_cast<int>(config_.calibration_fraction *
                                  static_cast<double>(episodes)));
  calibrating_ = true;
  RunPhase(workload, episodes, /*phase=*/1, on_episode);
  calibrating_ = false;
}

void BootstrapTrainer::SwitchToPhase2() {
  switch (config_.switch_mode) {
    case BootstrapSwitchMode::kUnscaled:
      env_->set_reward(&latency_reward_);
      break;
    case BootstrapSwitchMode::kScaledTransfer:
      agent_.ResetOptimizerState();
      [[fallthrough]];
    case BootstrapSwitchMode::kScaled:
      HFQ_CHECK_MSG(have_ranges_, "Phase 1 must run before Phase 2");
      scaled_reward_.Calibrate(cost_min_, cost_max_, lat_min_, lat_max_);
      env_->set_reward(&scaled_reward_);
      break;
  }
}

void BootstrapTrainer::RunPhase2(
    const std::vector<Query>& workload, int episodes,
    const std::function<void(const BootstrapEpisodeStats&)>& on_episode) {
  RunPhase(workload, episodes, /*phase=*/2, on_episode);
}

}  // namespace hfq
