#include "core/bootstrap.h"

#include <algorithm>

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
      latency_reward_(&engine->latency()),
      scaled_reward_(&engine->latency()),
      rollouts_(&agent_, env, config.episodes_per_update,
                config.num_rollout_workers, seed) {
  HFQ_CHECK(engine != nullptr);
  env_->set_reward(&cost_reward_);
}

void BootstrapTrainer::RunPhase(
    const std::vector<Query>& workload, int episodes, int phase,
    const std::function<void(const BootstrapEpisodeStats&)>& on_episode) {
  rollouts_.Train(
      workload, episodes,
      [&](int e, FullPipelineEnv* env, const Episode& episode) {
        // In-worker: harvest plan-dependent stats before the env moves
        // on (latency simulation shares the thread-safe oracle).
        const Query& query = workload[static_cast<size_t>(e) % workload.size()];
        BootstrapEpisodeStats s;
        s.phase = phase;
        s.query_name = query.name;
        s.reward = episode.TotalReward();
        const PlanNode* plan = env->FinalPlan();
        s.cost = plan->est_cost;
        s.latency_ms = engine_->latency().SimulateMs(query, *plan);
        return s;
      },
      [&](int e, BootstrapEpisodeStats& s) {
        s.episode = episode_counter_++;
        if (phase == 1 && calibrating_ && e >= calibration_start_) {
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
        if (on_episode) on_episode(s);
      });
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
