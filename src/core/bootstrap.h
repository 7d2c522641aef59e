// Cost-model bootstrapping (paper Section 5.2): Phase 1 trains a policy-
// gradient agent against the optimizer's cost model (cheap, executes
// nothing — the "training wheels"); Phase 2 switches the reward to
// simulated latency. The switch can be:
//   * unscaled — the raw latency range replaces the cost range, which the
//     paper predicts destabilizes the learner;
//   * scaled — latency is mapped into the Phase-1 cost range with the
//     paper's linear formula (observed Cmin/Cmax/Lmin/Lmax), keeping the
//     reward regime continuous;
//   * scaled + transfer — additionally re-initializes optimizer state at
//     the boundary (the paper's transfer-learning aside).
#ifndef HFQ_CORE_BOOTSTRAP_H_
#define HFQ_CORE_BOOTSTRAP_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/full_env.h"
#include "rl/policy_gradient.h"
#include "rl/rollout.h"

namespace hfq {

/// How the Phase 1 -> Phase 2 reward switch is handled.
enum class BootstrapSwitchMode {
  kUnscaled,        ///< Raw -log10(latency) reward from Phase 2 on.
  kScaled,          ///< Paper formula maps latency into the cost range.
  kScaledTransfer,  ///< kScaled + optimizer-state reset at the boundary.
};

const char* BootstrapSwitchModeName(BootstrapSwitchMode mode);

/// Trainer knobs.
struct BootstrapConfig {
  BootstrapConfig() {}
  PolicyGradientConfig pg;
  int episodes_per_update = 8;
  /// Tail fraction of Phase 1 used to calibrate Cmin/Cmax/Lmin/Lmax.
  double calibration_fraction = 0.2;
  BootstrapSwitchMode switch_mode = BootstrapSwitchMode::kScaled;
  /// Rollout-collection parallelism (rl/rollout.h): N > 1 collects each
  /// update batch across N worker envs against the frozen policy; 1
  /// worker reproduces the serial trajectories bit-for-bit.
  int num_rollout_workers = 1;
};

/// Per-episode diagnostics.
struct BootstrapEpisodeStats {
  int episode = 0;
  int phase = 1;
  std::string query_name;
  double reward = 0.0;
  double cost = 0.0;        ///< Cost-model value of the episode's plan.
  double latency_ms = 0.0;  ///< Simulated latency of the episode's plan.
};

/// Runs two-phase bootstrapped training over a FullPipelineEnv.
class BootstrapTrainer {
 public:
  /// `env` and `engine` must outlive the trainer. The env's reward signal
  /// is managed by the trainer (do not set it externally).
  BootstrapTrainer(FullPipelineEnv* env, Engine* engine,
                   BootstrapConfig config, uint64_t seed);

  /// Phase 1: `episodes` episodes with the cost-model reward. Collects
  /// calibration ranges over the tail fraction.
  void RunPhase1(const std::vector<Query>& workload, int episodes,
                 const std::function<void(const BootstrapEpisodeStats&)>&
                     on_episode = nullptr);

  /// Switches the reward per the configured mode.
  void SwitchToPhase2();

  /// Phase 2: `episodes` episodes with the (possibly scaled) latency
  /// reward.
  void RunPhase2(const std::vector<Query>& workload, int episodes,
                 const std::function<void(const BootstrapEpisodeStats&)>&
                     on_episode = nullptr);

  PolicyGradientAgent& agent() { return agent_; }
  const ScaledLatencyReward& scaled_reward() const { return scaled_reward_; }

 private:
  /// Shared phase driver over the rollout loop.
  void RunPhase(const std::vector<Query>& workload, int episodes, int phase,
                const std::function<void(const BootstrapEpisodeStats&)>&
                    on_episode);

  FullPipelineEnv* env_;
  Engine* engine_;
  BootstrapConfig config_;
  PolicyGradientAgent agent_;
  NegLogCostReward cost_reward_;
  NegLogLatencyReward latency_reward_;
  ScaledLatencyReward scaled_reward_;
  RolloutLoop<FullPipelineEnv> rollouts_;
  int episode_counter_ = 0;
  /// Phase-1 episode index from which calibration accumulates (set by
  /// RunPhase1 for the phase driver).
  int calibration_start_ = 0;
  // Calibration accumulators (tail of Phase 1).
  bool calibrating_ = false;
  double cost_min_ = 0.0, cost_max_ = 0.0;
  double lat_min_ = 0.0, lat_max_ = 0.0;
  bool have_ranges_ = false;
};

}  // namespace hfq

#endif  // HFQ_CORE_BOOTSTRAP_H_
