// The round-based policy-gradient training loop every trainer shares
// (cost-model bootstrapping, the incremental curricula, ReJOIN): sampled
// episodes over a workload, one PolicyGradientAgent update per batch, and
// optional parallel rollout collection across N worker environments.
//
// Contract:
//   * episodes run over the workload round-robin; the agent updates once
//     per `episodes_per_update` non-empty episodes, and every Train call
//     flushes its trailing partial batch before returning, so no episode
//     (with its old_prob PPO ratios) outlives the run that sampled it;
//   * collection runs in rounds that end exactly at the batch boundaries:
//     the agent is frozen within a round, and episode i of a round runs on
//     worker i % W, each worker taking its episodes in ascending order on
//     its own env with its own Rng;
//   * worker 0 is the primary env sampling from the agent's own rng, so
//     one worker reproduces the serial trajectories bit-for-bit; worker
//     w >= 1 samples from a persistent stream seeded `seed + w` on a clone
//     of the primary env, re-cloned at every Train so a stage or reward
//     change between runs reaches every worker; N workers are
//     deterministic for a fixed (seed, N);
//   * environments must be mutually independent: shared substrate they
//     reach (CardinalityEstimator, TrueCardinalityOracle, reward signals)
//     is internally synchronized, but an env instance itself is
//     single-threaded state.
#ifndef HFQ_RL_ROLLOUT_H_
#define HFQ_RL_ROLLOUT_H_

#include <algorithm>
#include <memory>
#include <type_traits>
#include <vector>

#include "rl/env.h"
#include "rl/policy_gradient.h"
#include "rl/trajectory.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace hfq {

/// Runs one sampled episode of `query` on `env`, drawing actions from the
/// frozen `agent` via the thread-safe inference path. The terminal reward
/// is pulled once, onto the last transition.
template <typename EnvT, typename QueryT>
Episode RunSampledEpisode(const PolicyGradientAgent& agent, EnvT* env,
                          const QueryT& query, Rng* rng, MlpWorkspace* ws) {
  env->SetQuery(&query);
  env->Reset();
  Episode episode;
  while (!env->Done()) {
    Transition t;
    t.state = env->StateVector();
    t.mask = env->ActionMask();
    t.action = agent.SampleAction(t.state, t.mask, rng, ws, &t.old_prob);
    const bool done = env->Step(t.action).done;
    t.reward = done ? env->TerminalReward() : 0.0;
    episode.steps.push_back(std::move(t));
  }
  return episode;
}

/// Trains `agent` on episodes of `EnvT` (a SearchEnv with SetQuery; its
/// CloneSearch builds the worker envs).
template <typename EnvT>
class RolloutLoop {
 public:
  /// `agent` and `env` must outlive the loop.
  RolloutLoop(PolicyGradientAgent* agent, EnvT* env, int episodes_per_update,
              int num_workers, uint64_t seed)
      : agent_(agent),
        env_(env),
        episodes_per_update_(episodes_per_update),
        num_workers_(num_workers) {
    HFQ_CHECK(agent != nullptr && env != nullptr);
    HFQ_CHECK(num_workers >= 1);
    for (int w = 1; w < num_workers; ++w) {
      worker_rngs_.push_back(
          std::make_unique<Rng>(seed + static_cast<uint64_t>(w)));
    }
    if (num_workers > 1) pool_ = std::make_unique<ThreadPool>(num_workers);
  }

  /// Trains on `episodes` episodes; episode e (0-based within this call)
  /// runs workload[e % workload.size()]. `harvest(e, env, episode)` runs on
  /// the worker thread right after episode e finishes and returns its
  /// stats — read env-dependent results (the finished plan) there.
  /// `report(e, stats)` runs on the calling thread in episode order, after
  /// episode e joined the batch and after the update it completed, if any;
  /// a report that changes the agent therefore takes effect at batch
  /// granularity.
  template <typename QueryT, typename HarvestFn, typename ReportFn>
  void Train(const std::vector<QueryT>& workload, int episodes,
             HarvestFn harvest, ReportFn report) {
    using Stats = std::invoke_result_t<HarvestFn&, int, EnvT*, const Episode&>;
    HFQ_CHECK(!workload.empty());
    std::vector<EnvT*> envs = {env_};
    std::vector<Rng*> rngs = {&agent_->rng()};
    std::vector<std::unique_ptr<SearchEnv>> worker_envs;
    for (const auto& rng : worker_rngs_) {
      worker_envs.push_back(env_->CloneSearch());
      auto* worker_env = dynamic_cast<EnvT*>(worker_envs.back().get());
      HFQ_CHECK(worker_env != nullptr);
      envs.push_back(worker_env);
      rngs.push_back(rng.get());
    }

    std::vector<Episode> pending;
    int done = 0;
    while (done < episodes) {
      const int room =
          episodes_per_update_ - static_cast<int>(pending.size());
      const int round = std::min(episodes - done, std::max(1, room));
      std::vector<Episode> collected(static_cast<size_t>(round));
      std::vector<Stats> stats(static_cast<size_t>(round));
      RunOnWorkers(pool_.get(), num_workers_, [&](int worker) {
        const size_t w = static_cast<size_t>(worker);
        MlpWorkspace ws;
        for (size_t i = w; i < collected.size(); i += envs.size()) {
          const int e = done + static_cast<int>(i);
          collected[i] = RunSampledEpisode(
              *agent_, envs[w],
              workload[static_cast<size_t>(e) % workload.size()], rngs[w],
              &ws);
          stats[i] = harvest(e, envs[w], collected[i]);
        }
      });
      for (int i = 0; i < round; ++i) {
        Episode& episode = collected[static_cast<size_t>(i)];
        if (!episode.steps.empty()) {
          pending.push_back(std::move(episode));
          if (static_cast<int>(pending.size()) >= episodes_per_update_) {
            agent_->Update(pending);
            pending.clear();
          }
        }
        report(done + i, stats[static_cast<size_t>(i)]);
      }
      done += round;
    }
    if (!pending.empty()) agent_->Update(pending);
  }

 private:
  PolicyGradientAgent* agent_;
  EnvT* env_;
  int episodes_per_update_;
  int num_workers_;
  /// Sampling streams for workers 1..N-1, persisted across Train calls.
  std::vector<std::unique_ptr<Rng>> worker_rngs_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace hfq

#endif  // HFQ_RL_ROLLOUT_H_
