// Parallel rollout collection: runs a round of episodes against one frozen
// PolicyGradientAgent across N worker environments. This is the shared
// engine behind every trainer's `num_rollout_workers` mode (ReJOIN, the
// bootstrap / incremental drivers, and the facade's workload planning).
//
// Contract:
//   * episode i of the round uses queries[i] and runs on worker i % W,
//     where W = envs.size(); each worker processes its episodes in
//     ascending round order on its own env with its own Rng, so a round is
//     deterministic for a fixed (agent state, rng states, W);
//   * the agent must stay frozen for the round (updates happen between
//     rounds — exactly the cadence of the serial trainers, which only
//     update at batch boundaries);
//   * with W == 1 (or pool == nullptr) the round runs inline on the calling
//     thread, reproducing the serial trainer's rng consumption bit-for-bit
//     when rngs[0] is the agent's own rng;
//   * environments must be mutually independent: shared substrate they
//     reach (CardinalityEstimator, TrueCardinalityOracle, reward signals)
//     is internally synchronized, but an env instance itself is
//     single-threaded state.
#ifndef HFQ_RL_ROLLOUT_H_
#define HFQ_RL_ROLLOUT_H_

#include <vector>

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

/// Collects one round of episodes (queries.size() of them) and returns them
/// in round order. `per_episode(i, env, episode)` fires on the worker
/// thread immediately after episode i finishes — use it to harvest
/// env-dependent per-episode stats (e.g. the finished plan) before the
/// worker moves on. Worker exceptions are re-thrown on the caller only
/// after every worker has finished (RunOnWorkers), so a failing worker
/// never leaves siblings writing into this frame.
template <typename EnvT, typename QueryT, typename PerEpisodeFn>
std::vector<Episode> CollectRollouts(const PolicyGradientAgent& agent,
                                     const std::vector<EnvT*>& envs,
                                     const std::vector<Rng*>& rngs,
                                     const std::vector<const QueryT*>& queries,
                                     ThreadPool* pool,
                                     PerEpisodeFn per_episode) {
  const size_t num_workers = envs.size();
  HFQ_CHECK(num_workers >= 1);
  HFQ_CHECK(rngs.size() == num_workers);
  std::vector<Episode> episodes(queries.size());
  RunOnWorkers(pool, static_cast<int>(num_workers), [&](int worker) {
    const size_t w = static_cast<size_t>(worker);
    MlpWorkspace ws;
    for (size_t i = w; i < queries.size(); i += num_workers) {
      HFQ_CHECK(queries[i] != nullptr);
      episodes[i] =
          RunSampledEpisode(agent, envs[w], *queries[i], rngs[w], &ws);
      per_episode(static_cast<int>(i), envs[w], episodes[i]);
    }
  });
  return episodes;
}

}  // namespace hfq

#endif  // HFQ_RL_ROLLOUT_H_
