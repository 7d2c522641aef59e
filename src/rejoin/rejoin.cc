#include "rejoin/rejoin.h"

#include <algorithm>

#include "rl/rollout.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace hfq {

RejoinTrainer::RejoinTrainer(JoinOrderEnv* env, RejoinConfig config,
                             uint64_t seed)
    : env_(env),
      config_(config),
      agent_(env->state_dim(), env->action_dim(), config.pg, seed),
      seed_(seed) {
  HFQ_CHECK(env != nullptr);
  HFQ_CHECK(config_.num_rollout_workers >= 1);
}

void RejoinTrainer::SetWorkerEnvs(std::vector<JoinOrderEnv*> envs) {
  for (JoinOrderEnv* env : envs) {
    HFQ_CHECK(env != nullptr);
    HFQ_CHECK(env->state_dim() == env_->state_dim());
    HFQ_CHECK(env->action_dim() == env_->action_dim());
  }
  worker_envs_ = std::move(envs);
}

RejoinEpisodeStats RejoinTrainer::RunEpisode(const Query& query, bool train) {
  env_->SetQuery(&query);
  env_->Reset();
  RejoinEpisodeStats stats;
  stats.query_name = query.name;

  Episode episode;
  while (!env_->Done()) {
    Transition t;
    t.state = env_->StateVector();
    t.mask = env_->ActionMask();
    if (train) {
      t.action = agent_.SampleAction(t.state, t.mask, &t.old_prob);
    } else {
      t.action = agent_.GreedyAction(t.state, t.mask);
      t.old_prob = 1.0;
    }
    const bool done = env_->Step(t.action).done;
    t.reward = done ? env_->TerminalReward() : 0.0;
    episode.steps.push_back(std::move(t));
    ++stats.steps;
  }
  stats.reward = episode.TotalReward();

  if (train && !episode.steps.empty()) {
    pending_.push_back(std::move(episode));
    if (static_cast<int>(pending_.size()) >= config_.episodes_per_update) {
      agent_.Update(pending_);
      pending_.clear();
    }
  }
  return stats;
}

void RejoinTrainer::AbsorbEpisode(
    int global_episode, Episode episode, const RejoinEpisodeStats& stats,
    const std::function<void(int, const RejoinEpisodeStats&)>& on_episode) {
  if (trajectory_sink_) trajectory_sink_(global_episode, episode);
  if (!episode.steps.empty()) {
    pending_.push_back(std::move(episode));
    if (static_cast<int>(pending_.size()) >= config_.episodes_per_update) {
      agent_.Update(pending_);
      pending_.clear();
    }
  }
  if (on_episode) on_episode(global_episode, stats);
}

void RejoinTrainer::Train(
    const std::vector<Query>& workload, int episodes,
    const std::function<void(int, const RejoinEpisodeStats&)>& on_episode) {
  HFQ_CHECK(!workload.empty());
  const int num_workers = std::max(1, config_.num_rollout_workers);
  HFQ_CHECK_MSG(
      static_cast<int>(worker_envs_.size()) >= num_workers - 1,
      "num_rollout_workers > 1 requires SetWorkerEnvs with one independent "
      "env per extra worker");
  while (static_cast<int>(worker_rngs_.size()) < num_workers - 1) {
    worker_rngs_.push_back(std::make_unique<Rng>(
        seed_ + static_cast<uint64_t>(worker_rngs_.size()) + 1));
  }
  std::vector<JoinOrderEnv*> envs = {env_};
  std::vector<Rng*> rngs = {&agent_.rng()};
  for (int w = 1; w < num_workers; ++w) {
    envs.push_back(worker_envs_[static_cast<size_t>(w - 1)]);
    rngs.push_back(worker_rngs_[static_cast<size_t>(w - 1)].get());
  }
  if (num_workers > 1 &&
      (pool_ == nullptr || pool_->num_threads() < num_workers)) {
    pool_ = std::make_unique<ThreadPool>(num_workers);
  }
  ThreadPool* pool = num_workers > 1 ? pool_.get() : nullptr;

  // Round-based collection. A round ends exactly where the serial trainer
  // would apply a policy update (the pending buffer reaching
  // episodes_per_update), so the policy is frozen within a round in both
  // modes and the update cadence is identical.
  int done = 0;
  while (done < episodes) {
    const int room =
        config_.episodes_per_update - static_cast<int>(pending_.size());
    const int round = std::min(episodes - done, std::max(1, room));
    std::vector<const Query*> queries(static_cast<size_t>(round));
    std::vector<RejoinEpisodeStats> stats(static_cast<size_t>(round));
    for (int i = 0; i < round; ++i) {
      queries[static_cast<size_t>(i)] =
          &workload[static_cast<size_t>(done + i) % workload.size()];
    }
    std::vector<Episode> collected = CollectRollouts(
        agent_, envs, rngs, queries, pool,
        [&queries, &stats](int i, JoinOrderEnv*, const Episode& episode) {
          RejoinEpisodeStats& s = stats[static_cast<size_t>(i)];
          s.query_name = queries[static_cast<size_t>(i)]->name;
          s.reward = episode.TotalReward();
          s.steps = static_cast<int>(episode.steps.size());
        });
    for (int i = 0; i < round; ++i) {
      AbsorbEpisode(done + i, std::move(collected[static_cast<size_t>(i)]),
                    stats[static_cast<size_t>(i)], on_episode);
    }
    done += round;
  }
  // Flush the trailing partial batch: leftover episodes would otherwise
  // carry stale old_prob values into a later Train/RunEpisode update,
  // corrupting the PPO ratios.
  FlushPendingEpisodes();
}

void RejoinTrainer::FlushPendingEpisodes() {
  if (pending_.empty()) return;
  agent_.Update(pending_);
  pending_.clear();
}

Result<std::vector<TeacherIterationStats>> RejoinTrainer::RefineWithTeacher(
    const std::vector<Query>& workload, const TeacherConfig& teacher,
    const SearchConfig& teacher_search, ExperiencePool* pool) {
  if (workload.empty()) {
    return Status::InvalidArgument("teacher workload is empty");
  }
  ExperiencePool local_pool;
  AgentPolicy policy(&agent_);
  AgentTeacherStudent student(&agent_);
  std::unique_ptr<PlanSearch> searcher = MakePlanSearch(teacher_search);
  MlpWorkspace search_ws;
  SearchScratch search_scratch;

  TeacherLoopTask task;
  task.env = env_;
  task.num_queries = workload.size();
  task.select_query = [this, &workload](size_t i) {
    env_->SetQuery(&workload[i]);
    return workload[i].StructuralFingerprint();
  };
  task.search = [&policy, &searcher, &search_ws,
                 &search_scratch](SearchEnv* env) -> Result<TeacherSearchOutcome> {
    SearchContext ctx{&policy, /*rng=*/nullptr, &search_ws, &search_scratch};
    HFQ_ASSIGN_OR_RETURN(SearchResult found, searcher->Search(env, ctx));
    TeacherSearchOutcome outcome;
    outcome.actions = std::move(found.actions);
    outcome.cost = found.cost;
    return outcome;
  };
  task.policy = &policy;
  task.student = &student;
  task.pool = pool != nullptr ? pool : &local_pool;
  return RunTeacherLoop(task, teacher);
}

std::unique_ptr<JoinTreeNode> RejoinTrainer::Plan(const Query& query,
                                                  double* planning_ms_out) {
  return PlanWithSearch(query, SearchConfig(), planning_ms_out);
}

std::unique_ptr<JoinTreeNode> RejoinTrainer::PlanWithSearch(
    const Query& query, const SearchConfig& search, double* planning_ms_out,
    SearchResult* result_out) {
  env_->SetQuery(&query);
  AgentPolicy policy(&agent_);
  // No Rng: searchers derive any sampling streams from the SearchConfig
  // seed, so planning never advances the trainer's streams. The workspace
  // and search scratch are trainer members, reused across queries.
  SearchContext ctx{&policy, /*rng=*/nullptr, &plan_ws_, &plan_scratch_};
  std::unique_ptr<PlanSearch> searcher = MakePlanSearch(search);
  auto result = searcher->Search(env_, ctx, pool_.get());
  HFQ_CHECK_MSG(result.ok(), "plan search failed");
  if (planning_ms_out != nullptr) *planning_ms_out = result->planning_ms;
  if (result_out != nullptr) *result_out = std::move(*result);
  return env_->FinalTree()->Clone();
}

}  // namespace hfq
