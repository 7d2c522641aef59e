// The plan-building MDP: one episode decides a complete physical plan via
// the paper's four-stage pipeline (Figure 8) — join ordering, index
// (access-path) selection, join-operator selection, aggregate-operator
// selection. Any suffix of the pipeline can be delegated to the traditional
// optimizer (PipelineStages), which is exactly what the incremental
// pipeline curriculum (Section 5.3.1) needs. ReJOIN (Section 3) is this
// environment with only the join-order stage enabled: states are the live
// join subtrees, action (x, y) joins subtrees x and y, and the finished
// plan is the expert's physicalization of the learned join tree
// (TraditionalOptimizer::PhysicalizeJoinTree) — what its cost reward
// prices.
#ifndef HFQ_CORE_FULL_ENV_H_
#define HFQ_CORE_FULL_ENV_H_

#include <memory>
#include <vector>

#include "core/reward.h"
#include "optimizer/optimizer.h"
#include "rejoin/featurizer.h"
#include "rl/env.h"
#include "rl/trajectory.h"

namespace hfq {

/// Which pipeline stages the agent decides (disabled stages fall back to
/// the traditional optimizer's choice).
struct PipelineStages {
  bool join_order = true;
  bool access_paths = true;
  bool join_operators = true;
  bool aggregate_operator = true;

  static PipelineStages All() { return PipelineStages(); }
  static PipelineStages JoinOrderOnly() {
    return PipelineStages{true, false, false, false};
  }
  /// The first `k` stages of the paper's pipeline order.
  static PipelineStages Prefix(int k);
  int CountEnabled() const {
    return (join_order ? 1 : 0) + (access_paths ? 1 : 0) +
           (join_operators ? 1 : 0) + (aggregate_operator ? 1 : 0);
  }
};

/// Env configuration.
struct FullEnvConfig {
  FullEnvConfig() {}
  PipelineStages stages;
  /// Allow cross-product join actions even when connected pairs exist
  /// (inflates the search space; used by the naive-DRL experiment).
  bool allow_cross_products = false;
};

/// Stage-specific action encodings (within the shared N*N action space):
///   join order: a = x * N + y (join slots x and y; x becomes outer)
///   access path: 0 = SeqScan, 1 = B-tree IndexScan, 2 = Hash IndexScan
///   join operator: 0 = NLJ, 1 = IndexNLJ, 2 = HashJoin, 3 = MergeJoin
///   aggregate: 0 = HashAggregate, 1 = SortAggregate
class FullPipelineEnv : public SearchEnv {
 public:
  /// All pointers must outlive the env.
  FullPipelineEnv(RejoinFeaturizer* featurizer, TraditionalOptimizer* expert,
                  RewardSignal* reward, FullEnvConfig config = FullEnvConfig());

  /// Selects the query for subsequent episodes.
  void SetQuery(const Query* query);

  /// Curriculum hooks: change stage set / reward between episodes.
  void set_stages(PipelineStages stages) { config_.stages = stages; }
  PipelineStages stages() const { return config_.stages; }
  void set_reward(RewardSignal* reward);
  RewardSignal* reward() { return reward_; }

  /// Collaborator accessors, exposed so trainers can build independent
  /// per-worker env clones (same featurizer/expert/reward wiring) for
  /// parallel rollout collection.
  RejoinFeaturizer* featurizer() const { return featurizer_; }
  TraditionalOptimizer* expert() const { return expert_; }
  const FullEnvConfig& config() const { return config_; }

  void Reset() override;
  int state_dim() const override;
  int action_dim() const override;
  std::vector<double> StateVector() const override;
  std::vector<bool> ActionMask() const override;
  StepResult Step(int action) override;
  bool Done() const override;

  /// The reward signal's score of the finished plan, computed on the first
  /// call of the episode (valid once Done()).
  double TerminalReward() override;

  /// Forks the in-flight episode — query, stage cursor, partial join
  /// forest / decided operators, the cached terminal reward all copied;
  /// featurizer, expert and reward are shared (thread-safe substrate).
  /// Enables prefix expansion by the plan-search layer.
  std::unique_ptr<SearchEnv> CloneSearch() const override;

  /// The finished plan's cost-model cost (valid once Done()) — the
  /// minimization objective plan-time search compares rollouts by. Never
  /// scores the episode.
  double FinalCost() override;

  /// Pool reuse: becomes a copy of `other` (wiring included) while keeping
  /// this object's vector capacities; false iff `other` is not a
  /// FullPipelineEnv. Semantics match CloneSearch exactly.
  bool TryCopySearchStateFrom(const SearchEnv& other) override;

  /// The completed, cost-annotated physical plan (valid once Done()).
  const PlanNode* FinalPlan() const;

  /// Replays an expert plan through this env, recording the (state, mask,
  /// action) sequence the expert's decisions correspond to — the episode
  /// history H_q of Section 5.1. Rewards in the returned episode are all
  /// zero (the caller attaches outcomes). Leaves the env Done() with
  /// FinalPlan() == the replayed plan's decisions.
  Result<Episode> ExpertEpisode(const Query& query,
                                const PlanNode& expert_plan);

  const Query* query() const { return query_; }

 private:
  enum class Stage { kJoinOrder, kAccessPath, kJoinOp, kAggregate, kDone };

  void AdvanceStage();
  /// Skips decisions with at most one valid option; may finish the episode.
  void SkipTrivialDecisions();
  std::vector<int> ValidAccessActions(int rel) const;
  std::vector<int> ValidJoinOpActions(const JoinTreeNode& node) const;
  /// Builds the final plan from recorded decisions; every node carries
  /// exactly the est_rows/est_cost CostModel::Annotate would give it.
  PlanNodePtr BuildPlan();
  PlanNodePtr BuildScan(int rel) const;
  PlanNodePtr BuildJoinNode(const JoinTreeNode& node, PlanNodePtr left,
                            PlanNodePtr right, int decision_idx);
  /// Most selective selection predicate on `rel` servable by `kind`.
  int PickIndexPredicate(int rel, IndexKind kind) const;

  RejoinFeaturizer* featurizer_;
  TraditionalOptimizer* expert_;
  RewardSignal* reward_;
  FullEnvConfig config_;
  const Query* query_ = nullptr;

  Stage stage_ = Stage::kDone;
  // Join-order phase state.
  std::vector<std::unique_ptr<JoinTreeNode>> subtrees_;
  // Completed logical tree + post-order internal nodes.
  std::unique_ptr<JoinTreeNode> tree_;
  std::vector<const JoinTreeNode*> internal_nodes_;
  // Decisions.
  std::vector<int> access_choice_;   // per relation; -1 = expert decides
  std::vector<int> join_op_choice_;  // per internal node; -1 = expert
  int agg_choice_ = -1;
  // Cursors.
  int access_cursor_ = 0;
  int join_op_cursor_ = 0;
  PlanNodePtr final_plan_;
  /// TerminalReward's cached score; valid iff scored_.
  bool scored_ = false;
  double terminal_reward_ = 0.0;
  /// Query-static featurization scratch (mutable: StateVector is const but
  /// warms the cache). SetQuery starts a new binding. CloneSearch passes
  /// on only the binding token, not the contents: copying the map on every
  /// fork would cost more than it saves. TryCopySearchStateFrom keeps this
  /// env's own warm cache while it serves the same binding, and takes the
  /// source's contents along with a new binding, so a pooled env starts
  /// each search as warm as the env it copies.
  mutable FeaturizeCache feat_cache_;
};

}  // namespace hfq

#endif  // HFQ_CORE_FULL_ENV_H_
