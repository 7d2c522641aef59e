// The ReJOIN MDP (paper Section 3): an episode per query; states are sets
// of join subtrees; action (x, y) joins subtrees x and y; the terminal
// reward scores the completed join ordering (1/cost in the case study)
// when the learner pulls it.
#ifndef HFQ_REJOIN_JOIN_ENV_H_
#define HFQ_REJOIN_JOIN_ENV_H_

#include <functional>
#include <memory>
#include <vector>

#include "rejoin/featurizer.h"
#include "rl/env.h"

namespace hfq {

/// Scores a finished join tree; the environment's terminal reward,
/// evaluated on the first TerminalReward() call of an episode.
using JoinRewardFn =
    std::function<double(const Query& query, const JoinTreeNode& tree)>;

/// Environment knobs.
struct JoinEnvConfig {
  JoinEnvConfig() {}
  /// When false (default, like ReJOIN implementations), actions that form
  /// cross products are masked out unless no predicate-connected pair
  /// exists. When true the full ReJOIN action set (every ordered pair) is
  /// always available — used by the naive-search-space experiments.
  bool allow_cross_products = false;
};

/// Join-order-enumeration environment. Action id = x * max_relations + y:
/// join subtree at slot x (becomes the outer/left child) with subtree at
/// slot y. After the action the merged tree sits at slot min(x, y) and the
/// other slot is vacated (slots compact, ReJOIN's shrinking subtree list).
class JoinOrderEnv : public SearchEnv {
 public:
  /// `featurizer` and `reward_fn` must outlive the env.
  JoinOrderEnv(RejoinFeaturizer* featurizer, JoinRewardFn reward_fn,
               JoinEnvConfig config = JoinEnvConfig());

  /// Selects the query for subsequent episodes; call before Reset.
  void SetQuery(const Query* query);

  void Reset() override;
  int state_dim() const override;
  int action_dim() const override;
  std::vector<double> StateVector() const override;
  std::vector<bool> ActionMask() const override;
  StepResult Step(int action) override;
  bool Done() const override;

  /// reward_fn of the finished join tree, evaluated on the first call of
  /// the episode. A trivial episode that was never stepped (single
  /// relation) scores 0.
  double TerminalReward() override;

  /// Forks the in-flight episode (same query, deep-cloned subtrees, the
  /// cached terminal reward); featurizer and reward fn are shared. Enables
  /// prefix expansion by the plan-search layer.
  std::unique_ptr<SearchEnv> CloneSearch() const override;

  /// -TerminalReward() (reward_fn is higher-is-better; search minimizes):
  /// this env's reward is its cost, so search does score its episodes.
  double FinalCost() override;

  /// Pool reuse: becomes a copy of `other` (wiring included) while keeping
  /// this object's vector capacity; false iff `other` is not a
  /// JoinOrderEnv. Semantics match CloneSearch exactly.
  bool TryCopySearchStateFrom(const SearchEnv& other) override;

  /// The finished join tree (valid once Done()).
  const JoinTreeNode* FinalTree() const;

  /// Live subtrees (slot order).
  std::vector<const JoinTreeNode*> Subtrees() const;

  const Query* query() const { return query_; }

  /// Decodes an action id into (x, y) slots.
  std::pair<int, int> DecodeAction(int action) const;

  /// Encodes (x, y) slots into an action id.
  int EncodeAction(int x, int y) const;

 private:
  RejoinFeaturizer* featurizer_;
  JoinRewardFn reward_fn_;
  JoinEnvConfig config_;
  const Query* query_ = nullptr;
  std::vector<std::unique_ptr<JoinTreeNode>> subtrees_;
  bool done_ = true;
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

#endif  // HFQ_REJOIN_JOIN_ENV_H_
