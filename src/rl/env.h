// The reinforcement-learning environment interface (states, masked discrete
// actions, pull-based terminal rewards) of the plan-building MDP
// (core/full_env.h), plus the branchable extension (SearchEnv) that
// plan-time search (src/search) builds on.
#ifndef HFQ_RL_ENV_H_
#define HFQ_RL_ENV_H_

#include <memory>
#include <vector>

namespace hfq {

/// Result of Environment::Step.
struct StepResult {
  bool done = false;
};

/// A fixed-dimensional episodic environment with per-state action masking.
/// Lifecycle: Reset() -> [StateVector/ActionMask -> Step(a)]* until
/// Step returns done, then TerminalReward() if the caller learns from the
/// episode.
///
/// Terminal rewards are pulled, not pushed: every intermediate step pays
/// zero, and the only nonzero reward is the finished episode's, which
/// Step never computes. A learner asks for it once per episode; a planner
/// that only needs the finished plan never asks and so never pays for the
/// score (for the latency reward, a true-cardinality simulation).
class Environment {
 public:
  virtual ~Environment() = default;

  /// Begins a new episode (the concrete env decides what "new" means, e.g.
  /// the next query of a workload).
  virtual void Reset() = 0;

  /// Dimensionality of StateVector().
  virtual int state_dim() const = 0;

  /// Size of the (fixed) action space; invalid actions are masked.
  virtual int action_dim() const = 0;

  /// Current state featurization.
  virtual std::vector<double> StateVector() const = 0;

  /// mask[a] == true iff action a is currently selectable. At least one
  /// action must be valid unless the episode is done.
  virtual std::vector<bool> ActionMask() const = 0;

  /// Applies action `a` (must be valid) and returns whether the episode
  /// ended. Only advances the episode: it never scores it.
  virtual StepResult Step(int action) = 0;

  /// True once the episode has terminated.
  virtual bool Done() const = 0;

  /// Reward of the finished episode (valid once Done()). The first call
  /// scores the episode and caches the value; later calls, and copies of
  /// a scored env, return the cached value without scoring again.
  virtual double TerminalReward() = 0;
};

/// An Environment that plan-time search can branch. Beyond the episodic
/// contract above, a SearchEnv can fork the in-flight episode prefix
/// (CloneSearch) so a searcher may expand several continuations of the
/// same partial plan, and it scores its finished episode with a
/// minimization objective (FinalCost) so different rollouts of one query
/// are comparable. Reset() restarts the *current* query from scratch,
/// which is how multi-rollout searchers (best-of-K) re-run an episode.
class SearchEnv : public Environment {
 public:
  /// Deep copy of this env including the in-flight episode state (same
  /// query, same partial-plan prefix, and the terminal reward if it was
  /// already scored). Collaborators (featurizers, cost models, reward
  /// signals) are shared, not copied; the clone is an independent
  /// single-threaded object on top of the thread-safe shared substrate, so
  /// clones may step on different threads.
  virtual std::unique_ptr<SearchEnv> CloneSearch() const = 0;

  /// Scalar score of the finished episode, lower is better (valid once
  /// Done()). Concrete envs define the unit: the full-pipeline env reports
  /// the final plan's cost-model cost and never scores the episode.
  virtual double FinalCost() = 0;

  /// Pool-reuse hook: overwrite this env's in-flight episode state (the
  /// cached terminal reward included) with a copy of `other`'s, reusing
  /// this object's existing allocations where possible, and return
  /// true — or return false when `other` is not a
  /// compatible env (different concrete type or different shared
  /// collaborators), in which case this env is left unchanged and the
  /// caller must fall back to CloneSearch(). Lets searchers recycle env
  /// objects from a free list instead of allocating a fresh deep clone per
  /// expanded node. The default declines, so the hook is strictly an
  /// optimization: semantics always match CloneSearch().
  virtual bool TryCopySearchStateFrom(const SearchEnv& other) {
    (void)other;
    return false;
  }
};

}  // namespace hfq

#endif  // HFQ_RL_ENV_H_
