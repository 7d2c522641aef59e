// Incremental learning (paper Section 5.3): curricula that decompose query
// optimization along the two complexity axes of Figure 6 — pipeline stages
// and relation count — yielding the Pipeline, Relations, and Hybrid
// decompositions of Figure 7 (plus Flat, the no-curriculum baseline).
#ifndef HFQ_CORE_INCREMENTAL_H_
#define HFQ_CORE_INCREMENTAL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/full_env.h"
#include "rl/policy_gradient.h"
#include "rl/rollout.h"
#include "workload/generator.h"

namespace hfq {

/// The decomposition strategies of Figure 7 (+ flat baseline).
enum class CurriculumKind { kFlat, kPipeline, kRelations, kHybrid };

const char* CurriculumKindName(CurriculumKind kind);

/// One curriculum phase: which pipeline stages the agent owns, the maximum
/// relation count of training queries, and its episode budget.
struct CurriculumPhase {
  PipelineStages stages;
  int max_relations = kMaxRelations;
  int episodes = 0;
  std::string label;
};

/// Splits `total` across weights.size() buckets proportionally to the
/// (non-negative, positive-sum) weights using deterministic
/// largest-remainder rounding, so the result always sums to exactly
/// `total`. When total >= weights.size(), every bucket additionally gets at
/// least 1 (episodes are shifted from the largest bucket).
std::vector<int> DistributeEpisodes(const std::vector<double>& weights,
                                    int total);

/// Expands a curriculum kind into concrete phases.
///   kFlat:      one phase, all stages, all sizes.
///   kPipeline:  Figure 8 — stage prefixes grow (join order -> +index ->
///               +join ops -> +agg), all sizes each phase.
///   kRelations: Figure 9 — all stages from the start, relation count grows
///               from 2 to max.
///   kHybrid:    stages and sizes grow together, then sizes keep growing.
/// Phase episode budgets always sum to exactly `total_episodes`
/// (largest-remainder distribution over the per-kind weights).
std::vector<CurriculumPhase> BuildCurriculum(CurriculumKind kind,
                                             int total_episodes,
                                             int max_relations);

/// Per-episode diagnostics.
struct CurriculumEpisodeStats {
  int global_episode = 0;
  int phase_index = 0;
  std::string query_name;
  double reward = 0.0;
};

/// Trains one PolicyGradientAgent through a curriculum over a
/// FullPipelineEnv. Workloads are drawn per phase from the generator so
/// each phase sees queries matching its relation cap.
class IncrementalTrainer {
 public:
  /// `env` and `generator` must outlive the trainer. With
  /// `num_rollout_workers` > 1 each update batch is collected in parallel
  /// on that many workers (rl/rollout.h); a fixed (seed, worker count) is
  /// deterministic and 1 worker matches the serial trajectories
  /// bit-for-bit.
  IncrementalTrainer(FullPipelineEnv* env, WorkloadGenerator* generator,
                     PolicyGradientConfig pg, int episodes_per_update,
                     uint64_t seed, int num_rollout_workers = 1);

  /// Runs all phases; `on_episode` fires per episode (in episode order; in
  /// parallel mode, after the episode's batch finished collecting). Each
  /// phase flushes its trailing partial batch, so no update mixes two
  /// phases' stage regimes.
  Status Run(const std::vector<CurriculumPhase>& phases,
             int queries_per_phase,
             const std::function<void(const CurriculumEpisodeStats&)>&
                 on_episode = nullptr);

  PolicyGradientAgent& agent() { return agent_; }

 private:
  FullPipelineEnv* env_;
  WorkloadGenerator* generator_;
  PolicyGradientAgent agent_;
  RolloutLoop<FullPipelineEnv> rollouts_;
  int global_episode_ = 0;
};

}  // namespace hfq

#endif  // HFQ_CORE_INCREMENTAL_H_
