// Reward signals for plan-producing MDPs. The paper's three regimes:
//   * cost-model reward (ReJOIN: 1/M(t), or -log10 of the cost relative to
//     the expert's; also -log10 cost for the core experiments) — dense to
//     compute, biased by estimation error;
//   * latency reward — the "true" objective, expensive and differently
//     scaled;
//   * scaled latency (Section 5.2's formula): latency mapped linearly into
//     the cost range observed at the end of Phase 1,
//       r_l = Cmin + (l - Lmin)/(Lmax - Lmin) * (Cmax - Cmin),
//     so the reward regime switch does not shock the learner.
#ifndef HFQ_CORE_REWARD_H_
#define HFQ_CORE_REWARD_H_

#include <atomic>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/latency_model.h"
#include "optimizer/optimizer.h"
#include "plan/physical_plan.h"

namespace hfq {

/// Scores completed physical plans; higher reward = better plan.
/// Scoring is training work: an env calls Score only when a learner pulls
/// its terminal reward (Environment::TerminalReward), at most once per
/// episode, and never while it only plans — search ranks plans by the
/// cost annotation the env already gave them.
/// Implementations here are thread-safe: Score only touches per-call state
/// plus an atomic "last metric", so one signal instance may be shared by
/// concurrent rollout workers (LastMetric then reports *a* recent score,
/// which is only meaningful for single-threaded instrumentation).
class RewardSignal {
 public:
  virtual ~RewardSignal() = default;

  /// Reward for a finished plan. The cost rewards read the plan's
  /// est_cost, which the env's cost-model annotation already holds; the
  /// latency rewards read no estimate.
  virtual double Score(const Query& query, const PlanNode& plan) = 0;

  /// The raw metric (cost units or milliseconds) behind the last Score —
  /// for instrumentation and calibration.
  virtual double LastMetric() const = 0;

  virtual std::string name() const = 0;
};

/// reward = scale / cost — the ReJOIN case-study reward (1/M(t)).
class ReciprocalCostReward : public RewardSignal {
 public:
  explicit ReciprocalCostReward(double scale = 1e5) : scale_(scale) {}
  double Score(const Query& query, const PlanNode& plan) override;
  double LastMetric() const override { return last_cost_.load(); }
  std::string name() const override { return "reciprocal_cost"; }

 private:
  double scale_;
  std::atomic<double> last_cost_{0.0};
};

/// reward = -log10(cost) — a range-stable cost reward for the Section 5
/// experiments.
class NegLogCostReward : public RewardSignal {
 public:
  double Score(const Query& query, const PlanNode& plan) override;
  double LastMetric() const override { return last_cost_.load(); }
  std::string name() const override { return "neg_log_cost"; }

 private:
  std::atomic<double> last_cost_{0.0};
};

/// reward = -log10(cost / expert cost) — ReJOIN's reward made comparable
/// across queries: the same optimum per query as 1/M(t), but one policy
/// trained over a heterogeneous suite sees rewards on one scale (0 =
/// expert parity). The expert cost of every training query is priced at
/// construction, keyed by Query::ToSql() (exact structure identity), and
/// never written again, so concurrent rollout workers share the signal
/// without a lock; any other query is priced on the fly.
class ExpertRelativeCostReward : public RewardSignal {
 public:
  /// `expert` must outlive the signal.
  ExpertRelativeCostReward(TraditionalOptimizer* expert,
                           const std::vector<Query>& workload);
  double Score(const Query& query, const PlanNode& plan) override;
  double LastMetric() const override { return last_cost_.load(); }
  std::string name() const override { return "expert_relative_cost"; }

  /// The expert plan's cost for `query`, floored at 1.
  double ExpertCost(const Query& query) const;

 private:
  double PriceExpert(const Query& query) const;

  TraditionalOptimizer* expert_;
  std::unordered_map<std::string, double> expert_cost_;
  std::atomic<double> last_cost_{0.0};
};

/// reward = -log10(simulated latency ms) — the "true" objective.
class NegLogLatencyReward : public RewardSignal {
 public:
  /// `simulator` must outlive the signal.
  explicit NegLogLatencyReward(LatencySimulator* simulator);
  double Score(const Query& query, const PlanNode& plan) override;
  double LastMetric() const override { return last_latency_ms_.load(); }
  std::string name() const override { return "neg_log_latency"; }

 private:
  LatencySimulator* simulator_;
  std::atomic<double> last_latency_ms_{0.0};
};

/// Section 5.2's reward scaling: latency is linearly mapped into the
/// cost range observed during Phase 1 before the -log10. Uncalibrated
/// instances behave like NegLogLatencyReward.
class ScaledLatencyReward : public RewardSignal {
 public:
  explicit ScaledLatencyReward(LatencySimulator* simulator);

  /// Installs the Phase-1 observation ranges (paper: Cmin/Cmax are the
  /// min/max observed optimizer costs, Lmin/Lmax the min/max observed
  /// latencies near the end of Phase 1).
  void Calibrate(double cost_min, double cost_max, double latency_min,
                 double latency_max);

  bool calibrated() const { return calibrated_; }

  /// The scaled value r_l for a raw latency (exposed for tests).
  double ScaleLatency(double latency_ms) const;

  double Score(const Query& query, const PlanNode& plan) override;
  double LastMetric() const override { return last_latency_ms_.load(); }
  std::string name() const override { return "scaled_latency"; }

 private:
  LatencySimulator* simulator_;
  bool calibrated_ = false;
  double cost_min_ = 0.0, cost_max_ = 1.0;
  double latency_min_ = 0.0, latency_max_ = 1.0;
  std::atomic<double> last_latency_ms_{0.0};
};

}  // namespace hfq

#endif  // HFQ_CORE_REWARD_H_
