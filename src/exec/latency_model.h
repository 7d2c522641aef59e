// The analytic latency simulator: charges each physical operator wall-clock
// milliseconds as a function of *true* cardinalities (from the oracle).
// This is the experiment-critical substitution for "execute the plan on the
// testbed and measure": catastrophically bad plans receive their true,
// enormous latencies in O(plan size) simulation time.
//
// The simulator deliberately disagrees with the cost model in systematic
// ways (beyond cardinality errors):
//   * random pages are ~2x a sequential page here vs 4x in the cost model —
//     the cost model under-uses index-driven plans, an exploitable
//     "systemic error of the expert" (paper Section 5.1);
//   * spills are harsher (cliff at a lower tuple budget, bigger factor) —
//     the cost model under-penalizes huge hash builds;
//   * simulated latency's scale/units differ from cost units entirely
//     (the Section 5.2 range-mismatch problem that reward scaling fixes).
#ifndef HFQ_EXEC_LATENCY_MODEL_H_
#define HFQ_EXEC_LATENCY_MODEL_H_

#include "catalog/catalog.h"
#include "plan/physical_plan.h"
#include "stats/cardinality.h"

namespace hfq {

/// Millisecond charges per unit of work.
struct LatencyParams {
  LatencyParams() {}
  double ms_per_seq_page = 0.010;
  double ms_per_random_page = 0.020;
  double ms_per_tuple_cpu = 0.00010;
  double ms_per_filter_eval = 0.00004;
  double ms_hash_build_tuple = 0.00020;
  double ms_hash_probe_tuple = 0.00010;
  double ms_sort_tuple_log = 0.00003;
  double ms_nlj_compare = 0.00002;
  double ms_output_tuple = 0.00005;
  double ms_index_descend_per_level = 0.00040;
  double ms_startup = 0.5;
  /// Hash/sort state beyond this many tuples spills.
  double work_mem_tuples = 80000.0;
  double spill_factor = 8.0;
  /// Lognormal execution noise (sigma of log); deterministic per
  /// (query, plan) so experiments are reproducible. 0 disables.
  double noise_sigma = 0.03;
};

/// Computes simulated latencies for physical plans.
class LatencySimulator {
 public:
  /// `catalog` and `cards` must outlive the simulator. `cards` should be a
  /// TrueCardinalityOracle for honest latencies (an estimator here would
  /// just re-derive the cost model's beliefs).
  LatencySimulator(const Catalog* catalog, CardinalitySource* cards,
                   LatencyParams params = LatencyParams());

  /// Simulated wall-clock milliseconds for the plan. Const (no simulator
  /// state): safe to call from any number of threads concurrently as long
  /// as the cardinality source is (the oracle and the estimator are).
  double SimulateMs(const Query& query, const PlanNode& plan) const;

  const LatencyParams& params() const { return params_; }

 private:
  struct NodeResult {
    double ms = 0.0;
    double rows = 0.0;
  };
  NodeResult Simulate(const Query& query, const PlanNode& node) const;
  double TablePages(const Query& query, int rel) const;

  const Catalog* catalog_;
  CardinalitySource* cards_;
  LatencyParams params_;
};

}  // namespace hfq

#endif  // HFQ_EXEC_LATENCY_MODEL_H_
