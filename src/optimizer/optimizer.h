// The traditional ("expert") query optimizer: a PostgreSQL-style pipeline of
// join-order enumeration (System-R DP up to geqo_threshold relations,
// genetic search beyond — like Postgres' GEQO), access-path selection,
// join-operator selection, and aggregate-operator selection, all driven by
// the cost model. Join-operator selection has one set of rules, PriceJoin:
// the DP prices candidate splits with it without building plans, and
// BestJoin builds the chosen operator. Plays three roles from the paper:
//   * the baseline ReJOIN is compared against (Fig 3a/3b/3c),
//   * the demonstration "expert" for learning-from-demonstration (Sec 5.1),
//   * the provider of traditional later-pipeline stages during incremental
//     pipeline training (Sec 5.3.1).
#ifndef HFQ_OPTIMIZER_OPTIMIZER_H_
#define HFQ_OPTIMIZER_OPTIMIZER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "cost/cost_model.h"
#include "plan/join_tree.h"
#include "plan/physical_plan.h"
#include "util/rng.h"
#include "util/status.h"

namespace hfq {

/// Planner knobs (names follow the PostgreSQL settings they mirror).
struct OptimizerOptions {
  OptimizerOptions() {}
  /// Use exhaustive DP for queries with at most this many relations;
  /// genetic search (GEQO) beyond.
  int geqo_threshold = 12;
  /// DP subproblem budget (plan_gen.h). A join graph inducing more DP
  /// subproblems (plus 2^k cross-combination states for k disconnected
  /// components) than this makes EnumerateDp return ResourceExhausted and
  /// Optimize fall back to GEQO; sparse graphs (chains/snowflakes) stay
  /// exact far past the 3^n wall (a 20-relation chain induces only 210).
  int64_t dp_max_subproblems = 20000;
  bool enable_indexscan = true;
  bool enable_hashjoin = true;
  bool enable_mergejoin = true;
  bool enable_nestloop = true;
  bool enable_indexnestloop = true;
  /// GEQO parameters.
  int geqo_pool_size = 128;
  int geqo_generations = 300;
  uint64_t geqo_seed = 0x5EED5EED;
};

/// Cost-based optimizer over a catalog + cost model.
class TraditionalOptimizer {
 public:
  /// `catalog` and `cost_model` must outlive the optimizer.
  TraditionalOptimizer(const Catalog* catalog, CostModel* cost_model,
                       OptimizerOptions options = OptimizerOptions());

  /// Full pipeline: join order + access paths + join operators + aggregate
  /// operator. Returns an annotated plan.
  Result<PlanNodePtr> Optimize(const Query& query);

  /// Performs everything *except* join ordering: physicalizes the given
  /// logical join tree (access paths, join operators, aggregate operator),
  /// preserving the tree's shape and child orientation. This is what a
  /// learned join enumerator (ReJOIN) delegates to the traditional
  /// optimizer (paper Section 3: "the final join ordering is sent to the
  /// optimizer to perform operator selection, index selection, etc.").
  Result<PlanNodePtr> PhysicalizeJoinTree(const Query& query,
                                          const JoinTreeNode& tree);

  /// Cheapest access path (seq scan vs available index scans) for one
  /// relation, annotated.
  PlanNodePtr BestAccessPath(const Query& query, int rel);

  /// One join input as operator selection sees it.
  struct JoinInput {
    RelSet rels = 0;
    double rows = 0.0;
    double cost = 0.0;
    bool is_scan = false;  // Only a base-scan inner can be an INLJ probe.
  };

  /// The operator chosen for one join orientation, and its price.
  struct JoinChoice {
    PhysicalOp op = PhysicalOp::kNestedLoopJoin;
    int probe_pred = -1;  // INLJ: the join predicate driving the probe.
    IndexKind inner_index_kind = IndexKind::kBTree;
    double rows = 0.0;  // Output rows.
    double cost = 0.0;
  };

  /// One way an index nested-loop join can probe base relation `rel`:
  /// join predicate `pred` links `rel` to relation `other`, and `rel`'s
  /// join column has an index of `kind`.
  struct ProbeCandidate {
    int pred = -1;
    IndexKind kind = IndexKind::kHash;
    int other = -1;
  };

  /// `rel`'s probe candidates among the join predicates `preds` (indices
  /// in ascending order, each with exactly one side on `rel`): one per
  /// predicate whose `rel`-side column is indexed, in `preds` order, with
  /// a hash index preferred over a B-tree.
  std::vector<ProbeCandidate> ProbeCandidates(
      const Query& query, int rel, const std::vector<int>& preds) const;

  /// The pricing half of BestJoin: picks the cheapest join operator for
  /// `outer` joined with `inner` in that orientation, without building a
  /// plan. `connected` says whether a join predicate links the two inputs;
  /// `inner_probes` holds the probe candidates of the inner relation when
  /// it is a base scan (candidates whose `other` is not in `outer.rels`
  /// are skipped, so a relation's full list may be passed); `out_rows` is
  /// the estimated rows of the union.
  JoinChoice PriceJoin(const Query& query, bool connected,
                       std::span<const ProbeCandidate> inner_probes,
                       const JoinInput& outer, const JoinInput& inner,
                       double out_rows) const;

  /// Cheapest join operator for fixed children/orientation, annotated.
  /// The inputs must be annotated.
  PlanNodePtr BestJoin(const Query& query, PlanNodePtr outer,
                       PlanNodePtr inner);

  /// Prices both orientations and builds the cheaper (ties: `a` outer).
  PlanNodePtr BestJoinEitherOrientation(const Query& query, PlanNodePtr a,
                                        PlanNodePtr b);

  /// Adds the cheaper of hash/sort aggregation when the query aggregates.
  PlanNodePtr AddAggregateIfNeeded(const Query& query, PlanNodePtr input);

  const OptimizerOptions& options() const { return options_; }
  CostModel* cost_model() { return cost_model_; }
  const Catalog* catalog() const { return catalog_; }

 private:
  /// ProbeCandidates of `inner` as the inner of a join on `preds`; empty
  /// unless `inner` is a base scan.
  std::vector<ProbeCandidate> InnerProbes(const Query& query,
                                          const std::vector<int>& preds,
                                          const PlanNode& inner) const;

  /// The build half of BestJoin: the annotated join node for `choice`.
  PlanNodePtr BuildJoin(const Query& query, const JoinChoice& choice,
                        std::vector<int> preds, PlanNodePtr outer,
                        PlanNodePtr inner);

  Result<PlanNodePtr> EnumerateDp(const Query& query);
  Result<PlanNodePtr> EnumerateGeqo(const Query& query);
  Result<PlanNodePtr> EnumerateGreedy(const Query& query);

  /// Builds a plan from a relation permutation by greedy connected
  /// attachment (Postgres gimme_tree); shared by GEQO fitness and decoding.
  PlanNodePtr PlanFromPermutation(const Query& query,
                                  const std::vector<int>& perm);

  const Catalog* catalog_;
  CostModel* cost_model_;
  OptimizerOptions options_;
};

}  // namespace hfq

#endif  // HFQ_OPTIMIZER_OPTIMIZER_H_
