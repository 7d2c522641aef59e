// The exhaustive join enumerator behind TraditionalOptimizer's DP. Each
// subproblem (a relation set) keeps one plan-free entry: the cost and rows
// of the cheapest way found to join it, and the split (outer, inner) that
// achieves it; singletons hold their relation's access path. Pricing a
// split runs the optimizer's PriceJoin on the two entries, so no PlanNode
// is built or cloned per candidate: the plan tree is built once, at the
// end, by recursing over the stored splits through BestJoin. PriceJoin's
// inputs come from tables built once per query (per-relation neighbour
// masks and INLJ probe candidates), so a split allocates nothing.
//
// Join cost is monotone in child cost and insensitive to input orderings
// (merge join always charges both sorts), so one cheapest entry per
// subproblem is exact. An explicit budget turns an infeasibly dense plan
// space into a ResourceExhausted error instead of an open-ended walk.
#ifndef HFQ_OPTIMIZER_PLAN_GEN_H_
#define HFQ_OPTIMIZER_PLAN_GEN_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "optimizer/optimizer.h"
#include "plan/physical_plan.h"
#include "plan/query.h"
#include "plan/relset.h"
#include "util/status.h"

namespace hfq {

/// Join-graph components of at most this many relations walk every subset,
/// internally-disconnected ones included (they get cross-product plans when
/// no predicate-connected split exists, like PostgreSQL's clauseless
/// joins); larger components enumerate connected subgraphs only. The
/// cross products earn their Theta(3^n) walk: on the 98 plan_cold
/// benchmark queries (4-10 relations, all 7 topologies), connected-only
/// enumeration gives a strictly costlier plan on 17, up to 35% costlier
/// (snowflake-8: 84.4 vs 114.1).
inline constexpr int kExhaustiveRelations = 12;

/// Budgets for the plan generator. A query inducing more DP subproblems
/// (plus, for a disconnected join graph, 2^components cross-combination
/// states) than `max_subproblems` is not exhaustively plannable at this
/// budget: FindCheapestJoinPlan returns ResourceExhausted (callers fall
/// back to GEQO).
struct PlanGenOptions {
  int64_t max_subproblems = 20000;
};

/// Counters describing one enumeration run.
struct PlanGenStats {
  int64_t subproblems = 0;  // Subproblems materialized.
};

/// Exhaustive-within-budget join enumeration. Operator and orientation
/// choice use the optimizer's PriceJoin, the same rules BestJoin applies.
class PlanGenerator {
 public:
  /// `optimizer` and `query` must outlive the generator.
  PlanGenerator(TraditionalOptimizer* optimizer, const Query& query,
                PlanGenOptions options = PlanGenOptions());

  /// Runs the enumeration and returns the cheapest plan joining all
  /// relations, or ResourceExhausted when the query exceeds the budget.
  /// The query must have at least 2 relations.
  Result<PlanNodePtr> FindCheapestJoinPlan();

  const PlanGenStats& stats() const { return stats_; }

  /// All connected subsets of the query's join graph, ascending by mask
  /// value, stopping early (returning ResourceExhausted) as soon as more
  /// than `max_subproblems` exist. Exposed for tests and benchmarks.
  static Result<std::vector<RelSet>> ConnectedSubsets(
      const Query& query, int64_t max_subproblems);

 private:
  /// The cheapest way found to join one relation set. Singletons have
  /// outer == inner == 0; their plan is the relation's access path.
  struct Entry {
    double cost = 0.0;
    double rows = 0.0;
    RelSet outer = 0;
    RelSet inner = 0;
  };

  /// Prices both orientations of joining `s1` and `s2` (with table
  /// entries `e1`, `e2`; `connected` if a join predicate links them) into
  /// a set of `rows` rows (`s1` as outer first, so a cost tie keeps that
  /// orientation) and records the split in `best` if strictly cheaper.
  void OfferSplit(RelSet s1, const Entry& e1, RelSet s2, const Entry& e2,
                  bool connected, double rows, Entry* best) const;

  /// Builds the plan for `s` from the stored splits.
  PlanNodePtr Build(RelSet s);

  TraditionalOptimizer* optimizer_;
  const Query& query_;
  PlanGenOptions options_;
  PlanGenStats stats_;
  std::unordered_map<RelSet, Entry> table_;
  std::vector<PlanNodePtr> access_;  // Per relation, moved out by Build.
  // Per relation, its probe candidates over every join predicate touching
  // it, so pricing a split needs no predicate list.
  std::vector<std::vector<TraditionalOptimizer::ProbeCandidate>> probes_;
};

}  // namespace hfq

#endif  // HFQ_OPTIMIZER_PLAN_GEN_H_
