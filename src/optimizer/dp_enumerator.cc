// Exhaustive join enumeration on the plan generator (plan_gen.h): a DP
// table with one plan-free entry (cost, rows, split) per subproblem,
// optimal w.r.t. the cost model over bushy trees. Components of at most
// kExhaustiveRelations relations walk every subset, cross products
// included; larger components enumerate connected subgraphs only.
// Disconnected queries are planned per connected component, then the
// component plans are cross-combined by an exact DP over components — the
// same restricted plan space the learned environments and GEQO search
// (components finish internally before any cross product), so DP stays
// the cost floor of the regret metrics. Queries whose join graphs exceed
// the subproblem budget yield ResourceExhausted, and Optimize falls back
// to GEQO.
#include <vector>

#include "optimizer/optimizer.h"
#include "optimizer/plan_gen.h"
#include "util/check.h"

namespace hfq {

Result<PlanNodePtr> TraditionalOptimizer::EnumerateDp(const Query& query) {
  HFQ_CHECK(query.num_relations() >= 2);
  PlanGenOptions gen_options;
  gen_options.max_subproblems = options_.dp_max_subproblems;
  PlanGenerator gen(this, query, gen_options);
  return gen.FindCheapestJoinPlan();
}

Result<PlanNodePtr> TraditionalOptimizer::EnumerateGreedy(
    const Query& query) {
  const int n = query.num_relations();
  HFQ_CHECK(n >= 2);
  // Greedy Operator Ordering: repeatedly join the pair with the smallest
  // estimated output, preferring predicate-connected pairs.
  std::vector<PlanNodePtr> forest;
  forest.reserve(static_cast<size_t>(n));
  for (int rel = 0; rel < n; ++rel) {
    forest.push_back(BestAccessPath(query, rel));
  }
  CardinalitySource* cards = cost_model_->cards();
  while (forest.size() > 1) {
    int best_i = -1, best_j = -1;
    double best_rows = 0.0;
    bool best_connected = false;
    for (size_t i = 0; i < forest.size(); ++i) {
      for (size_t j = i + 1; j < forest.size(); ++j) {
        bool connected =
            query.HasJoinBetween(forest[i]->rels, forest[j]->rels);
        if (best_connected && !connected) continue;
        double rows = cards->Rows(query, forest[i]->rels | forest[j]->rels);
        bool better = best_i < 0 || (connected && !best_connected) ||
                      rows < best_rows;
        if (better) {
          best_i = static_cast<int>(i);
          best_j = static_cast<int>(j);
          best_rows = rows;
          best_connected = connected;
        }
      }
    }
    PlanNodePtr joined = BestJoinEitherOrientation(
        query, std::move(forest[static_cast<size_t>(best_i)]),
        std::move(forest[static_cast<size_t>(best_j)]));
    forest.erase(forest.begin() + best_j);
    forest[static_cast<size_t>(best_i)] = std::move(joined);
  }
  return std::move(forest[0]);
}

}  // namespace hfq
