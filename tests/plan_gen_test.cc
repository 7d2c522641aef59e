// Tests for the plan generator (src/optimizer/plan_gen.{h,cc}):
// connected-subgraph enumeration counts and budgets, the property that the
// generator's cheapest plan equals, node for node, an in-test
// old-semantics exhaustive DPsize reference across every topology at
// 4..10 relations, the same check against a connected-only reference
// above kExhaustiveRelations, and large-join behavior (sparse graphs plan
// exactly where the old 3^n enumerator was infeasible; dense graphs and
// many-component cross products degrade to a clean ResourceExhausted /
// GEQO fallback).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <string>
#include <vector>

#include "optimizer/optimizer.h"
#include "optimizer/plan_gen.h"
#include "plan/relset.h"
#include "sql/parser.h"
#include "tests/test_common.h"
#include "workload/generator.h"

namespace hfq {
namespace {

// --- Connected-subgraph enumeration ------------------------------------

class PlanGenTest : public ::testing::Test {
 protected:
  Engine& engine() { return testing::SharedEngine(); }
  TraditionalOptimizer& expert() { return engine().expert(); }

  Query TopologyQuery(JoinTopology topology, int n, uint64_t seed) {
    WorkloadGenerator gen(&engine().catalog(), seed);
    auto q = gen.GenerateTopologyQuery(
        topology, n,
        std::string("pg_") + JoinTopologyName(topology) + "_r" +
            std::to_string(n) + "_s" + std::to_string(seed));
    HFQ_CHECK(q.ok());
    return std::move(*q);
  }
};

TEST_F(PlanGenTest, ConnectedSubsetCountsMatchClosedForms) {
  // Path graph on n vertices: n*(n+1)/2 connected subsets (contiguous
  // runs). Star on n: the n singletons plus every subset containing the
  // hub (2^(n-1) including the hub alone) minus the double-counted hub
  // singleton.
  Query chain = TopologyQuery(JoinTopology::kChain, 6, 11);
  auto chain_subsets = PlanGenerator::ConnectedSubsets(chain, 100000);
  ASSERT_TRUE(chain_subsets.ok());
  EXPECT_EQ(chain_subsets->size(), 21u);
  Query star = TopologyQuery(JoinTopology::kStar, 6, 12);
  auto star_subsets = PlanGenerator::ConnectedSubsets(star, 100000);
  ASSERT_TRUE(star_subsets.ok());
  EXPECT_EQ(star_subsets->size(), 37u);
  // Sorted ascending: every subset appears after all of its subsets.
  for (size_t i = 1; i < chain_subsets->size(); ++i) {
    EXPECT_LT((*chain_subsets)[i - 1], (*chain_subsets)[i]);
  }
}

TEST_F(PlanGenTest, ConnectedSubsetsHonorsBudget) {
  Query clique = TopologyQuery(JoinTopology::kClique, 10, 13);
  // A 10-clique has 2^10 - 11 + 10... more than 30 connected subsets in
  // any case; a budget of 30 must trip.
  auto subsets = PlanGenerator::ConnectedSubsets(clique, 30);
  ASSERT_FALSE(subsets.ok());
  EXPECT_EQ(subsets.status().code(), StatusCode::kResourceExhausted);
}

// --- Plan generator == exhaustive DP (the property test) ----------------

// In-test reference: the pre-plan_gen DPsize semantics over one connected
// component — EVERY submask (internally-disconnected ones included),
// predicate-connected splits first, cross-product splits only for
// clauseless subsets. Returns the cheapest plan per submask.
std::map<RelSet, PlanNodePtr> ReferenceComponentTable(
    TraditionalOptimizer* opt, const Query& query, RelSet comp) {
  std::vector<RelSet> masks;
  for (RelSet s = comp; s != 0; s = (s - 1) & comp) masks.push_back(s);
  // Ascending numeric order: a proper submask is numerically smaller, so
  // children are always planned before parents.
  std::sort(masks.begin(), masks.end());
  std::map<RelSet, PlanNodePtr> table;
  for (RelSet mask : masks) {
    if (RelSetCount(mask) == 1) {
      table[mask] = opt->BestAccessPath(query, std::countr_zero(mask));
      continue;
    }
    PlanNodePtr best;
    auto consider = [&](RelSet s1) {
      const RelSet s2 = mask & ~s1;
      PlanNodePtr cand = opt->BestJoinEitherOrientation(
          query, table[s1]->Clone(), table[s2]->Clone());
      if (best == nullptr || cand->est_cost < best->est_cost) {
        best = std::move(cand);
      }
    };
    for (RelSet s1 = (mask - 1) & mask; s1 != 0; s1 = (s1 - 1) & mask) {
      const RelSet s2 = mask & ~s1;
      if (s1 > s2) continue;  // Each split once; orientation is explored.
      if (query.JoinPredsBetween(s1, s2).empty()) continue;
      consider(s1);
    }
    if (best == nullptr) {
      for (RelSet s1 = (mask - 1) & mask; s1 != 0; s1 = (s1 - 1) & mask) {
        if (s1 > (mask & ~s1)) continue;
        consider(s1);  // Clauseless: cross products.
      }
    }
    HFQ_CHECK(best != nullptr);
    table[mask] = std::move(best);
  }
  return table;
}

// Reference for a whole (possibly disconnected) query: per-component
// DPsize tables, then the exact cross-combination DP over components the
// production enumerator uses. Returns the cheapest plan.
PlanNodePtr ReferenceCheapestPlan(TraditionalOptimizer* opt,
                                  const Query& query) {
  const int n = query.num_relations();
  const RelSet all = RelSetAll(n);
  // Connected components of the join graph.
  std::vector<RelSet> components;
  RelSet remaining = all;
  while (remaining != 0) {
    RelSet comp = RelSetOf(std::countr_zero(remaining));
    for (;;) {
      RelSet next = comp;
      for (int rel = 0; rel < n; ++rel) {
        if (RelSetHas(comp, rel)) continue;
        if (!query.JoinPredsBetween(comp, RelSetOf(rel)).empty()) {
          next = RelSetUnion(next, RelSetOf(rel));
        }
      }
      if (next == comp) break;
      comp = next;
    }
    components.push_back(comp);
    remaining &= ~comp;
  }
  std::vector<PlanNodePtr> comp_best;
  for (RelSet comp : components) {
    auto table = ReferenceComponentTable(opt, query, comp);
    comp_best.push_back(std::move(table[comp]));
  }
  if (comp_best.size() == 1) return std::move(comp_best[0]);
  // Cross-combine whole components (DP over component masks).
  const size_t k = comp_best.size();
  std::vector<PlanNodePtr> combo(size_t{1} << k);
  for (size_t i = 0; i < k; ++i) combo[size_t{1} << i] = std::move(comp_best[i]);
  for (size_t mask = 1; mask < combo.size(); ++mask) {
    if ((mask & (mask - 1)) == 0) continue;  // Singletons seeded above.
    PlanNodePtr best;
    for (size_t s1 = (mask - 1) & mask; s1 != 0; s1 = (s1 - 1) & mask) {
      const size_t s2 = mask & ~s1;
      if (s1 > s2) continue;
      PlanNodePtr cand = opt->BestJoinEitherOrientation(
          query, combo[s1]->Clone(), combo[s2]->Clone());
      if (best == nullptr || cand->est_cost < best->est_cost) {
        best = std::move(cand);
      }
    }
    combo[mask] = std::move(best);
  }
  return std::move(combo.back());
}

// Node-for-node plan equality: operator, orientation (each child's
// relation set), access path, predicates, and the cost-model annotations.
void ExpectSamePlan(const PlanNode& got, const PlanNode& want,
                    const std::string& where) {
  EXPECT_EQ(got.op, want.op) << where;
  EXPECT_EQ(got.rels, want.rels) << where;
  EXPECT_EQ(got.rel_idx, want.rel_idx) << where;
  EXPECT_EQ(got.index_kind, want.index_kind) << where;
  EXPECT_EQ(got.index_column, want.index_column) << where;
  EXPECT_EQ(got.index_sel_idx, want.index_sel_idx) << where;
  EXPECT_EQ(got.filter_sel_idxs, want.filter_sel_idxs) << where;
  EXPECT_EQ(got.join_pred_idxs, want.join_pred_idxs) << where;
  EXPECT_EQ(got.inner_probe_pred_idx, want.inner_probe_pred_idx) << where;
  EXPECT_EQ(got.est_rows, want.est_rows) << where;
  EXPECT_EQ(got.est_cost, want.est_cost) << where;
  ASSERT_EQ(got.children.size(), want.children.size()) << where;
  for (size_t i = 0; i < got.children.size(); ++i) {
    ExpectSamePlan(*got.child(i), *want.child(i),
                   where + "/" + std::to_string(i));
  }
}

// Join nodes of `plan` by kind: index nested-loop joins (whose inner is a
// base relation) and clauseless cross products (no join predicate).
void CountSpecialJoins(const PlanNode& plan, int* inlj, int* cross) {
  if (plan.IsJoin()) {
    if (plan.op == PhysicalOp::kIndexNestedLoopJoin) {
      EXPECT_TRUE(plan.child(1)->IsScan());
      ++*inlj;
    }
    if (plan.join_pred_idxs.empty()) ++*cross;
  }
  for (size_t i = 0; i < plan.children.size(); ++i) {
    CountSpecialJoins(*plan.child(i), inlj, cross);
  }
}

TEST_F(PlanGenTest, PrunedCheapestCostMatchesExhaustiveReference) {
  // Every plan_cold cell: 7 topologies x 4..10 relations.
  const JoinTopology topologies[] = {
      JoinTopology::kChain,  JoinTopology::kStar,
      JoinTopology::kClique, JoinTopology::kSnowflake,
      JoinTopology::kCyclic, JoinTopology::kDisconnected,
      JoinTopology::kRandom};
  uint64_t seed = 700;
  int inlj = 0;
  int cross = 0;
  for (JoinTopology topology : topologies) {
    for (int n = 4; n <= 10; ++n) {
      Query query = TopologyQuery(topology, n, ++seed);
      const PlanNodePtr reference = ReferenceCheapestPlan(&expert(), query);
      PlanGenerator gen(&expert(), query, PlanGenOptions());
      auto plan = gen.FindCheapestJoinPlan();
      ASSERT_TRUE(plan.ok()) << JoinTopologyName(topology) << " r" << n
                             << ": " << plan.status().ToString();
      EXPECT_EQ((*plan)->rels, RelSetAll(n));
      ExpectSamePlan(**plan, *reference,
                     std::string(JoinTopologyName(topology)) + " r" +
                         std::to_string(n));
      CountSpecialJoins(**plan, &inlj, &cross);
    }
  }
  // The pins cover both pricing special cases: an INLJ probing a base
  // relation and a clauseless cross product.
  EXPECT_GT(inlj, 0);
  EXPECT_GT(cross, 0);
}

// --- Large-join scaling ------------------------------------------------

TEST_F(PlanGenTest, SixteenRelationChainPlansExactly) {
  // The demonstration behind the PR: a 16-relation chain induces only
  // 136 connected subproblems, so the pruned generator plans it exactly —
  // the historic enumerator's Theta(3^n) subset walk was infeasible here.
  Query query = TopologyQuery(JoinTopology::kChain, 16, 900);
  PlanGenerator gen(&expert(), query, PlanGenOptions());
  auto plan = gen.FindCheapestJoinPlan();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ((*plan)->rels, RelSetAll(16));
  EXPECT_EQ(gen.stats().subproblems, 136);
}

// In-test reference for the connected-only regime of one connected query:
// the same DPsize walk as ReferenceComponentTable, restricted to connected
// subsets and predicate-connected splits. Returns the cheapest plan.
PlanNodePtr ReferenceConnectedPlan(TraditionalOptimizer* opt,
                                   const Query& query) {
  const RelSet all = RelSetAll(query.num_relations());
  std::map<RelSet, PlanNodePtr> table;
  for (RelSet mask = 1; mask != 0 && mask <= all; ++mask) {
    if (!query.IsConnected(mask)) continue;
    if (RelSetCount(mask) == 1) {
      table[mask] = opt->BestAccessPath(query, std::countr_zero(mask));
      continue;
    }
    PlanNodePtr best;
    for (RelSet s1 = (mask - 1) & mask; s1 != 0; s1 = (s1 - 1) & mask) {
      const RelSet s2 = mask & ~s1;
      if (s1 > s2 || !table.contains(s1) || !table.contains(s2)) continue;
      if (query.JoinPredsBetween(s1, s2).empty()) continue;
      PlanNodePtr cand = opt->BestJoinEitherOrientation(
          query, table[s1]->Clone(), table[s2]->Clone());
      if (best == nullptr || cand->est_cost < best->est_cost) {
        best = std::move(cand);
      }
    }
    HFQ_CHECK(best != nullptr);
    table[mask] = std::move(best);
  }
  return std::move(table[all]);
}

TEST_F(PlanGenTest, ConnectedRegimeMatchesConnectedReference) {
  // Components above kExhaustiveRelations enumerate connected subgraphs
  // only, where the exhaustive reference (a 3^n walk) cannot run; check
  // them node for node against the connected-only reference instead.
  struct Case {
    JoinTopology topology;
    int n;
    uint64_t seed;
    int64_t subproblems;
  };
  const Case cases[] = {{JoinTopology::kChain, 16, 900, 136},
                        {JoinTopology::kSnowflake, 14, 902, 1461}};
  for (const Case& c : cases) {
    ASSERT_GT(c.n, kExhaustiveRelations);
    Query query = TopologyQuery(c.topology, c.n, c.seed);
    PlanGenerator gen(&expert(), query, PlanGenOptions());
    auto plan = gen.FindCheapestJoinPlan();
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(gen.stats().subproblems, c.subproblems);
    const PlanNodePtr reference = ReferenceConnectedPlan(&expert(), query);
    ExpectSamePlan(**plan, *reference,
                   std::string(JoinTopologyName(c.topology)) + " r" +
                       std::to_string(c.n));
  }
}

TEST_F(PlanGenTest, DenseLargeJoinDegradesToResourceExhausted) {
  // A 16-clique induces 2^16 - 17 connected subproblems — over the
  // default budget. The generator reports ResourceExhausted...
  Query query = TopologyQuery(JoinTopology::kClique, 16, 901);
  PlanGenerator gen(&expert(), query, PlanGenOptions());
  auto plan = gen.FindCheapestJoinPlan();
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kResourceExhausted);
  // ...and Optimize (threshold raised to admit it) degrades to GEQO
  // instead of failing the query.
  OptimizerOptions options;
  options.geqo_threshold = 32;
  TraditionalOptimizer optimizer(&engine().catalog(),
                                 &engine().cost_model(), options);
  auto fallback = optimizer.Optimize(query);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_EQ((*fallback)->rels, RelSetAll(16));
}

TEST_F(PlanGenTest, ManyComponentCrossProductFallsBackToGeqo) {
  // No join predicates: 21 single-relation components, whose
  // cross-combination has 2^21 states and a 3^21 split walk. The budget
  // counts those states, so the generator reports ResourceExhausted...
  std::string sql = "SELECT count(*) FROM title t0";
  for (int i = 1; i <= 20; ++i) sql += ", title t" + std::to_string(i);
  auto query = ParseSql(sql, engine().catalog(), "pg_cross_product_r21");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  PlanGenerator gen(&expert(), *query, PlanGenOptions());
  auto plan = gen.FindCheapestJoinPlan();
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kResourceExhausted);
  // ...and Optimize, with the threshold raised to admit it (as the
  // hands-free facade's DP baseline does), plans it with GEQO.
  OptimizerOptions options;
  options.geqo_threshold = 32;
  TraditionalOptimizer optimizer(&engine().catalog(),
                                 &engine().cost_model(), options);
  auto fallback = optimizer.Optimize(*query);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_EQ((*fallback)->rels, RelSetAll(21));
}

}  // namespace
}  // namespace hfq
