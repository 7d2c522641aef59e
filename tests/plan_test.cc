// Tests for src/plan: relation sets, query graph helpers, join trees,
// physical plan nodes.
#include <gtest/gtest.h>

#include "plan/join_tree.h"
#include "plan/physical_plan.h"
#include "plan/query.h"
#include "plan/relset.h"
#include "tests/test_common.h"

namespace hfq {
namespace {

TEST(RelSetTest, BasicOps) {
  RelSet s = RelSetOf(0) | RelSetOf(3);
  EXPECT_TRUE(RelSetHas(s, 0));
  EXPECT_TRUE(RelSetHas(s, 3));
  EXPECT_FALSE(RelSetHas(s, 1));
  EXPECT_EQ(RelSetCount(s), 2);
  EXPECT_TRUE(RelSetDisjoint(s, RelSetOf(2)));
  EXPECT_FALSE(RelSetDisjoint(s, RelSetOf(3)));
  EXPECT_TRUE(RelSetSubset(RelSetOf(3), s));
  EXPECT_FALSE(RelSetSubset(RelSetOf(2), s));
  EXPECT_EQ(RelSetMembers(s), (std::vector<int>{0, 3}));
  EXPECT_EQ(RelSetAll(3), 0b111u);
}

Query ChainQuery(int n) {
  // r0 - r1 - r2 - ... (chain join graph).
  Query q;
  q.name = "chain";
  for (int i = 0; i < n; ++i) {
    q.relations.push_back(RelationRef{"t" + std::to_string(i),
                                      "t" + std::to_string(i)});
  }
  for (int i = 0; i + 1 < n; ++i) {
    q.joins.push_back(JoinPredicate{ColumnRef{i, "a"}, ColumnRef{i + 1, "b"}});
  }
  return q;
}

TEST(QueryTest, GraphHelpers) {
  Query q = ChainQuery(4);
  EXPECT_EQ(q.NeighborsOf(0), RelSetOf(1));
  EXPECT_EQ(q.NeighborsOf(1), RelSetOf(0) | RelSetOf(2));
  EXPECT_EQ(q.NeighborsOfSet(RelSetOf(1) | RelSetOf(2)),
            RelSetOf(0) | RelSetOf(3));
  EXPECT_TRUE(q.IsConnected(RelSetOf(0) | RelSetOf(1)));
  EXPECT_FALSE(q.IsConnected(RelSetOf(0) | RelSetOf(2)));
  EXPECT_TRUE(q.IsConnected(RelSetAll(4)));
  EXPECT_TRUE(q.IsFullyConnected());
  EXPECT_EQ(q.JoinPredsBetween(RelSetOf(0), RelSetOf(1)).size(), 1u);
  EXPECT_TRUE(q.JoinPredsBetween(RelSetOf(0), RelSetOf(2)).empty());
  EXPECT_EQ(q.JoinPredsBetween(RelSetOf(0) | RelSetOf(1),
                               RelSetOf(2) | RelSetOf(3))
                .size(),
            1u);
  // HasJoinBetween agrees with JoinPredsBetween on every pair of subsets.
  for (RelSet a = 1; a <= RelSetAll(4); ++a) {
    for (RelSet b = 1; b <= RelSetAll(4); ++b) {
      EXPECT_EQ(q.HasJoinBetween(a, b), !q.JoinPredsBetween(a, b).empty());
    }
  }
}

TEST(QueryTest, SelectionsOn) {
  Query q = ChainQuery(2);
  q.selections.push_back(
      SelectionPredicate{ColumnRef{1, "x"}, CmpOp::kEq, Value::Int(1)});
  q.selections.push_back(
      SelectionPredicate{ColumnRef{0, "y"}, CmpOp::kLt, Value::Int(2)});
  q.selections.push_back(
      SelectionPredicate{ColumnRef{1, "z"}, CmpOp::kGt, Value::Int(3)});
  EXPECT_EQ(q.SelectionsOn(0), (std::vector<int>{1}));
  EXPECT_EQ(q.SelectionsOn(1), (std::vector<int>{0, 2}));
}

TEST(QueryTest, ValidateCatchesProblems) {
  const Catalog& catalog = testing::SharedEngine().catalog();
  Query q;
  q.name = "v";
  EXPECT_FALSE(q.Validate(catalog).ok());  // No relations.

  q.relations.push_back(RelationRef{"title", "t"});
  EXPECT_TRUE(q.Validate(catalog).ok());

  Query dup = q;
  dup.relations.push_back(RelationRef{"title", "t"});  // Duplicate alias.
  EXPECT_FALSE(dup.Validate(catalog).ok());

  Query bad_col = q;
  bad_col.selections.push_back(
      SelectionPredicate{ColumnRef{0, "zzz"}, CmpOp::kEq, Value::Int(1)});
  EXPECT_FALSE(bad_col.Validate(catalog).ok());

  Query bad_table = q;
  bad_table.relations.push_back(RelationRef{"nope", "n"});
  EXPECT_FALSE(bad_table.Validate(catalog).ok());
}

TEST(JoinTreeTest, LeafAndJoin) {
  auto tree = JoinTreeNode::Join(
      JoinTreeNode::Join(JoinTreeNode::Leaf(0), JoinTreeNode::Leaf(2)),
      JoinTreeNode::Leaf(1));
  EXPECT_EQ(tree->rels, RelSetAll(3));
  EXPECT_FALSE(tree->IsLeaf());
  EXPECT_EQ(tree->NumJoins(), 2);
  EXPECT_EQ(tree->Height(), 2);
  EXPECT_EQ(tree->DepthOf(0), 2);
  EXPECT_EQ(tree->DepthOf(1), 1);
  EXPECT_EQ(tree->DepthOf(3), -1);
}

TEST(JoinTreeTest, PostOrderAndClone) {
  auto tree = JoinTreeNode::Join(
      JoinTreeNode::Join(JoinTreeNode::Leaf(0), JoinTreeNode::Leaf(1)),
      JoinTreeNode::Join(JoinTreeNode::Leaf(2), JoinTreeNode::Leaf(3)));
  std::vector<const JoinTreeNode*> internal;
  tree->InternalNodesPostOrder(&internal);
  ASSERT_EQ(internal.size(), 3u);
  EXPECT_EQ(internal[0]->rels, RelSetOf(0) | RelSetOf(1));
  EXPECT_EQ(internal[1]->rels, RelSetOf(2) | RelSetOf(3));
  EXPECT_EQ(internal[2]->rels, RelSetAll(4));

  auto clone = tree->Clone();
  EXPECT_EQ(clone->rels, tree->rels);
  EXPECT_EQ(clone->NumJoins(), 3);
  EXPECT_NE(clone->left.get(), tree->left.get());
}

TEST(JoinTreeTest, LeftDeepBuilder) {
  auto tree = LeftDeepTree({2, 0, 1});
  EXPECT_EQ(tree->rels, RelSetAll(3));
  EXPECT_EQ(tree->right->rel_idx, 1);
  EXPECT_EQ(tree->left->right->rel_idx, 0);
  EXPECT_EQ(tree->left->left->rel_idx, 2);
  Query q = ChainQuery(3);
  EXPECT_EQ(tree->ToString(q), "((t2 x t0) x t1)");
}

TEST(PlanNodeTest, ConstructorsSetRelSets) {
  auto scan0 = MakeSeqScan(0, {});
  auto scan1 = MakeIndexScan(1, IndexKind::kBTree, "a", 0, {1});
  EXPECT_EQ(scan0->rels, RelSetOf(0));
  EXPECT_EQ(scan1->rels, RelSetOf(1));
  EXPECT_TRUE(scan1->IsScan());
  auto join = MakeJoin(PhysicalOp::kHashJoin, scan0->Clone(), scan1->Clone(),
                       {0});
  EXPECT_EQ(join->rels, RelSetOf(0) | RelSetOf(1));
  EXPECT_TRUE(join->IsJoin());
  auto agg = MakeAggregate(PhysicalOp::kHashAggregate, join->Clone());
  EXPECT_TRUE(agg->IsAggregate());
  EXPECT_EQ(agg->rels, join->rels);
}

TEST(PlanNodeTest, CloneIsDeep) {
  auto join = MakeJoin(PhysicalOp::kMergeJoin, MakeSeqScan(0, {}),
                       MakeSeqScan(1, {}), {0});
  join->est_cost = 7.0;
  auto clone = join->Clone();
  EXPECT_EQ(clone->est_cost, 7.0);
  EXPECT_EQ(clone->op, PhysicalOp::kMergeJoin);
  clone->mutable_child(0)->rel_idx = 5;
  EXPECT_EQ(join->child(0)->rel_idx, 0);
}

TEST(PlanNodeTest, FingerprintDistinguishesPlans) {
  auto a = MakeJoin(PhysicalOp::kHashJoin, MakeSeqScan(0, {}),
                    MakeSeqScan(1, {}), {0});
  auto b = MakeJoin(PhysicalOp::kMergeJoin, MakeSeqScan(0, {}),
                    MakeSeqScan(1, {}), {0});
  auto c = MakeJoin(PhysicalOp::kHashJoin, MakeSeqScan(1, {}),
                    MakeSeqScan(0, {}), {0});
  EXPECT_NE(a->Fingerprint(), b->Fingerprint());
  EXPECT_NE(a->Fingerprint(), c->Fingerprint());
  EXPECT_EQ(a->Fingerprint(), a->Clone()->Fingerprint());
}

TEST(PlanNodeTest, CollectNodesPreOrder) {
  auto join = MakeJoin(PhysicalOp::kHashJoin, MakeSeqScan(0, {}),
                       MakeSeqScan(1, {}), {0});
  std::vector<const PlanNode*> nodes;
  join->CollectNodes(&nodes);
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes[0]->op, PhysicalOp::kHashJoin);
}

TEST(PlanNodeTest, ToStringContainsOperatorsAndTables) {
  Query q = ChainQuery(2);
  q.relations[0].table = "title";
  q.relations[0].alias = "t";
  q.relations[1].table = "cast_info";
  q.relations[1].alias = "ci";
  auto join = MakeJoin(PhysicalOp::kHashJoin, MakeSeqScan(0, {}),
                       MakeSeqScan(1, {}), {0});
  std::string s = join->ToString(q);
  EXPECT_NE(s.find("HashJoin"), std::string::npos);
  EXPECT_NE(s.find("title"), std::string::npos);
  EXPECT_NE(s.find("cast_info"), std::string::npos);
}

TEST(PlanNodeTest, OpNamesAndPredicates) {
  EXPECT_STREQ(PhysicalOpName(PhysicalOp::kIndexNestedLoopJoin),
               "IndexNestedLoopJoin");
  EXPECT_TRUE(IsJoinOp(PhysicalOp::kHashJoin));
  EXPECT_FALSE(IsJoinOp(PhysicalOp::kSeqScan));
  EXPECT_FALSE(IsJoinOp(PhysicalOp::kHashAggregate));
}

TEST(QueryTest, ToSqlContainsPieces) {
  Query q = ChainQuery(2);
  q.relations[0].table = "title";
  q.relations[0].alias = "t";
  q.relations[1].table = "cast_info";
  q.relations[1].alias = "cast_info";
  q.joins[0] = JoinPredicate{ColumnRef{0, "id"}, ColumnRef{1, "movie_id"}};
  q.selections.push_back(SelectionPredicate{
      ColumnRef{0, "production_year"}, CmpOp::kGe, Value::Int(10)});
  AggSpec agg;
  agg.func = AggFunc::kCount;
  q.aggregates.push_back(agg);
  std::string sql = q.ToSql();
  EXPECT_NE(sql.find("count(*)"), std::string::npos);
  EXPECT_NE(sql.find("title AS t"), std::string::npos);
  EXPECT_NE(sql.find("t.id = cast_info.movie_id"), std::string::npos);
  EXPECT_NE(sql.find("t.production_year >= 10"), std::string::npos);
}

}  // namespace
}  // namespace hfq
