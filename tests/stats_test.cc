// Tests for src/stats: histograms, the estimator's selectivities, and the
// truth oracle's exact counts (validated analytically on MicroDb and
// against brute force).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "stats/estimator.h"
#include "stats/histogram.h"
#include "stats/table_stats.h"
#include "stats/truth_oracle.h"
#include "tests/test_common.h"

namespace hfq {
namespace {

Column MakeIntColumn(const std::vector<int64_t>& values) {
  Column col(ColumnType::kInt64);
  for (int64_t v : values) col.AppendInt(v);
  return col;
}

TEST(HistogramTest, BasicStats) {
  Column col = MakeIntColumn({1, 2, 2, 3, 3, 3, 4, 4, 4, 4});
  ColumnStats stats = BuildColumnStats(col);
  EXPECT_EQ(stats.num_rows, 10);
  EXPECT_EQ(stats.num_distinct, 4);
  EXPECT_EQ(stats.min_value, 1.0);
  EXPECT_EQ(stats.max_value, 4.0);
}

TEST(HistogramTest, EqualitySelectivityNearTruth) {
  std::vector<int64_t> values;
  for (int i = 0; i < 1000; ++i) values.push_back(i % 10);
  ColumnStats stats = BuildColumnStats(MakeIntColumn(values));
  // Each value is exactly 10% of rows.
  for (int v = 0; v < 10; ++v) {
    EXPECT_NEAR(stats.EstimateSelectivity(CmpOp::kEq, v), 0.1, 0.02);
  }
  EXPECT_EQ(stats.EstimateSelectivity(CmpOp::kEq, 99.0), 0.0);
}

TEST(HistogramTest, McvsCaptureHeavyHitters) {
  // Value 0 holds half the mass.
  std::vector<int64_t> values;
  for (int i = 0; i < 500; ++i) values.push_back(0);
  for (int i = 0; i < 500; ++i) values.push_back(1 + i % 100);
  ColumnStats stats = BuildColumnStats(MakeIntColumn(values));
  EXPECT_NEAR(stats.EstimateSelectivity(CmpOp::kEq, 0.0), 0.5, 1e-9);
}

TEST(HistogramTest, RangeSelectivityMonotone) {
  std::vector<int64_t> values;
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) values.push_back(rng.UniformInt(0, 999));
  ColumnStats stats = BuildColumnStats(MakeIntColumn(values));
  double prev = -1.0;
  for (double v = 0; v <= 1000; v += 100) {
    double sel = stats.EstimateSelectivity(CmpOp::kLt, v);
    EXPECT_GE(sel, prev);
    EXPECT_GE(sel, 0.0);
    EXPECT_LE(sel, 1.0);
    prev = sel;
  }
  EXPECT_NEAR(stats.EstimateSelectivity(CmpOp::kLt, 500.0), 0.5, 0.05);
  // Complements.
  EXPECT_NEAR(stats.EstimateSelectivity(CmpOp::kLt, 300.0) +
                  stats.EstimateSelectivity(CmpOp::kGe, 300.0),
              1.0, 1e-9);
}

TEST(HistogramTest, NeComplementOfEq) {
  std::vector<int64_t> values;
  for (int i = 0; i < 100; ++i) values.push_back(i % 4);
  ColumnStats stats = BuildColumnStats(MakeIntColumn(values));
  EXPECT_NEAR(stats.EstimateSelectivity(CmpOp::kEq, 2.0) +
                  stats.EstimateSelectivity(CmpOp::kNe, 2.0),
              1.0, 1e-9);
}

TEST(HistogramTest, JoinSelectivitySystemR) {
  ColumnStats a;
  a.num_distinct = 100;
  ColumnStats b;
  b.num_distinct = 40;
  EXPECT_NEAR(a.EstimateJoinSelectivity(b), 0.01, 1e-12);
  EXPECT_NEAR(b.EstimateJoinSelectivity(a), 0.01, 1e-12);
}

TEST(TableStatsTest, AnalyzeCoversAllColumns) {
  testing::MicroDb micro;
  auto stats = StatsCatalog::Analyze(*micro.db);
  ASSERT_TRUE(stats.ok());
  auto parent = stats->GetTable("parent");
  ASSERT_TRUE(parent.ok());
  EXPECT_EQ((*parent)->num_rows, 10);
  EXPECT_NE(stats->FindColumn("child", "pid"), nullptr);
  EXPECT_EQ(stats->FindColumn("child", "zzz"), nullptr);
  EXPECT_FALSE(stats->GetTable("nope").ok());
  EXPECT_EQ(stats->FindColumn("child", "pid")->num_distinct, 10);
}

TEST(EstimatorTest, ScanRowsMatchTruthOnUniformData) {
  testing::MicroDb micro;
  auto stats = StatsCatalog::Analyze(*micro.db);
  ASSERT_TRUE(stats.ok());
  CardinalityEstimator est(&micro.catalog, &*stats);

  Query q = micro.JoinQuery("est_scan");
  // child.v = 1 selects exactly 10 of 40 rows; uniform data: estimator
  // should be nearly exact.
  q.selections.push_back(SelectionPredicate{ColumnRef{1, "v"}, CmpOp::kEq,
                                            Value::Int(1)});
  EXPECT_NEAR(est.ScanRows(q, 1), 10.0, 1.0);
  EXPECT_NEAR(est.BaseRows(q, 1), 40.0, 1e-9);
}

TEST(EstimatorTest, JoinRowsMatchTruthOnUniformFk) {
  testing::MicroDb micro;
  auto stats = StatsCatalog::Analyze(*micro.db);
  ASSERT_TRUE(stats.ok());
  CardinalityEstimator est(&micro.catalog, &*stats);
  Query q = micro.JoinQuery("est_join");
  // |child join parent| = 40 exactly (every child matches one parent).
  EXPECT_NEAR(est.Rows(q, RelSetAll(2)), 40.0, 4.0);
}

TEST(EstimatorTest, RowsWithSelectionsSubset) {
  testing::MicroDb micro;
  auto stats = StatsCatalog::Analyze(*micro.db);
  ASSERT_TRUE(stats.ok());
  CardinalityEstimator est(&micro.catalog, &*stats);
  Query q = micro.JoinQuery("est_subset");
  q.selections.push_back(SelectionPredicate{ColumnRef{1, "v"}, CmpOp::kEq,
                                            Value::Int(1)});
  q.selections.push_back(SelectionPredicate{ColumnRef{1, "pid"}, CmpOp::kLt,
                                            Value::Int(5)});
  double with_one = est.RowsWithSelections(q, 1, {0});
  double with_both = est.RowsWithSelections(q, 1, {0, 1});
  EXPECT_GT(with_one, with_both);
  EXPECT_NEAR(with_one, 10.0, 1.5);
}

TEST(TruthOracleTest, ScanCountsExact) {
  testing::MicroDb micro;
  TrueCardinalityOracle oracle(micro.db.get());
  Query q = micro.JoinQuery("oracle_scan");
  q.selections.push_back(SelectionPredicate{ColumnRef{1, "v"}, CmpOp::kEq,
                                            Value::Int(1)});
  // v = id % 4 == 1 -> exactly 10 of 40.
  EXPECT_EQ(oracle.ScanRows(q, 1), 10.0);
  EXPECT_EQ(oracle.ScanRows(q, 0), 10.0);  // No selections on parent.
  EXPECT_EQ(oracle.BaseRows(q, 1), 40.0);
}

TEST(TruthOracleTest, JoinCountExact) {
  testing::MicroDb micro;
  TrueCardinalityOracle oracle(micro.db.get());
  Query q = micro.JoinQuery("oracle_join");
  // Every child row matches exactly one parent: 40.
  EXPECT_EQ(oracle.Rows(q, RelSetAll(2)), 40.0);
}

TEST(TruthOracleTest, JoinWithSelectionExact) {
  testing::MicroDb micro;
  TrueCardinalityOracle oracle(micro.db.get());
  Query q = micro.JoinQuery("oracle_join_sel");
  // parent.attr = 2 -> parents {2, 7}; each parent has 4 children -> 8.
  q.selections.push_back(SelectionPredicate{ColumnRef{0, "attr"}, CmpOp::kEq,
                                            Value::Int(2)});
  EXPECT_EQ(oracle.Rows(q, RelSetAll(2)), 8.0);
}

TEST(TruthOracleTest, CrossProductIsProduct) {
  testing::MicroDb micro;
  Query q;
  q.name = "oracle_cross";
  q.relations = {RelationRef{"parent", "p1"}, RelationRef{"parent", "p2"}};
  // No join predicates: cross product 10 * 10.
  TrueCardinalityOracle oracle(micro.db.get());
  EXPECT_EQ(oracle.Rows(q, RelSetAll(2)), 100.0);
}

TEST(TruthOracleTest, SelfJoinExact) {
  testing::MicroDb micro;
  Query q;
  q.name = "oracle_self";
  q.relations = {RelationRef{"child", "c1"}, RelationRef{"child", "c2"}};
  q.joins.push_back(JoinPredicate{ColumnRef{0, "pid"}, ColumnRef{1, "pid"}});
  // Each pid value has 4 rows; 10 values: 10 * 4 * 4 = 160.
  TrueCardinalityOracle oracle(micro.db.get());
  EXPECT_EQ(oracle.Rows(q, RelSetAll(2)), 160.0);
}

TEST(TruthOracleTest, ThreeWayJoinExact) {
  testing::MicroDb micro;
  Query q;
  q.name = "oracle_three";
  q.relations = {RelationRef{"child", "c1"}, RelationRef{"parent", "p"},
                 RelationRef{"child", "c2"}};
  q.joins.push_back(JoinPredicate{ColumnRef{0, "pid"}, ColumnRef{1, "id"}});
  q.joins.push_back(JoinPredicate{ColumnRef{2, "pid"}, ColumnRef{1, "id"}});
  // Per parent: 4 * 4 pairs; 10 parents -> 160.
  TrueCardinalityOracle oracle(micro.db.get());
  EXPECT_EQ(oracle.Rows(q, RelSetAll(3)), 160.0);
  // Sub-subset: c1 x p only -> 40.
  EXPECT_EQ(oracle.Rows(q, RelSetOf(0) | RelSetOf(1)), 40.0);
  // Disconnected subset c1, c2 (p missing): cross product 40 * 40.
  EXPECT_EQ(oracle.Rows(q, RelSetOf(0) | RelSetOf(2)), 1600.0);
}

TEST(TruthOracleTest, EmptyResultIsZero) {
  testing::MicroDb micro;
  TrueCardinalityOracle oracle(micro.db.get());
  Query q = micro.JoinQuery("oracle_empty");
  q.selections.push_back(SelectionPredicate{ColumnRef{0, "attr"}, CmpOp::kEq,
                                            Value::Int(77)});
  EXPECT_EQ(oracle.Rows(q, RelSetAll(2)), 0.0);
}

TEST(TruthOracleTest, GroupRowsBounded) {
  testing::MicroDb micro;
  TrueCardinalityOracle oracle(micro.db.get());
  Query q = micro.JoinQuery("oracle_groups");
  q.group_by.push_back(ColumnRef{0, "attr"});
  AggSpec agg;
  agg.func = AggFunc::kCount;
  q.aggregates.push_back(agg);
  double groups = oracle.GroupRows(q);
  EXPECT_GT(groups, 0.0);
  EXPECT_LE(groups, 5.0);  // attr has 5 distinct values.
}

// Nothing in the cardinality layer keys on Query::name: two different
// structures sharing a name each get their own exact values, and one
// structure under two names shares one oracle memo.

// The micro join query, optionally filtered on parent.attr = 2, under
// `name`; group-by on parent.attr so GroupRows has something to count.
Query NamedVariant(const testing::MicroDb& micro, const std::string& name,
                   bool filtered) {
  Query q = micro.JoinQuery(name);
  if (filtered) {
    q.selections.push_back(SelectionPredicate{ColumnRef{0, "attr"},
                                              CmpOp::kEq, Value::Int(2)});
  }
  q.group_by.push_back(ColumnRef{0, "attr"});
  AggSpec agg;
  agg.func = AggFunc::kCount;
  q.aggregates.push_back(agg);
  return q;
}

TEST(TruthOracleTest, SameNameDifferentStructureCountsEachExactly) {
  testing::MicroDb micro;
  TrueCardinalityOracle shared(micro.db.get());
  for (bool filtered : {false, true, false, true}) {
    // One stack slot, one name, alternating structures.
    Query q = NamedVariant(micro, "client_query", filtered);
    TrueCardinalityOracle fresh(micro.db.get());
    Query unique = NamedVariant(micro, filtered ? "unique_f" : "unique_u",
                                filtered);
    EXPECT_EQ(shared.Rows(q, RelSetAll(2)), fresh.Rows(unique, RelSetAll(2)));
    EXPECT_EQ(shared.Rows(q, RelSetOf(0)), fresh.Rows(unique, RelSetOf(0)));
    EXPECT_EQ(shared.GroupRows(q), fresh.GroupRows(unique));
    EXPECT_EQ(shared.SelectedRows(q, 0), fresh.SelectedRows(unique, 0));
  }
  // Analytically: every parent has 4 children; attr = 2 keeps parents 2, 7.
  EXPECT_EQ(shared.Rows(NamedVariant(micro, "client_query", false),
                        RelSetAll(2)),
            40.0);
  EXPECT_EQ(shared.Rows(NamedVariant(micro, "client_query", true),
                        RelSetAll(2)),
            8.0);
  EXPECT_EQ(shared.memo_size(), 2u);
}

TEST(EstimatorTest, SameNameDifferentStructureEstimatesEachExactly) {
  testing::MicroDb micro;
  auto stats = StatsCatalog::Analyze(*micro.db);
  ASSERT_TRUE(stats.ok());
  CardinalityEstimator shared(&micro.catalog, &*stats);
  double unfiltered = 0.0;
  double filtered_rows = 0.0;
  for (bool filtered : {false, true, false, true}) {
    // One stack slot, one name, alternating structures.
    Query q = NamedVariant(micro, "client_query", filtered);
    CardinalityEstimator fresh(&micro.catalog, &*stats);
    Query unique = NamedVariant(micro, filtered ? "unique_f" : "unique_u",
                                filtered);
    EXPECT_EQ(shared.Rows(q, RelSetAll(2)), fresh.Rows(unique, RelSetAll(2)));
    EXPECT_EQ(shared.GroupRows(q), fresh.GroupRows(unique));
    (filtered ? filtered_rows : unfiltered) = shared.Rows(q, RelSetAll(2));
  }
  EXPECT_LT(filtered_rows, unfiltered);
}

TEST(TruthOracleTest, SameStructureUnderTwoNamesSharesOneMemo) {
  testing::MicroDb micro;
  TrueCardinalityOracle oracle(micro.db.get());
  Query a = micro.JoinQuery("first_name");
  Query b = micro.JoinQuery("second_name");
  const double rows = oracle.Rows(a, RelSetAll(2));
  EXPECT_EQ(oracle.memo_size(), 1u);
  EXPECT_EQ(oracle.memo_stats().hits, 0u);
  EXPECT_EQ(oracle.Rows(b, RelSetAll(2)), rows);
  EXPECT_EQ(oracle.memo_size(), 1u);
  EXPECT_EQ(oracle.memo_stats().hits, 1u);
  EXPECT_EQ(oracle.memo_stats().insertions, 1u);
}

TEST(TruthOracleTest, MemoStaysBoundedAndEvictedStructuresRecountExactly) {
  testing::MicroDb micro;
  TrueCardinalityOracle oracle(micro.db.get());
  // One structure per threshold: parent.id >= k keeps 10 - k parents (none
  // past 9), each with 4 children.
  const int structures =
      static_cast<int>(TrueCardinalityOracle::kMemoCapacity) + 512;
  auto variant = [&micro](int k) {
    Query q = micro.JoinQuery("bounded");
    q.selections.push_back(SelectionPredicate{ColumnRef{0, "id"}, CmpOp::kGe,
                                              Value::Int(k)});
    return q;
  };
  auto expected = [](int k) { return 4.0 * std::max(0, 10 - k); };
  for (int k = 0; k < structures; ++k) {
    ASSERT_EQ(oracle.Rows(variant(k), RelSetAll(2)), expected(k)) << k;
  }
  EXPECT_LE(oracle.memo_size(), TrueCardinalityOracle::kMemoCapacity);
  EXPECT_GT(oracle.memo_stats().evictions, 0u);

  // Second pass: evicted structures miss and are recounted, to the same
  // values.
  const uint64_t misses_before = oracle.memo_stats().misses;
  for (int k = 0; k < structures; ++k) {
    ASSERT_EQ(oracle.Rows(variant(k), RelSetAll(2)), expected(k)) << k;
  }
  EXPECT_GT(oracle.memo_stats().misses, misses_before);
  EXPECT_LE(oracle.memo_size(), TrueCardinalityOracle::kMemoCapacity);
}

TEST(TruthOracleTest, EstimatorErrsOnCorrelatedDataOracleDoesNot) {
  // The paper's core tension: on the IMDB-like data with injected
  // correlations, the estimator's independence assumption must produce
  // real q-errors somewhere, while the oracle is exact by construction.
  Engine& engine = testing::SharedEngine();
  Query q;
  q.name = "corr_probe";
  q.relations = {RelationRef{"movie_info", "mi"}};
  // Correlated pair: info depends on info_type_id. The conjunction of a
  // matching pair is far more frequent than independence predicts.
  auto table = engine.db().GetTable("movie_info");
  ASSERT_TRUE(table.ok());
  int32_t src = (*table)->def().ColumnIndex("info_type_id");
  int32_t dst = (*table)->def().ColumnIndex("info");
  // Find the modal (src, dst) pair.
  std::map<std::pair<int64_t, int64_t>, int64_t> freq;
  for (int64_t r = 0; r < (*table)->num_rows(); ++r) {
    ++freq[{(*table)->column(src).GetInt(r),
            (*table)->column(dst).GetInt(r)}];
  }
  std::pair<int64_t, int64_t> modal;
  int64_t best = 0;
  for (const auto& [k, c] : freq) {
    if (c > best) {
      best = c;
      modal = k;
    }
  }
  q.selections.push_back(SelectionPredicate{
      ColumnRef{0, "info_type_id"}, CmpOp::kEq, Value::Int(modal.first)});
  q.selections.push_back(SelectionPredicate{ColumnRef{0, "info"}, CmpOp::kEq,
                                            Value::Int(modal.second)});
  double truth = engine.oracle().ScanRows(q, 0);
  double est = engine.estimator().ScanRows(q, 0);
  ASSERT_GT(truth, 0.0);
  double q_error = std::max(truth / std::max(est, 1e-9), est / truth);
  EXPECT_GT(q_error, 3.0) << "expected a real estimation error on "
                             "correlated predicates";
}

}  // namespace
}  // namespace hfq
