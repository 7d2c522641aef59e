// Shared test fixtures: a small engine built once per test binary, ReJOIN's
// join-order MDP on it, plus a tiny hand-constructed database with
// analytically known cardinalities.
#ifndef HFQ_TESTS_TEST_COMMON_H_
#define HFQ_TESTS_TEST_COMMON_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/full_env.h"
#include "core/reward.h"
#include "rl/rollout.h"
#include "util/check.h"

namespace hfq {
namespace testing {

/// A small (scale 0.05) IMDB-like engine, constructed once per binary.
inline Engine& SharedEngine() {
  static std::unique_ptr<Engine> engine = [] {
    EngineOptions options;
    options.imdb.scale = 0.05;
    options.data_seed = 42;
    auto result = Engine::CreateImdbLike(options);
    HFQ_CHECK_MSG(result.ok(), "test engine construction failed");
    return std::move(*result);
  }();
  return *engine;
}

/// Wraps a RewardSignal and counts Score calls, so tests can pin which
/// paths score finished plans (training) and which never do (planning).
class CountingReward : public RewardSignal {
 public:
  /// `inner` must outlive the wrapper.
  explicit CountingReward(RewardSignal* inner) : inner_(inner) {
    HFQ_CHECK(inner != nullptr);
  }
  double Score(const Query& query, const PlanNode& plan) override {
    calls_.fetch_add(1);
    return inner_->Score(query, plan);
  }
  double LastMetric() const override { return inner_->LastMetric(); }
  std::string name() const override { return inner_->name(); }

  int calls() const { return calls_.load(); }
  void ResetCalls() { calls_.store(0); }

 private:
  RewardSignal* inner_;
  std::atomic<int> calls_{0};
};

/// ReJOIN's MDP (paper Section 3) on the shared engine: the plan-building
/// env with only the join-order stage enabled, rewarded 1/M(t).
struct RejoinEnv {
  explicit RejoinEnv(int max_relations, bool allow_cross_products = false)
      : featurizer(max_relations, &SharedEngine().estimator()),
        env(&featurizer, &SharedEngine().expert(), &reward,
            Config(allow_cross_products)) {}

  static FullEnvConfig Config(bool allow_cross_products) {
    FullEnvConfig config;
    config.stages = PipelineStages::JoinOrderOnly();
    config.allow_cross_products = allow_cross_products;
    return config;
  }

  RejoinFeaturizer featurizer;
  ReciprocalCostReward reward{1e5};
  FullPipelineEnv env;
};

/// Trains `agent` serially on `episodes` episodes of `env` over `workload`,
/// 8 episodes per update.
inline void TrainSerially(PolicyGradientAgent* agent, FullPipelineEnv* env,
                          const std::vector<Query>& workload, int episodes) {
  RolloutLoop<FullPipelineEnv> loop(agent, env, /*episodes_per_update=*/8,
                                    /*num_workers=*/1, /*seed=*/0);
  loop.Train(
      workload, episodes, [](int, FullPipelineEnv*, const Episode&) {
        return 0;
      },
      [](int, int) {});
}

/// A micro catalog: two tables with a single FK edge and known contents.
///   parent(id, attr)  : 10 rows, attr = id % 5
///   child(id, pid, v) : 40 rows, pid = id % 10 (uniform FK), v = id % 4
/// Every parent has exactly 4 children; selections have exact counts.
struct MicroDb {
  Catalog catalog;
  std::unique_ptr<Database> db;

  MicroDb() {
    TableDef parent;
    parent.name = "parent";
    parent.num_rows = 10;
    ColumnDef pid_col;
    pid_col.name = "id";
    pid_col.distribution = ValueDistribution::kSerial;
    ColumnDef attr;
    attr.name = "attr";
    attr.num_distinct = 5;
    parent.columns = {pid_col, attr};
    HFQ_CHECK(catalog.AddTable(parent).ok());

    TableDef child;
    child.name = "child";
    child.num_rows = 40;
    ColumnDef cid;
    cid.name = "id";
    cid.distribution = ValueDistribution::kSerial;
    ColumnDef pid;
    pid.name = "pid";
    pid.distribution = ValueDistribution::kForeignKey;
    pid.ref_table = "parent";
    ColumnDef v;
    v.name = "v";
    v.num_distinct = 4;
    child.columns = {cid, pid, v};
    HFQ_CHECK(catalog.AddTable(child).ok());

    HFQ_CHECK(catalog
                  .AddIndex(IndexDef{"", "parent", "id", IndexKind::kBTree})
                  .ok());
    HFQ_CHECK(
        catalog.AddIndex(IndexDef{"", "child", "pid", IndexKind::kHash})
            .ok());
    HFQ_CHECK(
        catalog.AddIndex(IndexDef{"", "child", "pid", IndexKind::kBTree})
            .ok());
    HFQ_CHECK(catalog.AddIndex(IndexDef{"", "child", "v", IndexKind::kBTree})
                  .ok());

    // Deterministic contents (bypasses DataGenerator): parent.attr = id % 5,
    // child.pid = id % 10, child.v = id % 4.
    db = std::make_unique<Database>(&catalog);
    auto parent_table = std::make_unique<Table>(parent);
    for (int64_t i = 0; i < parent.num_rows; ++i) {
      parent_table->column(0).AppendInt(i);
      parent_table->column(1).AppendInt(i % 5);
    }
    HFQ_CHECK(parent_table->Seal().ok());
    HFQ_CHECK(db->AddTable(std::move(parent_table)).ok());

    auto child_table = std::make_unique<Table>(child);
    for (int64_t i = 0; i < child.num_rows; ++i) {
      child_table->column(0).AppendInt(i);
      child_table->column(1).AppendInt(i % 10);
      child_table->column(2).AppendInt(i % 4);
    }
    HFQ_CHECK(child_table->Seal().ok());
    HFQ_CHECK(db->AddTable(std::move(child_table)).ok());
    HFQ_CHECK(db->BuildAllIndexes().ok());
  }

  /// SELECT * FROM parent, child WHERE child.pid = parent.id [AND preds].
  Query JoinQuery(const std::string& name = "micro_join") const {
    Query q;
    q.name = name;
    q.relations = {RelationRef{"parent", "parent"},
                   RelationRef{"child", "child"}};
    q.joins.push_back(
        JoinPredicate{ColumnRef{1, "pid"}, ColumnRef{0, "id"}});
    return q;
  }
};

}  // namespace testing
}  // namespace hfq

#endif  // HFQ_TESTS_TEST_COMMON_H_
