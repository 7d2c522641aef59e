// TrueCardinalityOracle: exact cardinalities for any subset of a query's
// relations, computed against the materialized data. This is what stands in
// for "run the plan and observe it" — it lets the latency simulator charge
// catastrophically bad plans their true (astronomical) work without
// wall-clock cost, which is precisely the capability the paper says real
// execution lacks (Section 4, "Performance Evaluation Overhead").
//
// Algorithm: connected components of the subset multiply (cross products are
// exact products); each connected component is counted by a grouped
// hash-join sweep that keeps, instead of materialized tuples, a map from
// "interface columns still needed by future joins" to multiplicities. State
// size is bounded by the distinct interface-value combinations, not by the
// (possibly enormous) intermediate row count.
#ifndef HFQ_STATS_TRUTH_ORACLE_H_
#define HFQ_STATS_TRUTH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "plan/query.h"
#include "stats/cardinality.h"
#include "storage/database.h"
#include "util/sharded_cache.h"
#include "util/status.h"

namespace hfq {

/// Exact cardinalities from data. Counting is the expensive step (a first
/// count takes milliseconds), so the oracle memoizes per query *structure*:
/// one memo per distinct query, keyed by Query::StructuralFingerprint()
/// with the name-independent ToSql() text as its exact identity (the plan
/// cache's scheme), so a fingerprint collision can never alias and the
/// query's name plays no part. Memos live in a bounded LRU; an evicted
/// structure is simply recounted, to the identical value.
///
/// Thread-safe: each memo has its own mutex, so concurrent rollout and
/// serving workers count different queries in parallel and reuse each
/// other's counts of the same query.
class TrueCardinalityOracle : public CardinalitySource {
 public:
  struct Options {
    Options() {}
    /// Cap on grouped-state entries; above this the count falls back to the
    /// cross-product upper bound (conservatively huge — still "catastrophic"
    /// for any consumer).
    uint64_t max_group_entries = 4u * 1000u * 1000u;
  };

  /// Memo capacity: 16 shards x 128 query structures. Sized above the
  /// largest hot set the repo serves (1,024 distinct SQL texts in the
  /// serving benchmark, plus the training and calibration queries set up
  /// beside them), so hot traffic is not recounted, while a stream of
  /// never-seen queries holds at most this many memos.
  static constexpr int kMemoShards = 16;
  static constexpr int kMemoCapacityPerShard = 128;
  static constexpr size_t kMemoCapacity =
      static_cast<size_t>(kMemoShards) * kMemoCapacityPerShard;

  /// `db` must outlive the oracle.
  explicit TrueCardinalityOracle(const Database* db,
                                 Options options = Options());

  double Rows(const Query& query, RelSet s) override;
  double BaseRows(const Query& query, int rel) override;
  double GroupRows(const Query& query) override;
  double RowsWithSelections(const Query& query, int rel,
                            const std::vector<int>& sel_idxs) override;

  /// Row ids of `rel` passing all its selection predicates (memoized; a
  /// copy, since the memo it comes from may be evicted).
  std::vector<int64_t> SelectedRows(const Query& query, int rel);

  /// Exact count for a connected component; exposed for testing.
  Result<double> CountConnectedExact(const Query& query, RelSet component);

  /// Number of query structures currently memoized (<= kMemoCapacity).
  size_t memo_size() const { return memos_.size(); }
  /// Hit/miss/eviction counters of the memo.
  ShardedCacheStats memo_stats() const { return memos_.stats(); }

 private:
  struct Memo;

  /// The memo of `query`'s structure, created on first contact. The
  /// returned pointer keeps it alive even if it is evicted meanwhile.
  std::shared_ptr<Memo> MemoFor(const Query& query);

  // The *Locked helpers run with `memo.mu` held.
  double RowsLocked(const Query& query, Memo& memo, RelSet s);
  const std::vector<int64_t>& SelectedRowsLocked(const Query& query,
                                                 Memo& memo, int rel);
  Result<double> CountConnectedLocked(const Query& query, Memo& memo,
                                      RelSet component);
  double CountComponentLocked(const Query& query, Memo& memo,
                              RelSet component);

  const Database* db_;
  Options options_;
  ShardedGenCache<std::shared_ptr<Memo>> memos_;
};

}  // namespace hfq

#endif  // HFQ_STATS_TRUTH_ORACLE_H_
