// The System-R style cardinality estimator: histogram selectivities with
// independence assumptions across predicates and 1/max(V) equi-join
// selectivity. Deliberately inherits the classical weaknesses (correlation
// blindness, skew-averaging) the paper leans on.
#ifndef HFQ_STATS_ESTIMATOR_H_
#define HFQ_STATS_ESTIMATOR_H_

#include "catalog/catalog.h"
#include "stats/cardinality.h"
#include "stats/table_stats.h"

namespace hfq {

/// Histogram-based estimates. Stateless: every call recomputes from the
/// query's structure and the immutable statistics (a memo lookup cost more
/// than the few multiplications it saved), so estimates never depend on
/// the query's name and any number of threads may share one estimator.
class CardinalityEstimator : public CardinalitySource {
 public:
  /// `catalog` and `stats` must outlive the estimator.
  CardinalityEstimator(const Catalog* catalog, const StatsCatalog* stats);

  double Rows(const Query& query, RelSet s) override;
  double BaseRows(const Query& query, int rel) override;
  double GroupRows(const Query& query) override;
  double RowsWithSelections(const Query& query, int rel,
                            const std::vector<int>& sel_idxs) override;

  /// Selectivity of one selection predicate (exposed for featurization:
  /// learned agents receive estimated selectivities as state input).
  double SelectionSelectivity(const Query& query, int sel_idx) const;

  /// Selectivity of one join predicate.
  double JoinSelectivity(const Query& query, int join_idx) const;

 private:
  const ColumnStats* StatsFor(const Query& query, const ColumnRef& ref) const;

  const Catalog* catalog_;
  const StatsCatalog* stats_;
};

}  // namespace hfq

#endif  // HFQ_STATS_ESTIMATOR_H_
