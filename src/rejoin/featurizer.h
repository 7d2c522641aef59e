// ReJOIN's state featurization (Section 3 of the paper): each state is the
// current set of join subtrees plus query predicate information, encoded as
// a fixed-size vector so one network serves all queries up to
// max_relations:
//   * tree-structure block: for every subtree slot s and relation r,
//     1/(1+depth of r in slot s's subtree), 0 if absent — ReJOIN's
//     depth-weighted membership encoding;
//   * join-graph adjacency block (static per query);
//   * per-relation estimated selection selectivity (the optimizer's own
//     estimates — the agent sees what the expert sees);
//   * per-relation log-scaled estimated base cardinality;
//   * per-slot log-scaled estimated cardinality of the slot's current
//     subtree (what the estimator believes each intermediate produces —
//     the signal behind every "join small inputs first" heuristic).
#ifndef HFQ_REJOIN_FEATURIZER_H_
#define HFQ_REJOIN_FEATURIZER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "plan/join_tree.h"
#include "plan/query.h"
#include "stats/estimator.h"

namespace hfq {

/// Reusable featurization memory carried by one env instance. Blocks 2-4
/// of the encoding (join-graph adjacency, selection selectivities, base
/// cardinalities) depend only on the query, and block 5's per-subtree
/// cardinality only on the subtree's relation set — but the uncached path
/// re-asks the estimator for all of them on every state featurization.
/// Search featurizes dozens of states per query, so the cache turns all
/// but the first of those round-trips into local reads.
///
/// The contents belong to one query binding, named by the `binding`
/// token: an env takes a fresh token in SetQuery and passes it on to every
/// env that copies its state. A cache whose token changes either empties
/// (Bind) or takes the contents the copied env holds for the new token
/// (BindLike); it never keeps contents across a change. The Query's
/// address alone cannot tell queries apart: pooled envs outlive the query
/// they last served, and a later query (or the same variable, reassigned)
/// can occupy that address.
/// Not thread-safe: one cache per env, like MlpWorkspace.
struct FeaturizeCache {
  uint64_t binding = 0;
  /// The query the cached blocks were computed from; null while empty.
  const Query* query = nullptr;
  /// Blocks 2-4 exactly as Featurize lays them out, ready to copy.
  std::vector<double> static_blocks;
  /// Block 5 memo: subtree relation set -> log-scaled estimated rows.
  std::unordered_map<RelSet, double> subtree_rows;

  /// A token no other binding in this process has used (never 0).
  static uint64_t NewBinding();

  /// Ties the cache to `new_binding`, emptying it if that is a change.
  void Bind(uint64_t new_binding);

  /// Ties the cache to `other`'s binding. If that is a change, takes
  /// `other`'s contents too (they belong to that binding, so they are
  /// valid here by construction); otherwise keeps this cache's own.
  void BindLike(const FeaturizeCache& other);
};

/// Fixed-size featurization of (query, subtree list) states.
class RejoinFeaturizer {
 public:
  /// `estimator` must outlive the featurizer.
  RejoinFeaturizer(int max_relations, CardinalityEstimator* estimator);

  /// Dimensionality of Featurize output: 2*N^2 + 3*N.
  int FeatureDim() const;

  /// OK when `query` fits this featurizer's fixed-size encoding, otherwise
  /// InvalidArgument naming the query, its relation count, and the
  /// configured capacity. Every entry point that accepts workload queries
  /// must validate through this (or a caller that already did) before any
  /// code path can reach Featurize; Featurize itself treats an
  /// over-capacity query as a programming error.
  Status CheckCapacity(const Query& query) const;

  /// Encodes the current state. `subtrees` are the episode's live subtrees
  /// in slot order; the query must have at most max_relations relations.
  /// `cache`, when provided, is consulted and maintained as described on
  /// FeaturizeCache; the returned vector is bit-identical with or without
  /// it.
  std::vector<double> Featurize(
      const Query& query,
      const std::vector<const JoinTreeNode*>& subtrees,
      FeaturizeCache* cache = nullptr);

  int max_relations() const { return max_relations_; }
  CardinalityEstimator* estimator() { return estimator_; }

 private:
  int max_relations_;
  CardinalityEstimator* estimator_;
};

}  // namespace hfq

#endif  // HFQ_REJOIN_FEATURIZER_H_
