#include "optimizer/plan_gen.h"

#include <algorithm>
#include <bit>
#include <span>
#include <string>
#include <unordered_set>

#include "util/check.h"

namespace hfq {
namespace {

// Connected components of the query's join graph, in lowest-member order.
std::vector<RelSet> JoinGraphComponents(const Query& query) {
  std::vector<RelSet> components;
  RelSet seen = 0;
  for (int rel = 0; rel < query.num_relations(); ++rel) {
    if (seen & RelSetOf(rel)) continue;
    RelSet comp = RelSetOf(rel);
    for (;;) {
      RelSet next = comp | query.NeighborsOfSet(comp);
      if (next == comp) break;
      comp = next;
    }
    components.push_back(comp);
    seen |= comp;
  }
  return components;
}

Status OverBudget(int64_t max_subproblems) {
  return Status::ResourceExhausted(
      "join graph induces more than " + std::to_string(max_subproblems) +
      " DP subproblems; enumeration over-budget");
}

// Adds every connected subset of `rels` to `seen`, failing as soon as
// `seen` holds more than `max_subproblems` sets.
Status GrowConnectedSubsets(const Query& query, RelSet rels,
                            int64_t max_subproblems,
                            std::unordered_set<RelSet>* seen) {
  // Every connected subset of size k+1 is a connected subset of size k plus
  // one neighbor, so growing from singletons with a dedup set enumerates
  // each connected subset exactly once — 2^n never appears for sparse
  // graphs (a 20-relation chain has 210 connected subsets). The budget
  // check runs during growth: a graph denser than the budget is rejected
  // before any planning work happens.
  std::vector<RelSet> pending;
  for (int rel : RelSetMembers(rels)) {
    seen->insert(RelSetOf(rel));
    pending.push_back(RelSetOf(rel));
  }
  while (static_cast<int64_t>(seen->size()) <= max_subproblems) {
    if (pending.empty()) return Status::OK();
    RelSet s = pending.back();
    pending.pop_back();
    RelSet nb = query.NeighborsOfSet(s) & rels;
    while (nb != 0) {
      RelSet grown = s | RelSetOf(std::countr_zero(nb));
      nb &= nb - 1;
      if (seen->insert(grown).second) pending.push_back(grown);
    }
  }
  return OverBudget(max_subproblems);
}

}  // namespace

PlanGenerator::PlanGenerator(TraditionalOptimizer* optimizer,
                             const Query& query, PlanGenOptions options)
    : optimizer_(optimizer), query_(query), options_(options) {
  HFQ_CHECK(optimizer != nullptr);
}

Result<std::vector<RelSet>> PlanGenerator::ConnectedSubsets(
    const Query& query, int64_t max_subproblems) {
  std::unordered_set<RelSet> seen;
  HFQ_RETURN_IF_ERROR(GrowConnectedSubsets(
      query, RelSetAll(query.num_relations()), max_subproblems, &seen));
  std::vector<RelSet> out(seen.begin(), seen.end());
  // Ascending mask order visits every subset before any of its supersets,
  // which is all the DP needs.
  std::sort(out.begin(), out.end());
  return out;
}

void PlanGenerator::OfferSplit(RelSet s1, const Entry& e1, RelSet s2,
                               const Entry& e2, bool connected, double rows,
                               Entry* best) const {
  const TraditionalOptimizer::JoinInput in1{s1, e1.rows, e1.cost,
                                            e1.outer == 0};
  const TraditionalOptimizer::JoinInput in2{s2, e2.rows, e2.cost,
                                            e2.outer == 0};
  // PriceJoin reads the inner's probe candidates only for a base scan,
  // whose candidates are its relation's.
  const auto probes = [&](RelSet inner) {
    return std::span<const TraditionalOptimizer::ProbeCandidate>(
        probes_[static_cast<size_t>(std::countr_zero(inner))]);
  };
  const double ab =
      optimizer_->PriceJoin(query_, connected, probes(s2), in1, in2, rows)
          .cost;
  const double ba =
      optimizer_->PriceJoin(query_, connected, probes(s1), in2, in1, rows)
          .cost;
  const bool swap = ba < ab;
  const double cost = swap ? ba : ab;
  if (best->outer == 0 || cost < best->cost) {
    *best = Entry{cost, rows, swap ? s2 : s1, swap ? s1 : s2};
  }
}

PlanNodePtr PlanGenerator::Build(RelSet s) {
  const Entry& e = table_.at(s);
  if (e.outer == 0) {
    return std::move(access_[static_cast<size_t>(std::countr_zero(s))]);
  }
  return optimizer_->BestJoin(query_, Build(e.outer), Build(e.inner));
}

Result<PlanNodePtr> PlanGenerator::FindCheapestJoinPlan() {
  const int n = query_.num_relations();
  HFQ_CHECK(n >= 2);
  const std::vector<RelSet> components = JoinGraphComponents(query_);

  // Subproblem universe, per component (see kExhaustiveRelations): every
  // subset of a small component, connected subgraphs of a large one.
  std::unordered_set<RelSet> seen;
  for (RelSet comp : components) {
    if (RelSetCount(comp) <= kExhaustiveRelations) {
      const int64_t comp_subsets = (int64_t{1} << RelSetCount(comp)) - 1;
      if (comp_subsets + static_cast<int64_t>(seen.size()) >
          options_.max_subproblems) {
        return OverBudget(options_.max_subproblems);
      }
      for (RelSet sub = comp; sub != 0; sub = (sub - 1) & comp) {
        seen.insert(sub);
      }
    } else {
      HFQ_RETURN_IF_ERROR(GrowConnectedSubsets(
          query_, comp, options_.max_subproblems, &seen));
    }
  }
  // A disconnected graph also cross-combines its k components: 2^k more
  // states, a 3^k split walk.
  const int k = static_cast<int>(components.size());
  if (k > 1 && (int64_t{1} << k) + static_cast<int64_t>(seen.size()) >
                   options_.max_subproblems) {
    return OverBudget(options_.max_subproblems);
  }
  std::vector<RelSet> subsets(seen.begin(), seen.end());
  // Ascending mask order visits every subset before any of its supersets,
  // which is all the DP needs.
  std::sort(subsets.begin(), subsets.end());

  table_.clear();
  table_.reserve(subsets.size());
  access_.clear();
  access_.resize(static_cast<size_t>(n));
  stats_ = PlanGenStats();
  stats_.subproblems = static_cast<int64_t>(subsets.size());
  std::vector<RelSet> neighbors(static_cast<size_t>(n));
  probes_.assign(static_cast<size_t>(n), {});
  for (int rel = 0; rel < n; ++rel) {
    neighbors[static_cast<size_t>(rel)] = query_.NeighborsOf(rel);
    probes_[static_cast<size_t>(rel)] = optimizer_->ProbeCandidates(
        query_, rel,
        query_.JoinPredsBetween(RelSetOf(rel), RelSetAll(n) & ~RelSetOf(rel)));
  }
  CardinalitySource* cards = optimizer_->cost_model()->cards();

  for (RelSet s : subsets) {
    if (RelSetCount(s) == 1) {
      const int rel = std::countr_zero(s);
      PlanNodePtr& scan = access_[static_cast<size_t>(rel)];
      scan = optimizer_->BestAccessPath(query_, rel);
      table_.emplace(s, Entry{scan->est_cost, scan->est_rows, 0, 0});
      continue;
    }
    const double rows = cards->Rows(query_, s);
    Entry best;
    // The walk order (descending submask walk, unordered pairs, outer
    // before swapped orientation) and strict-< replacement decide which
    // plan wins a cost tie; plan_gen_test pins that choice against the
    // DPsize reference. First pass: only splits connected by at least one
    // join predicate. Table lookups run before the predicate test: on
    // sparse graphs most submasks are not subproblems.
    for (RelSet s1 = (s - 1) & s; s1 != 0; s1 = (s1 - 1) & s) {
      const RelSet s2 = s & ~s1;
      if (s1 > s2) continue;
      const auto e1 = table_.find(s1);
      if (e1 == table_.end()) continue;
      const auto e2 = table_.find(s2);
      if (e2 == table_.end()) continue;
      RelSet s1_neighbors = 0;
      for (RelSet rest = s1; rest != 0; rest &= rest - 1) {
        s1_neighbors |= neighbors[static_cast<size_t>(std::countr_zero(rest))];
      }
      if ((s1_neighbors & s2) == 0) continue;
      OfferSplit(s1, e1->second, s2, e2->second, /*connected=*/true, rows,
                 &best);
    }
    // Second pass (only when no predicate-connected split exists): cross
    // products, so the internally-disconnected subsets of the exhaustive
    // regime still plan. Connected subproblems never get here — a
    // connected set of size >= 2 always splits into two connected parts
    // joined by a predicate (drop one spanning-tree edge), both already in
    // the table by ascending mask order.
    if (best.outer == 0) {
      for (RelSet s1 = (s - 1) & s; s1 != 0; s1 = (s1 - 1) & s) {
        const RelSet s2 = s & ~s1;
        if (s1 > s2) continue;
        const auto e1 = table_.find(s1);
        if (e1 == table_.end()) continue;
        const auto e2 = table_.find(s2);
        if (e2 == table_.end()) continue;
        OfferSplit(s1, e1->second, s2, e2->second, /*connected=*/false, rows,
                   &best);
      }
    }
    HFQ_CHECK_MSG(best.outer != 0, "DP subproblem admitted no usable split");
    table_.emplace(s, best);
  }

  // Cross-combination DP over the components, in the same table: every
  // component's output cardinality is fixed by the cardinality model (it
  // depends on the relation set, not the plan), so component-optimal
  // subplans are globally optimal and only the cross-join shape remains to
  // optimize. State m (a mask over components) is the union of its
  // components' relations.
  std::vector<RelSet> unions(size_t{1} << k);
  for (size_t m = 1; m < unions.size(); ++m) {
    unions[m] = unions[m & (m - 1)] |
                components[static_cast<size_t>(std::countr_zero(m))];
    if (std::popcount(m) < 2) continue;
    const double rows = cards->Rows(query_, unions[m]);
    Entry best;
    for (size_t m1 = (m - 1) & m; m1 != 0; m1 = (m1 - 1) & m) {
      const size_t m2 = m & ~m1;
      if (m1 > m2) continue;
      OfferSplit(unions[m1], table_.at(unions[m1]), unions[m2],
                 table_.at(unions[m2]), /*connected=*/false, rows, &best);
    }
    table_.emplace(unions[m], best);
  }
  return Build(RelSetAll(n));
}

}  // namespace hfq
