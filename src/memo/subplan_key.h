// Copyright (c) 2026 moqo authors. MIT license.
//
// Canonical table-set signatures: the cache key of the cross-query
// SubplanMemo (memo/subplan_memo.h).
//
// A signature captures *everything* that determines the sealed approximate
// Pareto set the DP builds for one table set — so that equal keys imply
// byte-identical frontiers, across requests and across queries:
//
//   * Per member table, in ascending query-local order, its fragment of
//     the query's canonical form (query/canonical.h): the table's full
//     canonical content (statistics, histograms, indexes), its filter
//     predicates, and the set of join columns incident to it ANYWHERE in
//     the query. The last part is easy to get wrong: IndexScan
//     applicability consults every join predicate touching a table,
//     including joins to tables outside the set, so two occurrences of the
//     same table joined on different columns have different singleton
//     frontiers.
//   * The join-predicate subgraph induced by the set, with member tables
//     renumbered to dense ranks 0..k-1 (rank = position in ascending
//     local-index order) and edges normalized and sorted, exactly like the
//     whole-query encoding.
//   * The objective set, in ascending Objective order whatever order the
//     request lists it in. The set decides the costs; the order decides
//     neither which candidates survive (pruning compares cost vectors one
//     component at a time) nor an entry's contents (it holds no costs, and
//     a hit prices its candidates in the run's own column order).
//   * The DP's *internal* pruning precision alpha_i bit-exactly
//     (approximate frontiers depend on it — note the RTA derives alpha_i
//     from the WHOLE query's table count, so only same-sized queries share
//     RTA entries; exact runs share across all sizes), the plan-space
//     switches (bushy, Cartesian heuristic, aggressive deletion), the
//     operator space options (they determine the dense config-id mapping
//     plans embed), and whether the run skips disconnected subsets
//     (derived from whole-query connectivity, which changes which splits
//     have sub-plans).
//
// Invariances (tested in tests/memo/subplan_memo_test.cc): signatures are
// independent of the query name, of join/filter *insertion order*, of
// AddJoin argument order, of the order of the objectives, and of index
// *translation* — the same subgraph embedded at different local indices
// with the same relative order keys identically (dense ranks). The
// whole-query plan cache stays order-sensitive: a cached PlanSet keeps
// its cost columns in its request's order. Signatures are deliberately
// NOT invariant under member *reordering*: the DP enumerates splits in
// mask order, approximate pruning depends on that insertion order, and
// equal keys must guarantee byte-identical frontiers — a reordered
// embedding builds a (equally valid, but different) frontier and must
// therefore key differently.

#ifndef MOQO_MEMO_SUBPLAN_KEY_H_
#define MOQO_MEMO_SUBPLAN_KEY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "cost/objective.h"
#include "plan/operators.h"
#include "query/query.h"
#include "util/byte_codec.h"
#include "util/table_set.h"

namespace moqo {

/// The canonical table-set key (CanonicalKey: the full key defines
/// equality, so hash collisions never alias two sub-problems).
using SubplanSignature = CanonicalKey;

/// Per-run context for building table-set signatures. The per-table
/// fragments and the normalized edges come from the query's cached
/// canonical form (Query::CanonicalForm), built once per query; the
/// context encodes only the run's suffix. So each SignatureFor() is a
/// concatenation plus one hash, and no run re-encodes catalog statistics.
/// The context shares ownership of the form, so it may outlive the query.
class SubplanKeyContext {
 public:
  SubplanKeyContext(const Query& query, const ObjectiveSet& objectives,
                    double alpha, const OperatorRegistry::Options& operators,
                    bool bushy, bool cartesian_heuristic,
                    bool aggressive_delete, bool skip_disconnected);

  /// The canonical signature of optimizing `tables` under this context.
  SubplanSignature SignatureFor(TableSet tables) const;

 private:
  /// The query's per-table fragments and its sorted edges: the induced
  /// subgraph of any set is a sorted subsequence, and dense-rank
  /// renumbering is order-preserving, so per-set edges need no re-sort.
  std::shared_ptr<const CanonicalQueryForm> form_;
  /// Objectives (ascending), alpha_i, plan-space/operator-space switches.
  std::string suffix_;
};

}  // namespace moqo

#endif  // MOQO_MEMO_SUBPLAN_KEY_H_
