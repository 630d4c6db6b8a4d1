// Copyright (c) 2026 moqo authors. MIT license.
//
// Query: the optimizer input. A query binds a set of base tables (by
// catalog id) together with join and filter predicates; the induced join
// graph drives split enumeration and the Cartesian-product heuristic that
// the paper kept in place (Section 4).

#ifndef MOQO_QUERY_QUERY_H_
#define MOQO_QUERY_QUERY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "query/predicate.h"
#include "util/mutex.h"
#include "util/table_set.h"

namespace moqo {

/// A query's canonical form (query/canonical.h): what both cache keys are
/// cut from. The plan-cache key extends `bytes` (service/signature.h); a
/// memo key concatenates its members' `tables` fragments and its induced
/// `edges` (memo/subplan_key.h). The form owns every byte it holds, so it
/// may outlive an edit of its query, or the query itself.
struct CanonicalQueryForm {
  /// One query-local table's memo fragment: its content, which `bytes`
  /// holds at [content_begin, content_begin + content_size), then `rest`:
  /// its filters (sorted, table index elided) and its sorted incident join
  /// columns. A form lives as long as its query, so the content is not
  /// stored twice.
  struct TableFragment {
    size_t size() const { return content_size + rest.size(); }

    size_t content_begin = 0;
    size_t content_size = 0;
    std::string rest;
  };

  /// The whole-query encoding.
  std::string bytes;
  /// FNV-1a state after hashing `bytes` from kFnv1aOffsetBasis, so a key
  /// that extends the encoding hashes only its own suffix.
  uint64_t hash = 0;
  std::vector<TableFragment> tables;
  /// Join edges, each with its smaller (table, column) endpoint first,
  /// sorted by (left, left column, right, right column).
  std::vector<JoinPredicate> edges;
};

/// A join query over tables of a Catalog.
///
/// Tables are referenced by *query-local* indexes 0..n-1 (multiple
/// occurrences of the same base table, as in TPC-H Q21's self-joins of
/// lineitem, get distinct local indexes).
///
/// The canonical form is cached: built on the first CanonicalForm() call
/// and reused until an edit (AddTable/AddJoin/AddFilter or assignment)
/// drops it. Concurrent const use, including CanonicalForm(), is safe.
/// Copies and moves start without a cached form.
class Query {
 public:
  Query(const Catalog* catalog, std::string name)
      : catalog_(catalog), name_(std::move(name)) {}

  /// Adds an occurrence of catalog table `table_id`; returns its
  /// query-local index.
  int AddTable(int table_id);

  /// Convenience overload resolving the table by name. Aborts if unknown.
  int AddTable(const std::string& table_name);

  void AddJoin(int left_table, std::string left_column, int right_table,
               std::string right_column);
  void AddFilter(FilterPredicate filter);

  const std::string& name() const { return name_; }
  int num_tables() const { return static_cast<int>(table_ids_.size()); }

  /// Catalog id of query-local table `local_index`.
  int table_id(int local_index) const { return table_ids_[local_index]; }
  const Table& table(int local_index) const {
    return catalog_->table(table_ids_[local_index]);
  }

  const std::vector<JoinPredicate>& joins() const { return joins_; }
  const std::vector<FilterPredicate>& filters() const { return filters_; }

  /// The set of all query-local tables.
  TableSet AllTables() const { return TableSet::Prefix(num_tables()); }

  /// True iff at least one join predicate connects `a` and `b`; used by the
  /// heuristic that considers Cartesian products only when no predicate-
  /// connected split exists.
  bool SplitHasJoinPredicate(TableSet a, TableSet b) const;

  /// All join predicates applicable to the split (a, b).
  std::vector<const JoinPredicate*> JoinsForSplit(TableSet a,
                                                  TableSet b) const;

  /// Filters on query-local table `local_index`.
  std::vector<const FilterPredicate*> FiltersForTable(int local_index) const;

  /// True iff the join graph is connected (queries with product-only
  /// subplans are legal but flagged by validation).
  bool JoinGraphConnected() const;

  /// True iff the join graph restricted to `tables` is connected. The DP
  /// drivers skip disconnected subsets when the full graph is connected
  /// (the Postgres behaviour behind the paper's Cartesian-product
  /// heuristic: such sets could only be built by Cartesian products while
  /// predicate-connected joins are available).
  bool InducedSubgraphConnected(TableSet tables) const;

  std::string ToString() const;

  /// The canonical form of this query, built on first use and rebuilt
  /// only after an edit. Equal to a from-scratch BuildCanonicalQueryForm;
  /// every plan-cache key and every DP run's memo keys read it.
  std::shared_ptr<const CanonicalQueryForm> CanonicalForm() const;

 private:
  /// Holds the cached form. Copying yields an empty cache and assigning
  /// empties the destination's, so Query keeps its implicit copy and move
  /// members and a copy never carries a form for content it may diverge
  /// from.
  struct FormCache {
    FormCache() = default;
    FormCache(const FormCache&) noexcept {}
    FormCache& operator=(const FormCache&) {
      Clear();
      return *this;
    }
    void Clear() {
      MutexLock lock(mu);
      form.reset();
    }

    Mutex mu;
    std::shared_ptr<const CanonicalQueryForm> form MOQO_GUARDED_BY(mu);
  };

  const Catalog* catalog_;
  std::string name_;
  std::vector<int> table_ids_;
  std::vector<JoinPredicate> joins_;
  std::vector<FilterPredicate> filters_;
  mutable FormCache canonical_;
};

}  // namespace moqo

#endif  // MOQO_QUERY_QUERY_H_
