// Copyright (c) 2026 moqo authors. MIT license.
//
// Canonical binary encoding of a query's optimizer-relevant structure.
//
// Two Query objects that bind the same catalog tables with the same join
// edges and filters — regardless of construction order of joins/filters or
// the query's display name — produce byte-identical encodings. The service
// layer keys its plan cache on this encoding (plus problem parameters), so
// structurally identical requests share cached Pareto sets. The subplan
// memo cuts its table-set keys from the same form (memo/subplan_key.h):
// one builder normalizes a query for both caches, once per query.

#ifndef MOQO_QUERY_CANONICAL_H_
#define MOQO_QUERY_CANONICAL_H_

#include <string>
#include <string_view>

#include "plan/operators.h"
#include "query/query.h"

namespace moqo {

/// Appends a u64-length-prefixed string to a canonical encoding. Integers
/// and doubles go in through util/byte_codec.h (PutU64, PutDouble), and
/// every canonical cache key (service/signature, memo/subplan_key) hashes
/// with Fnv1a seeded by kFnv1aOffsetBasis.
void AppendCanonicalString(std::string* out, std::string_view s);

/// Appends the operator space's sampling rates and DOPs, in order: the
/// lists both cache keys encode after their flag words, which differ.
void AppendCanonicalOperatorLists(std::string* out,
                                  const OperatorRegistry::Options& operators);

/// Builds `query`'s canonical form from scratch, in one pass that orients
/// and sorts the edges once, sorts the filters once and encodes each table
/// once. `bytes` holds the referenced tables in query-local order — catalog
/// id, then everything the cost model reads from the catalog (name,
/// cardinality, widths, per-column statistics and histograms, index
/// availability), so the same table ids over differently scaled or
/// differently distributed catalogs encode differently — then the sorted
/// edges, then the sorted filters. The query name is deliberately
/// excluded. A table's content bytes also start its `tables` fragment.
/// Query::CanonicalForm() caches the result per query.
CanonicalQueryForm BuildCanonicalQueryForm(const Query& query);

/// The whole-query bytes of a from-scratch build: the reference the
/// cached form is checked against.
std::string CanonicalQueryEncoding(const Query& query);

}  // namespace moqo

#endif  // MOQO_QUERY_CANONICAL_H_
