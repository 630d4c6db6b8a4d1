// Copyright (c) 2026 moqo authors. MIT license.
//
// Canonical binary encoding of a query's optimizer-relevant structure.
//
// Two Query objects that bind the same catalog tables with the same join
// edges and filters — regardless of construction order of joins/filters or
// the query's display name — produce byte-identical encodings. The service
// layer keys its plan cache on this encoding (plus problem parameters), so
// structurally identical requests share cached Pareto sets.

#ifndef MOQO_QUERY_CANONICAL_H_
#define MOQO_QUERY_CANONICAL_H_

#include <cstdint>
#include <string>

#include "query/query.h"

namespace moqo {

/// Appends a u64-length-prefixed string to a canonical encoding. Integers
/// and doubles go in through util/byte_codec.h (PutU64, PutDouble), and
/// every canonical cache key (service/signature, memo/subplan_key) hashes
/// with Fnv1a seeded by kFnv1aOffsetBasis.
void AppendCanonicalString(std::string* out, const std::string& s);

/// Appends the canonical *content* encoding of one catalog table:
/// everything the cost model reads (name, cardinality, widths, per-column
/// statistics and histograms, index availability). Identity is by content,
/// so the same table id over a differently scaled or differently
/// distributed catalog encodes differently. Shared by the whole-query
/// encoding below and the table-set-level subplan memo keys.
void AppendCanonicalTable(std::string* out, const Table& table);

/// Appends the canonical encoding of `query`'s structure to `out`:
/// referenced tables in query-local order — including everything the cost
/// model reads from the catalog (cardinality, widths, per-column
/// statistics and histograms, index availability), so the same table ids
/// over differently scaled or differently distributed catalogs encode
/// differently — then join edges with endpoints ordered and the edge list
/// sorted, then filters sorted. The query name is deliberately excluded.
/// Encodes from scratch; Query::CanonicalForm() caches the result per
/// query.
void AppendCanonicalQuery(std::string* out, const Query& query);

/// Convenience wrapper returning a from-scratch encoding of just the
/// query structure.
std::string CanonicalQueryEncoding(const Query& query);

}  // namespace moqo

#endif  // MOQO_QUERY_CANONICAL_H_
