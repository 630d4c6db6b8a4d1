// Copyright (c) 2026 moqo authors. MIT license.

#include "query/canonical.h"

#include <algorithm>
#include <tuple>
#include <vector>

#include "util/byte_codec.h"

namespace moqo {

void AppendCanonicalString(std::string* out, const std::string& s) {
  PutU64(out, s.size());
  out->append(s);
}

/// Catalog identity by content: the same table id over a differently
/// scaled or differently distributed catalog must not share an encoding.
/// Everything the cost model reads is covered — cardinality, widths,
/// per-column statistics (histograms drive selectivities), and index
/// availability (drives the physical plan space).
void AppendCanonicalTable(std::string* out, const Table& table) {
  AppendCanonicalString(out, table.name());
  PutDouble(out, table.row_count());
  PutDouble(out, table.row_width_bytes());
  PutU64(out, table.columns().size());
  for (const ColumnStats& column : table.columns()) {
    AppendCanonicalString(out, column.name);
    PutDouble(out, column.ndv);
    PutDouble(out, column.min_value);
    PutDouble(out, column.max_value);
    PutDouble(out, column.null_fraction);
    PutDouble(out, column.avg_width_bytes);
    PutU64(out, table.HasIndexOn(column.name) ? 1 : 0);
    const Histogram& histogram = column.histogram;
    PutDouble(out, histogram.lo());
    PutDouble(out, histogram.hi());
    PutU64(out, static_cast<uint64_t>(histogram.num_buckets()));
    for (int b = 0; b < histogram.num_buckets(); ++b) {
      PutDouble(out, histogram.bucket_count(b));
    }
  }
}

void AppendCanonicalQuery(std::string* out, const Query& query) {
  PutU64(out, static_cast<uint64_t>(query.num_tables()));
  for (int i = 0; i < query.num_tables(); ++i) {
    PutU64(out, static_cast<uint64_t>(query.table_id(i)));
    AppendCanonicalTable(out, query.table(i));
  }

  // Normalize each edge so the lexicographically smaller (table, column)
  // endpoint comes first, then sort the edge list: AddJoin(a, b) and
  // AddJoin(b, a) in any order encode identically.
  using Endpoint = std::pair<int, const std::string*>;
  std::vector<std::pair<Endpoint, Endpoint>> edges;
  edges.reserve(query.joins().size());
  for (const JoinPredicate& join : query.joins()) {
    Endpoint a{join.left_table, &join.left_column};
    Endpoint b{join.right_table, &join.right_column};
    if (std::tie(b.first, *b.second) < std::tie(a.first, *a.second)) {
      std::swap(a, b);
    }
    edges.emplace_back(a, b);
  }
  std::sort(edges.begin(), edges.end(),
            [](const auto& x, const auto& y) {
              return std::tie(x.first.first, *x.first.second, x.second.first,
                              *x.second.second) <
                     std::tie(y.first.first, *y.first.second, y.second.first,
                              *y.second.second);
            });
  PutU64(out, edges.size());
  for (const auto& [a, b] : edges) {
    PutU64(out, static_cast<uint64_t>(a.first));
    AppendCanonicalString(out, *a.second);
    PutU64(out, static_cast<uint64_t>(b.first));
    AppendCanonicalString(out, *b.second);
  }

  std::vector<const FilterPredicate*> filters;
  filters.reserve(query.filters().size());
  for (const FilterPredicate& filter : query.filters()) {
    filters.push_back(&filter);
  }
  std::sort(filters.begin(), filters.end(),
            [](const FilterPredicate* x, const FilterPredicate* y) {
              return std::tie(x->table, x->column, x->op, x->value,
                              x->value_hi) < std::tie(y->table, y->column,
                                                      y->op, y->value,
                                                      y->value_hi);
            });
  PutU64(out, filters.size());
  for (const FilterPredicate* filter : filters) {
    PutU64(out, static_cast<uint64_t>(filter->table));
    AppendCanonicalString(out, filter->column);
    PutU64(out, static_cast<uint64_t>(filter->op));
    PutDouble(out, filter->value);
    PutDouble(out, filter->value_hi);
  }
}

std::string CanonicalQueryEncoding(const Query& query) {
  std::string out;
  AppendCanonicalQuery(&out, query);
  return out;
}

}  // namespace moqo
