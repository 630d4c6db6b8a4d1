// Copyright (c) 2026 moqo authors. MIT license.

#include "query/canonical.h"

#include <algorithm>
#include <set>
#include <string_view>
#include <tuple>
#include <vector>

#include "util/byte_codec.h"

namespace moqo {
namespace {

/// Catalog identity by content: the same table id over a differently
/// scaled or differently distributed catalog must not share an encoding.
/// Everything the cost model reads is covered — cardinality, widths,
/// per-column statistics (histograms drive selectivities), and index
/// availability (drives the physical plan space; Table::HasIndexOn counts
/// an index only on a column with statistics, so every usable index is
/// recorded here).
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

/// A filter without its table index: `bytes` puts the index in front, a
/// memo fragment leaves it out (membership is positional).
void AppendCanonicalFilter(std::string* out, const FilterPredicate& filter) {
  AppendCanonicalString(out, filter.column);
  PutU64(out, static_cast<uint64_t>(filter.op));
  PutDouble(out, filter.value);
  PutDouble(out, filter.value_hi);
}

}  // namespace

void AppendCanonicalString(std::string* out, std::string_view s) {
  PutU64(out, s.size());
  out->append(s);
}

void AppendCanonicalOperatorLists(std::string* out,
                                  const OperatorRegistry::Options& operators) {
  PutU64(out, operators.sampling_rates.size());
  for (double rate : operators.sampling_rates) {
    PutDouble(out, rate);
  }
  PutU64(out, operators.dops.size());
  for (int dop : operators.dops) {
    PutU64(out, static_cast<uint64_t>(dop));
  }
}

CanonicalQueryForm BuildCanonicalQueryForm(const Query& query) {
  CanonicalQueryForm form;

  // Normalize each edge so the lexicographically smaller (table, column)
  // endpoint comes first, then sort the edge list: AddJoin(a, b) and
  // AddJoin(b, a) in any order encode identically.
  form.edges = query.joins();
  for (JoinPredicate& edge : form.edges) {
    if (std::tie(edge.right_table, edge.right_column) <
        std::tie(edge.left_table, edge.left_column)) {
      std::swap(edge.left_table, edge.right_table);
      std::swap(edge.left_column, edge.right_column);
    }
  }
  std::sort(form.edges.begin(), form.edges.end(),
            [](const JoinPredicate& x, const JoinPredicate& y) {
              return std::tie(x.left_table, x.left_column, x.right_table,
                              x.right_column) <
                     std::tie(y.left_table, y.left_column, y.right_table,
                              y.right_column);
            });

  // Filters sorted by table first, so each table's filters form one run in
  // (column, op, value, value_hi) order.
  std::vector<FilterPredicate> filters = query.filters();
  std::sort(filters.begin(), filters.end(),
            [](const FilterPredicate& x, const FilterPredicate& y) {
              return std::tie(x.table, x.column, x.op, x.value, x.value_hi) <
                     std::tie(y.table, y.column, y.op, y.value, y.value_hi);
            });

  // A table's content follows its id in `bytes` and starts its memo
  // fragment. The fragment's rest holds the table's filters and the sorted
  // set of join columns incident to this occurrence anywhere in the query
  // (IndexScan applicability, and hence the singleton frontier, depends on
  // them; see memo/subplan_key.h).
  std::vector<std::set<std::string_view>> incident(query.num_tables());
  for (const JoinPredicate& edge : form.edges) {
    incident[edge.left_table].insert(edge.left_column);
    incident[edge.right_table].insert(edge.right_column);
  }
  PutU64(&form.bytes, static_cast<uint64_t>(query.num_tables()));
  form.tables.resize(query.num_tables());
  auto next_filter = filters.begin();
  for (int t = 0; t < query.num_tables(); ++t) {
    CanonicalQueryForm::TableFragment& fragment = form.tables[t];
    PutU64(&form.bytes, static_cast<uint64_t>(query.table_id(t)));
    fragment.content_begin = form.bytes.size();
    AppendCanonicalTable(&form.bytes, query.table(t));
    fragment.content_size = form.bytes.size() - fragment.content_begin;

    const auto run_end =
        std::find_if(next_filter, filters.end(),
                     [t](const FilterPredicate& f) { return f.table != t; });
    PutU64(&fragment.rest, static_cast<uint64_t>(run_end - next_filter));
    for (; next_filter != run_end; ++next_filter) {
      AppendCanonicalFilter(&fragment.rest, *next_filter);
    }

    PutU64(&fragment.rest, incident[t].size());
    for (std::string_view column : incident[t]) {
      AppendCanonicalString(&fragment.rest, column);
    }
  }

  PutU64(&form.bytes, form.edges.size());
  for (const JoinPredicate& edge : form.edges) {
    PutU64(&form.bytes, static_cast<uint64_t>(edge.left_table));
    AppendCanonicalString(&form.bytes, edge.left_column);
    PutU64(&form.bytes, static_cast<uint64_t>(edge.right_table));
    AppendCanonicalString(&form.bytes, edge.right_column);
  }

  PutU64(&form.bytes, filters.size());
  for (const FilterPredicate& filter : filters) {
    PutU64(&form.bytes, static_cast<uint64_t>(filter.table));
    AppendCanonicalFilter(&form.bytes, filter);
  }

  // The form lives as long as its query: drop the encoding's growth slack.
  form.bytes.shrink_to_fit();
  form.hash = Fnv1a(form.bytes.data(), form.bytes.size(), kFnv1aOffsetBasis);
  return form;
}

std::string CanonicalQueryEncoding(const Query& query) {
  return BuildCanonicalQueryForm(query).bytes;
}

}  // namespace moqo
