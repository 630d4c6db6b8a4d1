// Copyright (c) 2026 moqo authors. MIT license.

#include "memo/subplan_key.h"

#include <algorithm>
#include <array>
#include <tuple>

#include "query/canonical.h"
#include "util/byte_codec.h"

namespace moqo {

SubplanKeyContext::SubplanKeyContext(
    const Query& query, const ObjectiveSet& objectives, double alpha,
    const OperatorRegistry::Options& operators, bool bushy,
    bool cartesian_heuristic, bool aggressive_delete,
    bool skip_disconnected) {
  // Per-table fragments: content, filters (sorted, table index elided —
  // membership is positional), and the sorted set of join columns incident
  // to this occurrence anywhere in the query (IndexScan applicability and
  // hence the singleton frontier depend on them; see header).
  table_fragments_.resize(query.num_tables());
  for (int t = 0; t < query.num_tables(); ++t) {
    std::string* fragment = &table_fragments_[t];
    AppendCanonicalTable(fragment, query.table(t));

    std::vector<const FilterPredicate*> filters =
        query.FiltersForTable(t);
    std::sort(filters.begin(), filters.end(),
              [](const FilterPredicate* x, const FilterPredicate* y) {
                return std::tie(x->column, x->op, x->value, x->value_hi) <
                       std::tie(y->column, y->op, y->value, y->value_hi);
              });
    PutU64(fragment, filters.size());
    for (const FilterPredicate* filter : filters) {
      AppendCanonicalString(fragment, filter->column);
      PutU64(fragment, static_cast<uint64_t>(filter->op));
      PutDouble(fragment, filter->value);
      PutDouble(fragment, filter->value_hi);
    }

    std::vector<const std::string*> incident;
    for (const JoinPredicate& join : query.joins()) {
      if (join.left_table == t) incident.push_back(&join.left_column);
      if (join.right_table == t) incident.push_back(&join.right_column);
    }
    std::sort(incident.begin(), incident.end(),
              [](const std::string* x, const std::string* y) {
                return *x < *y;
              });
    incident.erase(std::unique(incident.begin(), incident.end(),
                               [](const std::string* x,
                                  const std::string* y) { return *x == *y; }),
                   incident.end());
    PutU64(fragment, incident.size());
    for (const std::string* column : incident) {
      AppendCanonicalString(fragment, *column);
    }
  }

  // Edges, normalized (lexicographically smaller endpoint first) and
  // sorted — AddJoin(a, b) vs AddJoin(b, a) and join insertion order wash
  // out here, exactly as in the whole-query encoding.
  edges_.reserve(query.joins().size());
  for (const JoinPredicate& join : query.joins()) {
    Edge edge{join.left_table, join.right_table, &join.left_column,
              &join.right_column};
    if (std::tie(edge.right_table, *edge.right_column) <
        std::tie(edge.left_table, *edge.left_column)) {
      std::swap(edge.left_table, edge.right_table);
      std::swap(edge.left_column, edge.right_column);
    }
    edges_.push_back(edge);
  }
  std::sort(edges_.begin(), edges_.end(), [](const Edge& x, const Edge& y) {
    return std::tie(x.left_table, *x.left_column, x.right_table,
                    *x.right_column) < std::tie(y.left_table, *y.left_column,
                                                y.right_table,
                                                *y.right_column);
  });

  // Run-wide suffix. The objectives go in ascending order, so every order
  // of one set keys alike (see header). alpha_i is encoded bit-exactly:
  // the sealed frontier of every table set depends on the pruning
  // precision, so "close" alphas must not share entries. The cost-model
  // constants are fixed and not encoded (model/cost_model.cc).
  std::vector<Objective> sorted(objectives.begin(), objectives.end());
  std::sort(sorted.begin(), sorted.end());
  PutU64(&suffix_, static_cast<uint64_t>(sorted.size()));
  for (Objective objective : sorted) {
    PutU64(&suffix_, static_cast<uint64_t>(objective));
  }
  PutDouble(&suffix_, alpha);
  uint64_t flags = 0;
  flags |= bushy ? 1u : 0u;
  flags |= cartesian_heuristic ? 2u : 0u;
  flags |= aggressive_delete ? 4u : 0u;
  flags |= skip_disconnected ? 8u : 0u;
  flags |= operators.enable_sampling ? 16u : 0u;
  flags |= operators.enable_index_scan ? 32u : 0u;
  flags |= operators.enable_parallelism ? 64u : 0u;
  PutU64(&suffix_, flags);
  PutU64(&suffix_, operators.sampling_rates.size());
  for (double rate : operators.sampling_rates) {
    PutDouble(&suffix_, rate);
  }
  PutU64(&suffix_, operators.dops.size());
  for (int dop : operators.dops) {
    PutU64(&suffix_, static_cast<uint64_t>(dop));
  }
}

SubplanSignature SubplanKeyContext::SignatureFor(TableSet tables) const {
  // Dense ranks: member local index -> position in ascending member order.
  // Order-preserving, so split enumeration (mask order) and hence the
  // approximate frontier's insertion order are identical in rank space.
  std::array<int, TableSet::kMaxTables> rank_of;
  const std::vector<int> members = tables.Members();
  for (size_t r = 0; r < members.size(); ++r) {
    rank_of[members[r]] = static_cast<int>(r);
  }

  SubplanSignature signature;
  std::string& key = signature.key;
  size_t reserve = suffix_.size() + 64;
  for (int member : members) reserve += table_fragments_[member].size();
  key.reserve(reserve);

  PutU64(&key, members.size());
  for (int member : members) {
    key.append(table_fragments_[member]);
  }

  // Induced edges in rank space. edges_ is sorted and rank mapping is
  // monotone in both endpoints, so the filtered sequence is already in
  // canonical order.
  const auto induced = [tables](const Edge& edge) {
    return tables.Contains(edge.left_table) &&
           tables.Contains(edge.right_table);
  };
  PutU64(&key, static_cast<uint64_t>(
                   std::count_if(edges_.begin(), edges_.end(), induced)));
  for (const Edge& edge : edges_) {
    if (!induced(edge)) continue;
    PutU64(&key, static_cast<uint64_t>(rank_of[edge.left_table]));
    AppendCanonicalString(&key, *edge.left_column);
    PutU64(&key, static_cast<uint64_t>(rank_of[edge.right_table]));
    AppendCanonicalString(&key, *edge.right_column);
  }

  key.append(suffix_);
  signature.hash = Fnv1a(key.data(), key.size(), kFnv1aOffsetBasis);
  return signature;
}

}  // namespace moqo
