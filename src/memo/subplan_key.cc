// Copyright (c) 2026 moqo authors. MIT license.

#include "memo/subplan_key.h"

#include <algorithm>
#include <array>
#include <vector>

#include "query/canonical.h"
#include "util/byte_codec.h"

namespace moqo {

SubplanKeyContext::SubplanKeyContext(
    const Query& query, const ObjectiveSet& objectives, double alpha,
    const OperatorRegistry::Options& operators, bool bushy,
    bool cartesian_heuristic, bool aggressive_delete,
    bool skip_disconnected)
    : form_(query.CanonicalForm()) {
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
  AppendCanonicalOperatorLists(&suffix_, operators);
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
  for (int member : members) reserve += form_->tables[member].size();
  key.reserve(reserve);

  PutU64(&key, members.size());
  for (int member : members) {
    const CanonicalQueryForm::TableFragment& table = form_->tables[member];
    key.append(form_->bytes, table.content_begin, table.content_size);
    key.append(table.rest);
  }

  // Induced edges in rank space. The form's edges are sorted and rank
  // mapping is monotone in both endpoints, so the filtered sequence is
  // already in canonical order.
  const std::vector<JoinPredicate>& edges = form_->edges;
  const auto induced = [tables](const JoinPredicate& edge) {
    return tables.Contains(edge.left_table) &&
           tables.Contains(edge.right_table);
  };
  PutU64(&key, static_cast<uint64_t>(
                   std::count_if(edges.begin(), edges.end(), induced)));
  for (const JoinPredicate& edge : edges) {
    if (!induced(edge)) continue;
    PutU64(&key, static_cast<uint64_t>(rank_of[edge.left_table]));
    AppendCanonicalString(&key, edge.left_column);
    PutU64(&key, static_cast<uint64_t>(rank_of[edge.right_table]));
    AppendCanonicalString(&key, edge.right_column);
  }

  key.append(suffix_);
  signature.hash = Fnv1a(key.data(), key.size(), kFnv1aOffsetBasis);
  return signature;
}

}  // namespace moqo
