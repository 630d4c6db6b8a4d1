// Copyright (c) 2026 moqo authors. MIT license.

#include "memo/subplan_memo.h"

#include "persist/plan_set_codec.h"
#include "rt/failpoint.h"

namespace moqo {

bool MemoEntryCodec::Encode(const PlanSet& frontier, std::string* out) {
  if (frontier.empty()) return false;
  persist::PlanSetCodec::Append(frontier, out);
  return true;
}

std::shared_ptr<const PlanSet> MemoEntryCodec::Decode(std::string_view payload,
                                                      double /*alpha*/) {
  return persist::PlanSetCodec::Decode(payload.data(), payload.size(),
                                       nullptr);
}

bool MemoEntryCodec::DropInsert() {
  // Equal keys imply identical frontiers, so a lost memo entry can only
  // cost future probe misses.
  return MOQO_FAILPOINT_HIT("memo.insert");
}

namespace {

/// The storage limits of `options`; the rest is the memo's own policy.
auto LruOptions(const SubplanMemo::Options& options) {
  persist::TieredLru<PlanSet, MemoEntryCodec>::Options lru;
  lru.capacity = options.capacity;
  lru.capacity_bytes = options.capacity_bytes;
  lru.shards = options.shards;
  return lru;
}

}  // namespace

SubplanMemo::SubplanMemo() : SubplanMemo(Options{}) {}

SubplanMemo::SubplanMemo(const Options& options)
    : options_(options), lru_(LruOptions(options)) {
  if (options_.min_tables < 2) options_.min_tables = 2;
}

bool SubplanMemo::Admits(const ParetoSet& frontier, double alpha) {
  if (frontier.empty()) return false;
  const size_t plans = static_cast<size_t>(frontier.size());
  if (options_.max_entry_plans != 0 && plans > options_.max_entry_plans) {
    stats_.admission_rejects.Add();
    return false;
  }
  // Epsilon compactness: reject if any plan is (1+eps)-dominated by an
  // earlier one — the greedy cover of CompactPlanSet would drop it, so the
  // frontier is denser than the service resolves anyway. Approximate
  // frontiers are compact at alpha - 1 by construction (the DP refused
  // every candidate alpha-dominated by a stored plan), which caps the
  // effective epsilon — so the scan is skipped for alpha > 1 and only
  // exact frontiers pay it (early-out on the first dense pair; the accept
  // path is O(n^2 * dims) over frontiers that passed the size cut).
  if (options_.admission_epsilon > 0 && alpha <= 1.0) {
    const double factor = 1.0 + options_.admission_epsilon;
    for (int i = 1; i < frontier.size(); ++i) {
      const CostVector cost = frontier.cost_at(i);
      for (int k = 0; k < i; ++k) {
        if (ApproxDominates(frontier.cost_at(k), cost, factor)) {
          stats_.admission_rejects.Add();
          return false;
        }
      }
    }
  }
  return true;
}

void SubplanMemo::ObserveCatalog(const void* catalog, uint64_t epoch) {
  MutexLock epoch_lock(epoch_mu_);
  auto [it, first_sighting] = catalog_epochs_.try_emplace(catalog, epoch);
  if (first_sighting || it->second == epoch) return;
  it->second = epoch;
  lru_.Clear();
  stats_.invalidations.Add();
}

SubplanMemo::Stats SubplanMemo::GetStats() const {
  Stats stats = stats_;
  static_cast<persist::TieredStats&>(stats) = lru_.GetStats();
  return stats;
}

}  // namespace moqo
