// Copyright (c) 2026 moqo authors. MIT license.

#include "memo/subplan_memo.h"

#include <limits>
#include <string>
#include <utility>

#include "persist/disk_tier.h"
#include "persist/plan_set_codec.h"
#include "rt/failpoint.h"

namespace moqo {

namespace {

/// Accounted footprint of one memo entry: the shared PlanSet (dominant
/// term), the stored key, and the index/list bookkeeping around them.
size_t EntryBytes(const SubplanSignature& signature, const PlanSet& frontier) {
  return signature.key.capacity() + sizeof(SubplanSignature) +
         sizeof(void*) * 4 + frontier.ApproxBytes();
}

ShardedLru<SubplanSignature, std::shared_ptr<const PlanSet>>::Options
LruOptions(const SubplanMemo::Options& options) {
  ShardedLru<SubplanSignature, std::shared_ptr<const PlanSet>>::Options lru;
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

std::shared_ptr<const PlanSet> SubplanMemo::Lookup(
    const SubplanSignature& signature) {
  auto frontier = lru_.Lookup(signature);
  if (frontier != nullptr || tier_ == nullptr) return frontier;

  // RAM miss: probe the disk tier. Memo keys carry alpha bit-exactly
  // (unlike the plan cache's relaxed identity), so entries demote with
  // alpha 0 and any probe matches — identity is entirely in the key.
  std::string payload;
  if (!tier_->Take(signature.hash, signature.key,
                   std::numeric_limits<double>::infinity(), &payload,
                   nullptr)) {
    return nullptr;
  }
  auto promoted =
      persist::PlanSetCodec::Decode(payload.data(), payload.size(), nullptr);
  if (promoted == nullptr) return nullptr;
  Insert(signature, promoted);
  tier_hits_.fetch_add(1, std::memory_order_relaxed);
  lru_.ReclassifyMissAsHit();
  return promoted;
}

void SubplanMemo::AttachTier(std::shared_ptr<persist::DiskTier> tier) {
  tier_ = std::move(tier);
  if (tier_ == nullptr) {
    lru_.SetEvictionHook(nullptr);
    return;
  }
  auto tier_ptr = tier_;
  lru_.SetEvictionHook(
      [tier_ptr](const SubplanSignature& key,
                 const std::shared_ptr<const PlanSet>& value,
                 size_t /*bytes*/) {
        if (value == nullptr || value->empty()) return;
        std::string payload;
        persist::PlanSetCodec::Append(*value, &payload);
        tier_ptr->Put(persist::RecordKind::kMemoEntry, key.hash, key.key, 0.0,
                      payload);
      });
}

bool SubplanMemo::Admits(const ParetoSet& frontier, double alpha) {
  if (frontier.empty()) return false;
  const size_t plans = static_cast<size_t>(frontier.size());
  if (options_.max_entry_plans != 0 && plans > options_.max_entry_plans) {
    admission_rejects_.fetch_add(1, std::memory_order_relaxed);
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
          admission_rejects_.fetch_add(1, std::memory_order_relaxed);
          return false;
        }
      }
    }
  }
  return true;
}

void SubplanMemo::Insert(const SubplanSignature& signature,
                         std::shared_ptr<const PlanSet> frontier) {
  if (frontier == nullptr) return;
  // `return_error` drops the publish: equal keys imply identical
  // frontiers, so a lost memo entry can only cost future probe misses.
  MOQO_FAILPOINT_RETURN("memo.insert", );
  const size_t bytes = EntryBytes(signature, *frontier);
  const size_t frontier_size = static_cast<size_t>(frontier->size());
  // Equal keys imply byte-identical frontiers, so a refresh only touches
  // recency and (capacity-dependent) accounting.
  lru_.Insert(signature, std::move(frontier), bytes, frontier_size);
}

void SubplanMemo::ObserveCatalog(const void* catalog, uint64_t epoch) {
  MutexLock epoch_lock(epoch_mu_);
  auto [it, first_sighting] = catalog_epochs_.try_emplace(catalog, epoch);
  if (first_sighting || it->second == epoch) return;
  it->second = epoch;
  lru_.Clear();
  invalidations_.fetch_add(1, std::memory_order_relaxed);
}

SubplanMemo::Stats SubplanMemo::GetStats() const {
  const auto counters = lru_.GetCounters();
  Stats stats;
  stats.hits = counters.hits;
  stats.misses = counters.misses;
  stats.insertions = counters.insertions;
  stats.evictions = counters.evictions;
  stats.admission_rejects =
      admission_rejects_.load(std::memory_order_relaxed);
  stats.invalidations = invalidations_.load(std::memory_order_relaxed);
  stats.tier_hits = tier_hits_.load(std::memory_order_relaxed);
  stats.entries = counters.entries;
  stats.bytes = counters.bytes;
  stats.frontier_plans = counters.weight;
  return stats;
}

}  // namespace moqo
