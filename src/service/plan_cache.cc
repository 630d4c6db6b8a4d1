// Copyright (c) 2026 moqo authors. MIT license.

#include "service/plan_cache.h"

#include <string>
#include <utility>

#include "persist/disk_tier.h"
#include "persist/frontier_codec.h"
#include "rt/failpoint.h"

namespace moqo {

namespace {

/// Accounted footprint of one cache entry: the shared PlanSet (the
/// dominant term — plans plus cost matrix), the stored key, and the
/// index/list bookkeeping around them.
size_t EntryBytes(const ProblemSignature& signature,
                  const CachedFrontier& frontier) {
  size_t bytes = signature.key.capacity() + sizeof(ProblemSignature) +
                 sizeof(CachedFrontier) + sizeof(void*) * 4;
  if (frontier.result != nullptr) {
    bytes += sizeof(OptimizerResult);
    if (frontier.result->plan_set != nullptr) {
      bytes += frontier.result->plan_set->ApproxBytes();
    }
  }
  return bytes;
}

size_t FrontierSize(const CachedFrontier& frontier) {
  return frontier.result != nullptr && frontier.result->plan_set != nullptr
             ? static_cast<size_t>(frontier.result->plan_set->size())
             : 0;
}

}  // namespace

PlanCache::PlanCache() : PlanCache(Options{}) {}

PlanCache::PlanCache(const Options& options) : lru_(options) {}

std::shared_ptr<const CachedFrontier> PlanCache::Lookup(
    const ProblemSignature& signature, double max_alpha, bool record_stats,
    bool* from_tier) {
  if (from_tier != nullptr) *from_tier = false;
  auto entry = lru_.LookupIf(
      signature,
      [max_alpha](const std::shared_ptr<const CachedFrontier>& e) {
        return e != nullptr && e->achieved_alpha <= max_alpha;
      },
      record_stats);
  if (entry != nullptr || tier_ == nullptr) return entry;

  // RAM miss: probe the disk tier under the same relaxed alpha identity.
  std::string payload;
  double achieved_alpha = 0;
  if (!tier_->Take(signature.hash, signature.key, max_alpha, &payload,
                   &achieved_alpha)) {
    return nullptr;
  }
  auto promoted = persist::DecodeFrontierPayload(payload.data(),
                                                 payload.size(),
                                                 achieved_alpha);
  if (promoted == nullptr) return nullptr;
  // Promotion is a real insert (it may evict — and thus demote — colder
  // entries), after which the probe retroactively becomes a hit. The
  // reclassification mirrors the coalescing re-probe contract: only a
  // stats-recorded lookup recorded the miss this converts.
  Insert(signature, promoted);
  tier_hits_.fetch_add(1, std::memory_order_relaxed);
  if (record_stats) lru_.ReclassifyMissAsHit();
  if (from_tier != nullptr) *from_tier = true;
  return promoted;
}

void PlanCache::AttachTier(std::shared_ptr<persist::DiskTier> tier) {
  tier_ = std::move(tier);
  if (tier_ == nullptr) {
    lru_.SetEvictionHook(nullptr);
    return;
  }
  // Demotion: evicted-but-admissible entries fall to disk instead of
  // vanishing. The hook runs outside every shard lock (ShardedLru
  // contract), so the encode + append I/O never blocks cache readers.
  auto tier_ptr = tier_;
  lru_.SetEvictionHook(
      [tier_ptr](const ProblemSignature& key,
                 const std::shared_ptr<const CachedFrontier>& value,
                 size_t /*bytes*/) {
        if (value == nullptr) return;
        std::string payload;
        if (!persist::EncodeFrontierPayload(*value, &payload)) return;
        tier_ptr->Put(persist::RecordKind::kPlanCacheEntry, key.hash, key.key,
                      value->achieved_alpha, payload);
      });
}

void PlanCache::Insert(const ProblemSignature& signature,
                       std::shared_ptr<const CachedFrontier> frontier) {
  // `return_error` drops the insert: the cache is an accelerator, so a
  // lost insert must only cost a future miss, never correctness.
  MOQO_FAILPOINT_RETURN("cache.insert", );
  const size_t bytes =
      frontier != nullptr ? EntryBytes(signature, *frontier) : 0;
  const size_t frontier_size =
      frontier != nullptr ? FrontierSize(*frontier) : 0;
  const double alpha =
      frontier != nullptr ? frontier->achieved_alpha : kAnyAlpha;
  lru_.InsertIf(
      signature, std::move(frontier), bytes, frontier_size,
      [alpha](const std::shared_ptr<const CachedFrontier>& existing) {
        // Tighter-or-equal replaces; a looser re-insert must not downgrade
        // the entry (it only refreshes recency).
        return existing == nullptr || alpha <= existing->achieved_alpha;
      });
}

PlanCache::Stats PlanCache::GetStats() const {
  const auto counters = lru_.GetCounters();
  Stats stats;
  stats.hits = counters.hits;
  stats.misses = counters.misses;
  stats.insertions = counters.insertions;
  stats.evictions = counters.evictions;
  stats.entries = counters.entries;
  stats.bytes = counters.bytes;
  stats.frontier_plans = counters.weight;
  stats.tier_hits = tier_hits_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace moqo
