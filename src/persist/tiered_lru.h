// Copyright (c) 2026 moqo authors. MIT license.
//
// TieredLru: the one cache core behind both frontier caches — the
// whole-query PlanCache (service/plan_cache.h) and the cross-query
// SubplanMemo (memo/subplan_memo.h).
//
// Both keep immutable shared frontiers under CanonicalKeys and want the
// same behaviour around them: the sharded, byte-budgeted LRU
// (util/sharded_lru.h) with the relaxed alpha identity (an entry serves
// every lookup whose required alpha is at least the entry's tag) and
// equal-or-tighter replacement (a re-insert replaces the stored value
// only if it is at least as tight, so refinement never downgrades an
// entry); the optional RAM→disk DiskTier, demoting evicted entries and
// promoting them back on a RAM miss; and snapshot export and restore.
// This template is the only code that does any of that. A value type
// supplies just a codec of static functions:
//
//   static constexpr RecordKind kKind;      // its snapshot/tier record kind
//   static double Alpha(const Value&);      // alpha tag; inline, because the
//                                           // RAM-hit path calls it
//   static size_t Plans(const Value&);      // summed into frontier_plans
//   static size_t Footprint(const Value&);  // accounted bytes of the value
//   static bool Encode(const Value&, std::string* out);
//       // payload bytes; false (nothing appended) = not worth persisting
//   static std::shared_ptr<const Value> Decode(std::string_view payload,
//                                              double alpha);
//       // null on malformed input; never throws
//   static bool DropInsert();               // the owner's insert failpoint
//
// Memo entries carry their precision bit-exactly inside the key, so the
// memo codec tags every entry alpha 0: any lookup admits it and any
// re-insert replaces it — plain keyed identity falls out as a special
// case. An entry is accounted at key.capacity() + sizeof(CanonicalKey) +
// four pointers of index/list bookkeeping + the codec's Footprint.

#ifndef MOQO_PERSIST_TIERED_LRU_H_
#define MOQO_PERSIST_TIERED_LRU_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "persist/disk_tier.h"
#include "persist/format.h"
#include "persist/snapshot.h"
#include "util/byte_codec.h"
#include "util/sharded_lru.h"

namespace moqo {
namespace persist {

/// Counter snapshot of one TieredLru.
struct TieredStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  size_t entries = 0;
  /// Accounted bytes of all resident entries.
  size_t bytes = 0;
  /// Sum of resident entries' frontier sizes; bytes / entries and
  /// frontier_plans / entries are the per-entry means.
  size_t frontier_plans = 0;
  /// Lookups that missed RAM but were served (and promoted back) from the
  /// attached disk tier. Counted inside `hits` as well — a tier hit is
  /// reclassified from the miss it first recorded.
  uint64_t tier_hits = 0;

  double HitRate() const {
    const uint64_t lookups = hits + misses;
    return lookups == 0 ? 0 : static_cast<double>(hits) / lookups;
  }
};

template <typename Value, typename Codec>
class TieredLru {
 public:
  using Options =
      typename ShardedLru<CanonicalKey, std::shared_ptr<const Value>>::Options;
  using Stats = TieredStats;

  /// Accepts any alpha tag (plain keyed lookup).
  static constexpr double kAnyAlpha = std::numeric_limits<double>::infinity();

  TieredLru() : TieredLru(Options{}) {}
  explicit TieredLru(const Options& options) : lru_(options) {}

  TieredLru(const TieredLru&) = delete;
  TieredLru& operator=(const TieredLru&) = delete;

  /// Returns the value stored for `key` (promoting it to most recently
  /// used) if its alpha tag is <= `max_alpha`, nullptr otherwise. A
  /// present-but-too-loose entry counts as (and behaves like) a miss; the
  /// caller's tighter run then upgrades it via Insert. `record_stats` =
  /// false skips the hit/miss counters — the service's coalescing re-probe
  /// uses it so each request records exactly one lookup. With a tier
  /// attached, a RAM miss probes the tier under the same alpha gate; a
  /// tier hit is re-inserted into RAM (it may evict, and so demote, colder
  /// entries), reclassifies the recorded miss as a hit (only when
  /// `record_stats` — an uncounted probe stays uncounted), and sets
  /// `*from_tier`.
  std::shared_ptr<const Value> Lookup(const CanonicalKey& key,
                                      double max_alpha = kAnyAlpha,
                                      bool record_stats = true,
                                      bool* from_tier = nullptr) {
    if (from_tier != nullptr) *from_tier = false;
    std::shared_ptr<const Value> value = lru_.LookupIf(
        key,
        [max_alpha](const std::shared_ptr<const Value>& entry) {
          return entry != nullptr && Codec::Alpha(*entry) <= max_alpha;
        },
        record_stats);
    if (value != nullptr || tier_ == nullptr) return value;

    std::string payload;
    double alpha = 0;
    if (!tier_->Take(key.hash, key.key, max_alpha, &payload, &alpha)) {
      return nullptr;
    }
    value = Codec::Decode(payload, alpha);
    if (value == nullptr) return nullptr;
    Insert(key, value);
    tier_hits_.fetch_add(1, std::memory_order_relaxed);
    if (record_stats) lru_.ReclassifyMissAsHit();
    if (from_tier != nullptr) *from_tier = true;
    return value;
  }

  /// Converts one recorded miss into a hit. The service calls this when
  /// its uncounted coalescing re-probe finds an entry inserted after the
  /// request's first (miss-counted) lookup, so that request's net
  /// contribution is one hit — preserving hits + misses == lookups.
  void ReclassifyMissAsHit() { lru_.ReclassifyMissAsHit(); }

  /// Inserts `value` for `key`, evicting least-recently-used entries of
  /// the target shard until it fits. An existing entry is replaced only if
  /// `value` is at least as tight (alpha tag <=); a looser re-insert just
  /// refreshes recency. Null values and inserts dropped by the codec's
  /// failpoint store nothing: the cache is an accelerator, so a lost
  /// insert only costs a future miss.
  void Insert(const CanonicalKey& key, std::shared_ptr<const Value> value) {
    if (value == nullptr || Codec::DropInsert()) return;
    const double alpha = Codec::Alpha(*value);
    const size_t bytes = key.key.capacity() + sizeof(CanonicalKey) +
                         sizeof(void*) * 4 + Codec::Footprint(*value);
    const size_t plans = Codec::Plans(*value);
    lru_.InsertIf(key, std::move(value), bytes, plans,
                  [alpha](const std::shared_ptr<const Value>& existing) {
                    return existing == nullptr ||
                           alpha <= Codec::Alpha(*existing);
                  });
  }

  /// Attaches the RAM→disk tier: evicted entries are encoded and appended
  /// to `tier`, RAM misses probe it. Call before concurrent use; nullptr
  /// detaches. The demotion runs outside every shard lock (ShardedLru's
  /// eviction-hook contract), so encode + append I/O never blocks readers.
  void AttachTier(std::shared_ptr<DiskTier> tier) {
    tier_ = std::move(tier);
    if (tier_ == nullptr) {
      lru_.SetEvictionHook(nullptr);
      return;
    }
    lru_.SetEvictionHook(
        [tier = tier_](const CanonicalKey& key,
                       const std::shared_ptr<const Value>& value,
                       size_t /*bytes*/) {
          std::string payload;
          if (value == nullptr || !Codec::Encode(*value, &payload)) return;
          tier->Put(Codec::kKind, key.hash, key.key, Codec::Alpha(*value),
                    payload);
        });
  }

  /// Adds one record per resident, persistable entry to `writer`. Holds one
  /// shard lock at a time and never re-enters the cache, so a snapshot
  /// does not drain or block it.
  void ExportTo(SnapshotWriter* writer) const {
    lru_.ForEach([writer](const CanonicalKey& key,
                          const std::shared_ptr<const Value>& value,
                          size_t /*bytes*/) {
      std::string payload;
      if (value == nullptr || !Codec::Encode(*value, &payload)) return;
      writer->AddRecord(Codec::kKind, key.key, key.hash, Codec::Alpha(*value),
                        payload);
    });
  }

  /// Inserts the entry `record` carries. False — nothing inserted — when
  /// the record is another kind's or its payload does not decode.
  bool Restore(const RecordView& record) {
    if (record.kind != Codec::kKind) return false;
    std::shared_ptr<const Value> value =
        Codec::Decode(record.payload, record.achieved_alpha);
    if (value == nullptr) return false;
    Insert(CanonicalKey{std::string(record.key), record.key_hash},
           std::move(value));
    return true;
  }

  Stats GetStats() const {
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

  size_t size() const { return lru_.size(); }
  void Clear() { lru_.Clear(); }
  int num_shards() const { return lru_.num_shards(); }

 private:
  ShardedLru<CanonicalKey, std::shared_ptr<const Value>> lru_;
  std::shared_ptr<DiskTier> tier_;
  std::atomic<uint64_t> tier_hits_{0};
};

}  // namespace persist
}  // namespace moqo

#endif  // MOQO_PERSIST_TIERED_LRU_H_
