// Copyright (c) 2026 moqo authors. MIT license.
//
// TieredLru: the one cache core behind both frontier caches — the
// whole-query PlanCache (service/plan_cache.h) and the cross-query
// SubplanMemo (memo/subplan_memo.h).
//
// Both keep immutable shared frontiers under CanonicalKeys and want the
// same behaviour around them: N independently locked shards, each an LRU
// list with its own slice of the entry cap and byte budget;
// equal-or-tighter replacement (a re-insert replaces the stored value only
// if it is at least as tight, so refinement never downgrades an entry);
// the optional RAM→disk DiskTier, demoting evicted entries and promoting
// them back on a RAM miss; and snapshot export and restore. This template
// is the only code that does any of that. It is plain storage: a lookup
// hands back what the cache holds for a key, whatever its alpha tag, and
// counts nothing. Whether an entry answers a request (an alpha-approximate
// Pareto set is alpha'-approximate for every alpha' >= alpha) is the
// caller's verdict, and the caller counts it. A value type supplies just a
// codec of static functions:
//
//   static constexpr RecordKind kKind;      // its snapshot/tier record kind
//   static double Alpha(const Value&);      // alpha tag, for the replace
//                                           // rule and the tier record
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
// memo codec tags every entry alpha 0 and any re-insert replaces it —
// plain keyed identity falls out as a special case. An entry is accounted
// at key.capacity() + sizeof(CanonicalKey) + four pointers of index/list
// bookkeeping + the codec's Footprint. Keys are stored exactly once, as
// map keys; the LRU list points at them (unordered_map never moves its
// nodes).

#ifndef MOQO_PERSIST_TIERED_LRU_H_
#define MOQO_PERSIST_TIERED_LRU_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/counter.h"
#include "persist/disk_tier.h"
#include "persist/format.h"
#include "persist/snapshot.h"
#include "util/byte_codec.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace moqo {
namespace persist {

/// Statistics of one TieredLru: its own events and occupancy. The event
/// counters are the cache's own cells; GetStats() copies them and sums the
/// resident fields from the shards. Lookups are not counted here: the
/// caller that judges an entry counts its verdict.
struct TieredStats {
  Counter insertions;
  Counter evictions;
  size_t entries = 0;
  /// Accounted bytes of all resident entries.
  size_t bytes = 0;
  /// Sum of resident entries' frontier sizes; bytes / entries and
  /// frontier_plans / entries are the per-entry means.
  size_t frontier_plans = 0;
};

template <typename Value, typename Codec>
class TieredLru {
 public:
  struct Options {
    /// Total entries across all shards (secondary limit when a byte budget
    /// is set; every shard keeps at least one slot).
    size_t capacity = 1024;
    /// Byte budget across all shards; 0 = unlimited (entry-count eviction
    /// only). The primary limit when set.
    size_t capacity_bytes = 0;
    /// Independently locked shards; rounded up to a power of two.
    int shards = 8;
  };
  using Stats = TieredStats;

  TieredLru() : TieredLru(Options{}) {}
  explicit TieredLru(const Options& options)
      : shard_mask_(std::bit_ceil(static_cast<size_t>(
                        options.shards < 1 ? 1 : options.shards)) -
                    1),
        // Every shard gets at least one slot so a tiny capacity still
        // caches.
        shard_capacity_(
            std::max<size_t>(1, (options.capacity + shard_mask_) /
                                    (shard_mask_ + 1))),
        shard_capacity_bytes_((options.capacity_bytes + shard_mask_) /
                              (shard_mask_ + 1)) {
    shards_.reserve(shard_mask_ + 1);
    for (size_t i = 0; i <= shard_mask_; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  TieredLru(const TieredLru&) = delete;
  TieredLru& operator=(const TieredLru&) = delete;

  /// Returns the value stored for `key`, promoting it to most recently
  /// used, or nullptr; RAM keeps the tightest value ever inserted (see
  /// Insert). On a RAM miss with a tier attached, the tier's tightest
  /// verified record for the key is re-inserted into RAM (it may evict,
  /// and so demote, colder entries), returned, and `*from_tier` is set.
  std::shared_ptr<const Value> Lookup(const CanonicalKey& key,
                                      bool* from_tier = nullptr) {
    if (from_tier != nullptr) *from_tier = false;
    {
      Shard& shard = ShardFor(key);
      MutexLock lock(shard.mu);
      auto it = shard.index.find(key);
      if (it != shard.index.end()) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
        return it->second.value;
      }
    }
    if (tier_ == nullptr) return nullptr;

    std::string payload;
    double alpha = 0;
    if (!tier_->Take(key.hash, key.key, &payload, &alpha)) return nullptr;
    std::shared_ptr<const Value> value = Codec::Decode(payload, alpha);
    if (value == nullptr) return nullptr;
    Insert(key, value);
    if (from_tier != nullptr) *from_tier = true;
    return value;
  }

  /// Inserts `value` for `key`, evicting least-recently-used entries of
  /// the target shard until it fits both limits; an entry larger than the
  /// whole shard budget empties the shard and is stored anyway. An
  /// existing entry is replaced only if `value` is at least as tight
  /// (alpha tag <=); a looser re-insert just refreshes recency. A grown
  /// replacement sheds colder entries, never itself. Null values and
  /// inserts dropped by the codec's failpoint store nothing: the cache is
  /// an accelerator, so a lost insert only costs a future miss.
  void Insert(const CanonicalKey& key, std::shared_ptr<const Value> value) {
    if (value == nullptr || Codec::DropInsert()) return;
    const size_t bytes = key.key.capacity() + sizeof(CanonicalKey) +
                         sizeof(void*) * 4 + Codec::Footprint(*value);
    const size_t plans = Codec::Plans(*value);
    // Victims leave the shard under its lock and are demoted only after it
    // is released, so encode + append I/O never blocks the shard's readers.
    std::vector<typename Index::node_type> victims;
    {
      Shard& shard = ShardFor(key);
      MutexLock lock(shard.mu);
      auto it = shard.index.find(key);
      if (it != shard.index.end()) {
        Entry& entry = it->second;
        shard.lru.splice(shard.lru.begin(), shard.lru, entry.lru_pos);
        if (!(Codec::Alpha(*value) <= Codec::Alpha(*entry.value))) return;
        shard.bytes = shard.bytes - entry.bytes + bytes;
        shard.plans = shard.plans - entry.plans + plans;
        entry.value = std::move(value);
        entry.bytes = bytes;
        entry.plans = plans;
        while (shard_capacity_bytes_ != 0 &&
               shard.bytes > shard_capacity_bytes_ && shard.lru.size() > 1) {
          EvictColdest(&shard, &victims);
        }
      } else {
        while (!shard.lru.empty() &&
               (shard.lru.size() >= shard_capacity_ ||
                (shard_capacity_bytes_ != 0 &&
                 shard.bytes + bytes > shard_capacity_bytes_))) {
          EvictColdest(&shard, &victims);
        }
        it = shard.index.emplace(key, Entry{std::move(value), {}, bytes, plans})
                 .first;
        shard.lru.push_front(&it->first);
        it->second.lru_pos = shard.lru.begin();
        shard.bytes += bytes;
        shard.plans += plans;
        stats_.insertions.Add();
      }
    }
    for (const auto& victim : victims) {
      const Value& value = *victim.mapped().value;
      std::string payload;
      if (!Codec::Encode(value, &payload)) continue;
      tier_->Put(Codec::kKind, victim.key().hash, victim.key().key,
                 Codec::Alpha(value), payload);
    }
  }

  /// Drops the RAM entry for `key`, if any. Not an eviction: nothing is
  /// counted or demoted to the tier.
  void Erase(const CanonicalKey& key) {
    Shard& shard = ShardFor(key);
    MutexLock lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) return;
    shard.lru.erase(it->second.lru_pos);
    shard.bytes -= it->second.bytes;
    shard.plans -= it->second.plans;
    shard.index.erase(it);
  }

  /// Attaches the RAM→disk tier: evicted entries are encoded and appended
  /// to `tier`, RAM misses probe it. Call before concurrent use; nullptr
  /// detaches.
  void AttachTier(std::shared_ptr<DiskTier> tier) { tier_ = std::move(tier); }

  /// Adds one record per resident, persistable entry to `writer`, shard by
  /// shard, most recently used first within a shard. Holds one shard lock
  /// at a time, so a snapshot does not drain or block the cache.
  void ExportTo(SnapshotWriter* writer) const {
    for (const auto& shard : shards_) {
      MutexLock lock(shard->mu);
      for (const CanonicalKey* key : shard->lru) {
        const Value& value = *shard->index.find(*key)->second.value;
        std::string payload;
        if (!Codec::Encode(value, &payload)) continue;
        writer->AddRecord(Codec::kKind, key->key, key->hash,
                          Codec::Alpha(value), payload);
      }
    }
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
    Stats stats = stats_;
    for (const auto& shard : shards_) {
      MutexLock lock(shard->mu);
      stats.entries += shard->lru.size();
      stats.bytes += shard->bytes;
      stats.frontier_plans += shard->plans;
    }
    return stats;
  }

  size_t size() const {
    size_t total = 0;
    for (const auto& shard : shards_) {
      MutexLock lock(shard->mu);
      total += shard->lru.size();
    }
    return total;
  }

  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  using LruList = std::list<const CanonicalKey*>;

  struct Entry {
    std::shared_ptr<const Value> value;  ///< Never null.
    typename LruList::iterator lru_pos;
    size_t bytes = 0;
    size_t plans = 0;
  };

  /// Hashes through the key's precomputed member.
  struct KeyHash {
    size_t operator()(const CanonicalKey& key) const noexcept {
      return static_cast<size_t>(key.hash);
    }
  };

  using Index = std::unordered_map<CanonicalKey, Entry, KeyHash>;

  struct Shard {
    Mutex mu;
    LruList lru MOQO_GUARDED_BY(mu);  ///< Front = most recently used.
    Index index MOQO_GUARDED_BY(mu);
    size_t bytes MOQO_GUARDED_BY(mu) = 0;
    size_t plans MOQO_GUARDED_BY(mu) = 0;
  };

  /// Evicts the shard's least recently used entry (lru non-empty), moving
  /// it into `victims` when a tier will take it.
  void EvictColdest(Shard* shard,
                    std::vector<typename Index::node_type>* victims)
      MOQO_REQUIRES(shard->mu) {
    auto node = shard->index.extract(*shard->lru.back());
    shard->lru.pop_back();
    shard->bytes -= node.mapped().bytes;
    shard->plans -= node.mapped().plans;
    stats_.evictions.Add();
    if (tier_ != nullptr) victims->push_back(std::move(node));
  }

  Shard& ShardFor(const CanonicalKey& key) {
    // Multiply then fold the high bits down so every shard is reachable
    // regardless of shard count, and shard choice stays decorrelated from
    // the hash-table bucket choice inside the shard.
    uint64_t mixed = key.hash * 0x9E3779B97F4A7C15ull;
    mixed ^= mixed >> 32;
    return *shards_[mixed & shard_mask_];
  }

  const size_t shard_mask_;
  /// Per-shard limits: the Options totals split evenly, rounded up.
  const size_t shard_capacity_;
  const size_t shard_capacity_bytes_;  ///< 0 = no byte limit.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::shared_ptr<DiskTier> tier_;
  Stats stats_;  ///< Event counters; the resident fields stay zero.
};

}  // namespace persist
}  // namespace moqo

#endif  // MOQO_PERSIST_TIERED_LRU_H_
