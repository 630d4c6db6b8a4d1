// Copyright (c) 2026 moqo authors. MIT license.
//
// ShardedLru: the concurrent, byte-budgeted, sharded LRU container under
// persist::TieredLru (persist/tiered_lru.h), the one cache core of the
// whole-query PlanCache and the cross-query SubplanMemo.
//
// It owns only the mechanics — N independently locked shards, each with
// its own LRU list and capacity slice, entries accounted by a
// caller-supplied byte footprint, keys stored exactly once (the LRU list
// points at map keys, which unordered_map never moves). Policy arrives as
// hooks: what counts as a servable hit (LookupIf's admit — TieredLru's
// relaxed alpha identity), when a re-insert replaces the stored value
// (InsertIf's replace — equal-or-tighter alpha), and what eviction means
// (the eviction hook — TieredLru's demotion to a disk tier).
//
// Key requirements: equality-comparable and a public `hash` member with a
// well-mixed 64-bit value — used both for the in-shard hash table and
// (re-mixed, so shard choice stays decorrelated from the bucket choice)
// for shard routing. Value requirements: cheap to copy,
// default-constructible to a distinguishable "absent" state (TieredLru
// stores shared_ptr).

#ifndef MOQO_UTIL_SHARDED_LRU_H_
#define MOQO_UTIL_SHARDED_LRU_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace moqo {

template <typename Key, typename Value>
class ShardedLru {
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

  /// Counter snapshot. `weight` is an owner-defined per-entry quantity
  /// summed over residents (TieredLru counts frontier plans).
  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
    size_t bytes = 0;
    size_t weight = 0;
  };

  explicit ShardedLru(const Options& options) {
    const int requested = options.shards < 1 ? 1 : options.shards;
    const size_t num_shards = std::bit_ceil(static_cast<size_t>(requested));
    shard_mask_ = num_shards - 1;
    shards_.reserve(num_shards);
    // Every shard gets at least one slot so a tiny capacity still caches.
    const size_t per_shard =
        (options.capacity + num_shards - 1) / num_shards;
    const size_t bytes_per_shard =
        options.capacity_bytes == 0
            ? 0
            : (options.capacity_bytes + num_shards - 1) / num_shards;
    for (size_t i = 0; i < num_shards; ++i) {
      auto shard = std::make_unique<Shard>();
      {
        // The shard is not shared yet; the lock exists purely so the
        // thread-safety analysis sees the guarded stores (free of
        // contention, and construction is never a hot path).
        MutexLock lock(shard->mu);
        shard->capacity = per_shard < 1 ? 1 : per_shard;
        shard->capacity_bytes = bytes_per_shard;
      }
      shards_.push_back(std::move(shard));
    }
  }

  ShardedLru(const ShardedLru&) = delete;
  ShardedLru& operator=(const ShardedLru&) = delete;

  /// Called once per evicted entry, outside the shard lock, in eviction
  /// order (coldest victim first). The owner decides what "demote" means —
  /// TieredLru appends the entry to its disk tier. Set before
  /// concurrent use; not synchronized against in-flight operations. The
  /// hook may re-enter the container (a promote-triggered insert may evict
  /// and fire the hook again) because no lock is held at call time.
  using EvictionHook =
      std::function<void(const Key& key, const Value& value, size_t bytes)>;

  void SetEvictionHook(EvictionHook hook) { eviction_hook_ = std::move(hook); }

  /// Returns the value stored for `key` (promoting it to most recently
  /// used) if `admit(value)` accepts it; a default-constructed Value
  /// otherwise. A present-but-refused entry counts as a miss and is not
  /// promoted — to the caller it is indistinguishable from absence.
  /// `record_stats` = false skips the hit/miss counters (used by the
  /// service's coalescing re-probe so each request counts one lookup).
  template <typename Admit>
  Value LookupIf(const Key& key, Admit admit, bool record_stats = true) {
    Shard& shard = ShardFor(key);
    MutexLock lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end() || !admit(it->second.value)) {
      if (record_stats) misses_.fetch_add(1, std::memory_order_relaxed);
      return Value();
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
    if (record_stats) hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second.value;
  }

  Value Lookup(const Key& key, bool record_stats = true) {
    return LookupIf(
        key, [](const Value&) { return true; }, record_stats);
  }

  /// Inserts `value` for `key`, evicting LRU entries of the target shard
  /// until the new entry fits both limits. If the key is already present,
  /// `replace(existing)` decides: true replaces the stored value (and its
  /// byte/weight accounting), false only promotes the entry — either way
  /// the key ends most recently used. An entry larger than the whole shard
  /// budget empties the shard and is stored anyway: the biggest entries
  /// are the ones most worth caching. Returns true iff the value was
  /// stored (fresh insert or accepted replace).
  template <typename Replace>
  bool InsertIf(const Key& key, Value value, size_t bytes, size_t weight,
                Replace replace) {
    // Victims are moved out under the lock and handed to the eviction hook
    // only after it is released, so the hook may do I/O or re-enter the
    // container without holding any shard mutex.
    std::vector<Victim> victims;
    {
      Shard& shard = ShardFor(key);
      MutexLock lock(shard.mu);
      auto it = shard.index.find(key);
      if (it != shard.index.end()) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
        if (!replace(it->second.value)) return false;
        shard.bytes = shard.bytes - it->second.bytes + bytes;
        shard.weight = shard.weight - it->second.weight + weight;
        it->second.value = std::move(value);
        it->second.bytes = bytes;
        it->second.weight = weight;
        // A grown replacement can push the shard over its byte budget; shed
        // colder entries, but never the just-refreshed one (at the front).
        while (shard.capacity_bytes != 0 &&
               shard.bytes > shard.capacity_bytes && shard.lru.size() > 1) {
          EvictBack(&shard, &victims);
        }
      } else {
        while (!shard.lru.empty() &&
               (shard.lru.size() >= shard.capacity ||
                (shard.capacity_bytes != 0 &&
                 shard.bytes + bytes > shard.capacity_bytes))) {
          EvictBack(&shard, &victims);
        }
        it = shard.index
                 .emplace(key, Entry{std::move(value), {}, bytes, weight})
                 .first;
        shard.lru.push_front(&it->first);
        it->second.lru_pos = shard.lru.begin();
        shard.bytes += bytes;
        shard.weight += weight;
        insertions_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    for (const Victim& victim : victims) {
      eviction_hook_(victim.key, victim.value, victim.bytes);
    }
    return true;
  }

  bool Insert(const Key& key, Value value, size_t bytes, size_t weight) {
    return InsertIf(key, std::move(value), bytes, weight,
                    [](const Value&) { return true; });
  }

  /// Converts one recorded miss into a hit; see PlanCache for the
  /// coalescing race this closes.
  void ReclassifyMissAsHit() {
    misses_.fetch_sub(1, std::memory_order_relaxed);
    hits_.fetch_add(1, std::memory_order_relaxed);
  }

  Counters GetCounters() const {
    Counters counters;
    counters.hits = hits_.load(std::memory_order_relaxed);
    counters.misses = misses_.load(std::memory_order_relaxed);
    counters.insertions = insertions_.load(std::memory_order_relaxed);
    counters.evictions = evictions_.load(std::memory_order_relaxed);
    for (const auto& shard : shards_) {
      MutexLock lock(shard->mu);
      counters.entries += shard->lru.size();
      counters.bytes += shard->bytes;
      counters.weight += shard->weight;
    }
    return counters;
  }

  size_t size() const {
    size_t total = 0;
    for (const auto& shard : shards_) {
      MutexLock lock(shard->mu);
      total += shard->lru.size();
    }
    return total;
  }

  void Clear() {
    for (const auto& shard : shards_) {
      MutexLock lock(shard->mu);
      shard->lru.clear();
      shard->index.clear();
      shard->bytes = 0;
      shard->weight = 0;
    }
  }

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Visits every resident entry as `fn(key, value, bytes)`, shard by
  /// shard, most-recently-used first within a shard. Holds one shard lock
  /// at a time — `fn` must not re-enter this container. TieredLru exports
  /// snapshots through it without draining the cache.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const auto& shard : shards_) {
      MutexLock lock(shard->mu);
      for (const Key* key : shard->lru) {
        auto it = shard->index.find(*key);
        fn(it->first, it->second.value, it->second.bytes);
      }
    }
  }

 private:
  /// Keys are stored exactly once, as map keys; the LRU list holds
  /// pointers to them — stable, since unordered_map never moves nodes.
  using LruList = std::list<const Key*>;

  struct Entry {
    Value value;
    typename LruList::iterator lru_pos;
    size_t bytes = 0;
    size_t weight = 0;
  };

  /// Hashes through the key's precomputed member, so keys need no
  /// std::hash specialization.
  struct KeyHash {
    size_t operator()(const Key& key) const noexcept {
      return static_cast<size_t>(key.hash);
    }
  };

  struct Shard {
    Mutex mu;
    LruList lru MOQO_GUARDED_BY(mu);  ///< Front = most recently used.
    std::unordered_map<Key, Entry, KeyHash> index MOQO_GUARDED_BY(mu);
    /// capacity/capacity_bytes are set once at construction, then
    /// read-only; guarded anyway so every reader is provably serialized.
    size_t capacity MOQO_GUARDED_BY(mu) = 0;
    size_t capacity_bytes MOQO_GUARDED_BY(mu) = 0;  ///< 0 = no byte limit.
    size_t bytes MOQO_GUARDED_BY(mu) = 0;
    size_t weight MOQO_GUARDED_BY(mu) = 0;
  };

  /// An evicted entry captured for the post-unlock eviction hook.
  struct Victim {
    Key key;
    Value value;
    size_t bytes = 0;
  };

  /// Caller holds the shard lock; lru non-empty. When an eviction hook is
  /// installed the victim is moved into `victims` for delivery after the
  /// lock is released.
  void EvictBack(Shard* shard, std::vector<Victim>* victims)
      MOQO_REQUIRES(shard->mu) {
    auto victim = shard->index.find(*shard->lru.back());
    if (eviction_hook_) {
      victims->push_back(Victim{victim->first,
                                std::move(victim->second.value),
                                victim->second.bytes});
    }
    shard->bytes -= victim->second.bytes;
    shard->weight -= victim->second.weight;
    shard->index.erase(victim);
    shard->lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }

  Shard& ShardFor(const Key& key) {
    // Multiply then fold the high bits down so every shard is reachable
    // regardless of shard count, and shard choice stays decorrelated from
    // the hash-table bucket choice inside the shard.
    uint64_t mixed = key.hash * 0x9E3779B97F4A7C15ull;
    mixed ^= mixed >> 32;
    return *shards_[mixed & shard_mask_];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  uint64_t shard_mask_ = 0;
  EvictionHook eviction_hook_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace moqo

#endif  // MOQO_UTIL_SHARDED_LRU_H_
