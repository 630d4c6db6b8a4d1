// Copyright (c) 2026 moqo authors. MIT license.
//
// DiskTier: the RAM→disk demotion tier behind the caches' TieredLru
// (persist/tiered_lru.h), its only caller.
//
// When a byte-budgeted cache evicts an entry that is still admissible
// (it fell to cache pressure, not invalidation), the TieredLru's eviction
// hook appends its encoded payload to a per-shard, append-mostly segment
// file and keeps only a compact index entry in RAM: signature hash,
// file offset, lengths, achieved alpha — a few dozen bytes (the
// Trimma-style metadata-trimming idiom the ROADMAP names), so the
// resident index for millions of demoted frontiers stays cheap. A later
// RAM miss takes the key's tightest record: the tier reads it back,
// verifies checksum and full key (hash collisions never alias — same
// contract as the caches), removes the index entry, and the TieredLru
// re-inserts the entry into RAM ("promotion"). The tier, like the cache,
// is plain storage: it hands back its tightest record whatever alpha the
// requester needs, and the requester judges it (the service surfaces an
// answering promotion as CacheOutcome::kTierHit).
//
// Append-mostly: promotions and overwrites leave dead bytes behind; when
// a shard's segment reaches its slice of the byte budget the whole shard
// segment is dropped (ftruncate + index clear). The tier is a cache of a
// cache — losing a generation costs future misses, never correctness.
// Segment files are truncated at open: the tier holds process-lifetime
// overflow; *cross-restart* warmth is the snapshot file's job
// (snapshot.h).
//
// On-disk record: the snapshot file's record layout (persist/format.h),
// 40 bytes + key + payload.

#ifndef MOQO_PERSIST_DISK_TIER_H_
#define MOQO_PERSIST_DISK_TIER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/counter.h"
#include "persist/format.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace moqo {
namespace persist {

class DiskTier {
 public:
  struct Options {
    std::string directory;      ///< Must exist; segment files live here.
    std::string name = "tier";  ///< Segment file prefix (one tier each).
    size_t capacity_bytes = size_t{256} << 20;  ///< Across all shards.
    int shards = 4;  ///< Independently locked; rounded up to a power of 2.
  };

  /// Monotonic counters + occupancy gauges, incremented in place and
  /// held via shared_ptr so metric samplers registered with the service
  /// outlive the tier (the moqo_net_* teardown-safety pattern).
  struct Stats {
    Counter demotions;   ///< Records appended.
    Counter promotions;  ///< Records read back + removed.
    Counter misses;      ///< Probes finding nothing.
    Counter dropped;     ///< Entries lost to shard resets.
    Counter corrupt;     ///< Checksum/shape failures.
    Counter entries;     ///< Live index entries.
    Counter bytes;       ///< Live on-disk record bytes.
  };

  explicit DiskTier(const Options& options);
  ~DiskTier();

  DiskTier(const DiskTier&) = delete;
  DiskTier& operator=(const DiskTier&) = delete;

  /// False when segment files could not be created; Put/Take then no-op.
  bool ok() const { return ok_; }

  /// Appends one demoted entry. False when the tier is unusable, the
  /// record exceeds a whole shard's budget, the write fails, or the
  /// `persist.write` failpoint fires — in every case the entry is simply
  /// gone (a dropped demotion is a future miss, not an error).
  bool Put(RecordKind kind, uint64_t key_hash, std::string_view key,
           double achieved_alpha, std::string_view payload);

  /// Takes the tightest (lowest achieved alpha) verified record held for
  /// `key`: fills `payload_out` (+ optional `alpha_out`), removes that
  /// entry (promotion is a move, not a copy) and returns true. Looser
  /// records of the key stay. A record failing checksum or shape
  /// verification is discarded and the next tightest is tried. The
  /// `persist.tier.read` failpoint forces a miss.
  bool Take(uint64_t key_hash, std::string_view key, std::string* payload_out,
            double* alpha_out);

  Stats GetStats() const { return *stats_; }
  std::shared_ptr<const Stats> shared_stats() const { return stats_; }

 private:
  /// The compact resident footprint of one demoted entry.
  struct IndexEntry {
    uint64_t offset = 0;
    uint32_t key_len = 0;
    uint32_t payload_len = 0;
    double alpha = 0;
  };

  using Index = std::unordered_multimap<uint64_t, IndexEntry>;

  struct Shard {
    Mutex mu;
    /// Opened at construction, closed at destruction, I/O under mu.
    int fd MOQO_GUARDED_BY(mu) = -1;
    uint64_t append_offset MOQO_GUARDED_BY(mu) = 0;
    /// Record bytes still reachable via index.
    uint64_t live_bytes MOQO_GUARDED_BY(mu) = 0;
    Index index MOQO_GUARDED_BY(mu);
  };

  Shard& ShardFor(uint64_t key_hash);
  /// Caller holds the shard lock. Drops every entry in the shard.
  void ResetShard(Shard* shard) MOQO_REQUIRES(shard->mu);

  std::vector<std::unique_ptr<Shard>> shards_;
  uint64_t shard_mask_ = 0;
  size_t shard_capacity_bytes_ = 0;
  bool ok_ = false;
  std::shared_ptr<Stats> stats_ = std::make_shared<Stats>();
};

}  // namespace persist
}  // namespace moqo

#endif  // MOQO_PERSIST_DISK_TIER_H_
