// Copyright (c) 2026 moqo authors. MIT license.
//
// RAM→disk tier tests (PR 9): the DiskTier container mechanics, then the
// tier wired behind PlanCache and SubplanMemo — demotion on eviction,
// promotion of the key's tightest record on a RAM miss, alpha tags intact,
// and caches that count no lookup (the caller judges and counts). Last,
// the ShardedLruTest cases pin TieredLru's own shard mechanics through a
// minimal codec.

#include "persist/disk_tier.h"

#include <unistd.h>

#include <atomic>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/plan_set.h"
#include "memo/subplan_memo.h"
#include "persist/format.h"
#include "persist/tiered_lru.h"
#include "service/plan_cache.h"
#include "util/arena.h"
#include "util/byte_codec.h"

namespace moqo {
namespace {

using persist::DiskTier;
using persist::RecordKind;

uint64_t DoubleBits(double v) { return std::bit_cast<uint64_t>(v); }

/// Fresh per-test scratch directory for segment files.
std::string FreshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "moqo_tier_" + tag + "_" +
                          std::to_string(::getpid());
  std::string cmd = "rm -rf " + dir + " && mkdir -p " + dir;
  EXPECT_EQ(std::system(cmd.c_str()), 0);
  return dir;
}

DiskTier::Options TierOptions(const std::string& dir,
                              size_t capacity_bytes = size_t{1} << 20,
                              int shards = 1) {
  DiskTier::Options options;
  options.directory = dir;
  options.name = "test_tier";
  options.capacity_bytes = capacity_bytes;
  options.shards = shards;
  return options;
}

/// On-disk record footprint: 40-byte header + key + payload (format.h).
size_t RecordBytes(const std::string& key, const std::string& payload) {
  return 40 + key.size() + payload.size();
}

TEST(TieredLruTest, DiskTierRoundTripIsReadOnce) {
  DiskTier tier(TierOptions(FreshDir("roundtrip")));
  ASSERT_TRUE(tier.ok());
  ASSERT_TRUE(tier.Put(RecordKind::kPlanCacheEntry,
                       42, "key", 1.25, "payload-bytes"));
  EXPECT_EQ(tier.GetStats().entries, 1u);
  EXPECT_EQ(tier.GetStats().bytes, RecordBytes("key", "payload-bytes"));

  std::string payload;
  double alpha = 0;
  ASSERT_TRUE(tier.Take(42, "key", &payload, &alpha));
  EXPECT_EQ(payload, "payload-bytes");
  EXPECT_EQ(DoubleBits(alpha), DoubleBits(1.25));

  // Promotion is a move: the entry is gone, its bytes reclaimed from the
  // live accounting.
  EXPECT_FALSE(tier.Take(42, "key", &payload, &alpha));
  const DiskTier::Stats stats = tier.GetStats();
  EXPECT_EQ(stats.demotions, 1u);
  EXPECT_EQ(stats.promotions, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(TieredLruTest, DiskTierAlphaGateSkipsWithoutErasing) {
  // Take gates on alpha only by order: it hands back the tightest record
  // it holds for the key, whatever the requester needs (the requester
  // judges it), and skips the looser one without erasing it.
  DiskTier tier(TierOptions(FreshDir("alpha")));
  ASSERT_TRUE(tier.Put(RecordKind::kPlanCacheEntry,
                       7, "k", /*achieved_alpha=*/2.0, "loose"));
  ASSERT_TRUE(tier.Put(RecordKind::kPlanCacheEntry,
                       7, "k", /*achieved_alpha=*/1.5, "tight"));
  // A still tighter record of another key under the same hash must never
  // answer for "k".
  ASSERT_TRUE(tier.Put(RecordKind::kPlanCacheEntry,
                       7, "other-key", /*achieved_alpha=*/1.0, "other"));

  std::string payload;
  double alpha = 0;
  ASSERT_TRUE(tier.Take(7, "k", &payload, &alpha));
  EXPECT_EQ(payload, "tight");
  EXPECT_EQ(DoubleBits(alpha), DoubleBits(1.5));
  EXPECT_EQ(tier.GetStats().entries, 2u);  // The 2.0 record stays.
  ASSERT_TRUE(tier.Take(7, "k", &payload, &alpha));
  EXPECT_EQ(payload, "loose");
  EXPECT_EQ(DoubleBits(alpha), DoubleBits(2.0));
  EXPECT_FALSE(tier.Take(7, "k", &payload, &alpha));
  ASSERT_TRUE(tier.Take(7, "other-key", &payload, &alpha));
  EXPECT_EQ(payload, "other");
  EXPECT_EQ(tier.GetStats().promotions, 3u);
}

TEST(TieredLruTest, DiskTierHashCollisionsNeverAlias) {
  DiskTier tier(TierOptions(FreshDir("collision")));
  // Two distinct keys forced onto the same hash (shapes differ, so both
  // are stored): the full-key verify must route each probe to its own
  // payload, and an unknown key with a known hash must miss.
  ASSERT_TRUE(tier.Put(RecordKind::kPlanCacheEntry,
                       99, "key-a", 1.0, "payload-a"));
  ASSERT_TRUE(tier.Put(RecordKind::kPlanCacheEntry,
                       99, "key-bee", 1.0, "payload-bee"));
  EXPECT_EQ(tier.GetStats().entries, 2u);

  std::string payload;
  ASSERT_TRUE(tier.Take(99, "key-bee", &payload, nullptr));
  EXPECT_EQ(payload, "payload-bee");
  EXPECT_FALSE(tier.Take(99, "key-c", &payload, nullptr));
  ASSERT_TRUE(tier.Take(99, "key-a", &payload, nullptr));
  EXPECT_EQ(payload, "payload-a");

  // A SAME-shape collision (equal hash, key length, payload length, and
  // alpha) trips Put's re-demotion dedup: the second entry is not
  // appended. That must degrade to a clean miss for the new key — the
  // full-key check may never serve the resident key's payload for it.
  ASSERT_TRUE(tier.Put(RecordKind::kPlanCacheEntry,
                       77, "twin-1", 1.0, "payload-1"));
  ASSERT_TRUE(tier.Put(RecordKind::kPlanCacheEntry,
                       77, "twin-2", 1.0, "payload-2"));
  EXPECT_EQ(tier.GetStats().entries, 1u);
  EXPECT_FALSE(tier.Take(77, "twin-2", &payload, nullptr));
  ASSERT_TRUE(tier.Take(77, "twin-1", &payload, nullptr));
  EXPECT_EQ(payload, "payload-1");
}

TEST(TieredLruTest, DiskTierDedupsIdenticalReDemotion) {
  DiskTier tier(TierOptions(FreshDir("dedup")));
  ASSERT_TRUE(tier.Put(RecordKind::kPlanCacheEntry,
                       5, "k", 1.0, "same-payload"));
  const size_t bytes = tier.GetStats().bytes;
  // Re-demoting a byte-identical entry (same hash, key, alpha, payload
  // shape) is a no-op, not a duplicate index entry or dead bytes.
  ASSERT_TRUE(tier.Put(RecordKind::kPlanCacheEntry,
                       5, "k", 1.0, "same-payload"));
  EXPECT_EQ(tier.GetStats().entries, 1u);
  EXPECT_EQ(tier.GetStats().bytes, bytes);
}

TEST(TieredLruTest, DiskTierResetsShardAtBudgetAndRefusesOversize) {
  // Tiny budget: a handful of records overflows the single shard.
  const std::string payload(64, 'x');
  DiskTier tier(TierOptions(FreshDir("reset"), /*capacity_bytes=*/512));
  ASSERT_TRUE(tier.ok());
  for (int i = 0; i < 32; ++i) {
    EXPECT_TRUE(tier.Put(RecordKind::kPlanCacheEntry,
                         1000 + i, "key" + std::to_string(i), 1.0, payload));
  }
  const DiskTier::Stats stats = tier.GetStats();
  EXPECT_EQ(stats.demotions, 32u);
  EXPECT_GT(stats.dropped, 0u);  // At least one generation was shed.
  EXPECT_LT(stats.entries, 32u);
  EXPECT_LE(stats.bytes, 512u + RecordBytes("key00", payload));

  // A single record bigger than the whole shard budget can never be
  // stored; refusing it must not disturb the resident generation.
  const size_t entries_before = tier.GetStats().entries;
  EXPECT_FALSE(tier.Put(RecordKind::kPlanCacheEntry,
                        1, "big", 1.0, std::string(4096, 'y')));
  EXPECT_EQ(tier.GetStats().entries, entries_before);
}

TEST(TieredLruTest, DiskTierDropsACorruptRecord) {
  const std::string dir = FreshDir("corrupt");
  DiskTier tier(TierOptions(dir));
  ASSERT_TRUE(tier.Put(RecordKind::kMemoEntry, 11, "key", 1.0, "payload"));
  // Flip one payload bit on disk: the record checksum must catch it, and
  // the probe must drop the record rather than serve it.
  FILE* segment = std::fopen((dir + "/test_tier.shard0.seg").c_str(), "r+b");
  ASSERT_NE(segment, nullptr);
  std::fseek(segment, -1, SEEK_END);
  const int last = std::fgetc(segment);
  std::fseek(segment, -1, SEEK_END);
  std::fputc(last ^ 0x01, segment);
  std::fclose(segment);

  std::string payload;
  EXPECT_FALSE(tier.Take(11, "key", &payload, nullptr));
  const DiskTier::Stats stats = tier.GetStats();
  EXPECT_EQ(stats.corrupt, 1u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

// ---- PlanCache with an attached tier. ----------------------------------

ProblemSignature Sig(const std::string& key) {
  ProblemSignature signature;
  signature.key = key;
  signature.hash = Fnv1a(key.data(), key.size(), kFnv1aOffsetBasis);
  return signature;
}

/// A cached entry with a real one-plan frontier (the demotion hook skips
/// entries with no restorable plan set); `weighted_cost` lands in
/// cost[0], so round-tripped entries are distinguishable by cost bits.
std::shared_ptr<const CachedFrontier> FrontierEntry(double weighted_cost,
                                                    double alpha = 1.0) {
  Arena arena;
  PlanNode* node = arena.New<PlanNode>();
  node->op_config = 1;
  node->table = 0;
  node->tables = TableSet(0b1);
  node->cardinality = 10;
  node->row_width = 8;
  node->cost = CostVector(2);
  node->cost[0] = weighted_cost;
  node->cost[1] = 1.0;
  ParetoSet set;
  set.Prune(node);
  set.Seal();
  auto plan_set = PlanSet::FromParetoSet(set);

  auto result = std::make_shared<OptimizerResult>();
  result->plan = plan_set->plan(0);
  result->cost = plan_set->cost(0);
  result->weighted_cost = weighted_cost;
  result->plan_set = std::move(plan_set);
  auto cached = std::make_shared<CachedFrontier>();
  cached->result = std::move(result);
  cached->weights = WeightVector::Uniform(2);
  cached->achieved_alpha = alpha;
  return cached;
}

/// PlanCache with one RAM slot, so every second insert demotes.
std::unique_ptr<PlanCache> OneSlotCache(std::shared_ptr<DiskTier> tier) {
  PlanCache::Options options;
  options.capacity = 1;
  options.shards = 1;
  auto cache = std::make_unique<PlanCache>(options);
  cache->AttachTier(std::move(tier));
  return cache;
}

TEST(TieredLruTest, PlanCacheDemotesOnEvictionAndPromotesOnMiss) {
  auto tier = std::make_shared<DiskTier>(TierOptions(FreshDir("promote")));
  std::unique_ptr<PlanCache> cache = OneSlotCache(tier);

  cache->Insert(Sig("a"), FrontierEntry(1.0));
  cache->Insert(Sig("b"), FrontierEntry(2.0));  // Evicts + demotes a.
  EXPECT_EQ(tier->GetStats().demotions, 1u);
  EXPECT_EQ(tier->GetStats().entries, 1u);

  // RAM miss on a → tier hit: promoted back (evicting + demoting b),
  // surfaced via from_tier.
  bool from_tier = false;
  auto hit = cache->Lookup(Sig("a"), &from_tier);
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(from_tier);
  ASSERT_EQ(hit->result->plan_set->size(), 1);
  EXPECT_EQ(DoubleBits(hit->result->plan_set->cost(0)[0]), DoubleBits(1.0));
  // The selection is re-derived from the decoded frontier (SelectPlan
  // with the stored uniform weights), not copied: 1*1.0 + 1*1.0.
  EXPECT_EQ(DoubleBits(hit->result->weighted_cost), DoubleBits(2.0));

  EXPECT_EQ(DoubleBits(hit->achieved_alpha), DoubleBits(1.0));

  const PlanCache::Stats stats = cache->GetStats();
  EXPECT_EQ(stats.insertions, 3u);  // a, b, and a again by the promotion.
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(tier->GetStats().promotions, 1u);
  EXPECT_EQ(tier->GetStats().demotions, 2u);  // b demoted by the promotion.

  // A RAM hit on the promoted entry involves no tier traffic.
  from_tier = true;
  ASSERT_NE(cache->Lookup(Sig("a"), &from_tier), nullptr);
  EXPECT_FALSE(from_tier);
  EXPECT_EQ(tier->GetStats().promotions, 1u);
}

TEST(TieredLruTest, PlanCacheTierProbeRespectsAlphaGate) {
  // The caller's alpha gate judges what the tier hands back, so the tier
  // must hand back the truth: a demoted entry comes back with its own
  // alpha tag whatever the caller needs, and of two demoted generations of
  // one key the tighter comes back while the looser stays on disk.
  auto tier = std::make_shared<DiskTier>(TierOptions(FreshDir("alphagate")));
  std::unique_ptr<PlanCache> cache = OneSlotCache(tier);

  cache->Insert(Sig("loose"), FrontierEntry(1.0, /*alpha=*/1.5));
  cache->Insert(Sig("other"), FrontierEntry(2.0));  // Demotes "loose".
  bool from_tier = false;
  auto hit = cache->Lookup(Sig("loose"), &from_tier);
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(from_tier);
  EXPECT_EQ(DoubleBits(hit->achieved_alpha), DoubleBits(1.5));

  // Two generations of "q" reach the tier: 2.0, then 1.2.
  cache->Insert(Sig("q"), FrontierEntry(3.0, /*alpha=*/2.0));
  cache->Insert(Sig("x"), FrontierEntry(4.0));  // Demotes q@2.0.
  cache->Insert(Sig("q"), FrontierEntry(5.0, /*alpha=*/1.2));
  cache->Insert(Sig("y"), FrontierEntry(6.0));  // Demotes q@1.2.
  const uint64_t promotions = tier->GetStats().promotions;
  hit = cache->Lookup(Sig("q"), &from_tier);
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(from_tier);
  EXPECT_EQ(DoubleBits(hit->achieved_alpha), DoubleBits(1.2));
  EXPECT_EQ(DoubleBits(hit->result->plan_set->cost(0)[0]), DoubleBits(5.0));
  EXPECT_EQ(tier->GetStats().promotions, promotions + 1);

  // The looser generation stayed on disk.
  std::string payload;
  double alpha = 0;
  ASSERT_TRUE(tier->Take(Sig("q").hash, Sig("q").key, &payload, &alpha));
  EXPECT_EQ(DoubleBits(alpha), DoubleBits(2.0));
}

TEST(TieredLruTest, UncountedTierHitStaysUncounted) {
  // The caches count no lookup: whether an entry answers is the caller's
  // verdict, and the caller counts it. A tier hit therefore moves only the
  // tier's promotion count and the cache's own events (the promotion's
  // re-insert, and the eviction it causes); a RAM miss that finds nothing
  // moves no cache counter at all.
  auto tier = std::make_shared<DiskTier>(TierOptions(FreshDir("uncounted")));
  std::unique_ptr<PlanCache> cache = OneSlotCache(tier);
  cache->Insert(Sig("a"), FrontierEntry(1.0));
  cache->Insert(Sig("b"), FrontierEntry(2.0));  // Demotes a.
  const PlanCache::Stats before = cache->GetStats();
  ASSERT_EQ(before.insertions, 2u);
  ASSERT_EQ(before.evictions, 1u);

  bool from_tier = false;
  auto hit = cache->Lookup(Sig("a"), &from_tier);
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(from_tier);  // Surfaced to the caller, which judges it.
  PlanCache::Stats after = cache->GetStats();
  EXPECT_EQ(after.insertions, before.insertions + 1);  // The re-insert...
  EXPECT_EQ(after.evictions, before.evictions + 1);    // ...demoting b.
  EXPECT_EQ(tier->GetStats().promotions, 1u);

  EXPECT_EQ(cache->Lookup(Sig("absent"), &from_tier), nullptr);
  EXPECT_FALSE(from_tier);
  const PlanCache::Stats final_stats = cache->GetStats();
  EXPECT_EQ(final_stats.insertions, after.insertions);
  EXPECT_EQ(final_stats.evictions, after.evictions);
  EXPECT_EQ(tier->GetStats().misses, 1u);
}

TEST(TieredLruTest, SubplanMemoDemotesAndPromotesBitExactly) {
  auto tier = std::make_shared<DiskTier>(TierOptions(FreshDir("memo")));
  SubplanMemo::Options options;
  options.capacity = 1;
  options.shards = 1;
  SubplanMemo memo(options);
  memo.AttachTier(tier);

  SubplanSignature sig_x;
  sig_x.key = "subplan-x";
  sig_x.hash = 101;
  SubplanSignature sig_y;
  sig_y.key = "subplan-y";
  sig_y.hash = 202;

  auto frontier_x = std::make_shared<MemoFrontier>();
  frontier_x->rows = {{7, 0, 2, 0b01}, {-1, 0xFFFFFFFFu, 5, ~uint64_t{0}}};
  auto frontier_y = std::make_shared<MemoFrontier>();
  frontier_y->rows = {{3, 1, 1, 0b10}};

  memo.Insert(sig_x, frontier_x);
  memo.Insert(sig_y, frontier_y);  // Evicts + demotes x.
  EXPECT_EQ(tier->GetStats().demotions, 1u);

  std::shared_ptr<const MemoFrontier> promoted = memo.Lookup(sig_x);
  ASSERT_NE(promoted, nullptr);
  ASSERT_EQ(promoted->rows.size(), frontier_x->rows.size());
  for (size_t i = 0; i < promoted->rows.size(); ++i) {
    const MemoFrontier::Row& got = promoted->rows[i];
    const MemoFrontier::Row& want = frontier_x->rows[i];
    EXPECT_EQ(got.op_config, want.op_config);
    EXPECT_EQ(got.left_row, want.left_row);
    EXPECT_EQ(got.right_row, want.right_row);
    EXPECT_EQ(got.left_ranks, want.left_ranks);
  }
  EXPECT_EQ(tier->GetStats().promotions, 1u);
  // The memo's hits and misses are the DP's verdicts; a lookup counts
  // nothing.
  const SubplanMemo::Stats stats = memo.GetStats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(TieredLruTest, ConcurrentDemotePromoteHammer) {
  // Thrash a 1-slot cache from several threads so demotions, promotions,
  // and RAM hits interleave; the assertions are "no crash, no deadlock,
  // sane counters" — the locking contract under TSan.
  auto tier = std::make_shared<DiskTier>(
      TierOptions(FreshDir("hammer"), size_t{1} << 20, /*shards=*/2));
  std::unique_ptr<PlanCache> cache = OneSlotCache(tier);

  constexpr int kThreads = 4;
  constexpr int kOps = 200;
  std::atomic<uint64_t> tier_hits{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &tier_hits, t] {
      for (int i = 0; i < kOps; ++i) {
        const std::string name = "key" + std::to_string((t + i) % 8);
        if (i % 3 == 0) {
          cache->Insert(Sig(name), FrontierEntry(i + 1.0));
        } else {
          bool from_tier = false;
          cache->Lookup(Sig(name), &from_tier);
          if (from_tier) tier_hits.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const DiskTier::Stats stats = tier->GetStats();
  EXPECT_GT(stats.demotions, 0u);
  EXPECT_GE(stats.demotions, stats.promotions);
  // Every successful tier read surfaced to its caller as exactly one tier
  // hit.
  EXPECT_EQ(tier_hits.load(), stats.promotions);
  // The cache's own events stay consistent under the churn: every entry
  // ever inserted is resident or was evicted.
  const PlanCache::Stats cache_stats = cache->GetStats();
  EXPECT_EQ(cache_stats.insertions, cache_stats.entries + cache_stats.evictions);
}

// ---- ShardedLru: the shard mechanics of TieredLru itself. ---------------
//
// These drive the template directly through a minimal int-valued codec,
// so LRU order, the counters, the byte budget, the grown refresh, shard
// rounding and the order evicted entries reach the tier in hold for any
// value type, not just the two real codecs PlanCacheTest and
// SubplanMemoDpTest use. The attached tier is where evictions go: each
// victim is handed to DiskTier::Put once the shard lock is released.

/// An int with the accounted footprint and plan count the codec reports.
struct IntEntry {
  int value = 0;
  size_t footprint = 0;
  size_t plans = 0;
};

struct IntEntryCodec {
  static constexpr RecordKind kKind = RecordKind::kPlanCacheEntry;
  static double Alpha(const IntEntry&) { return 0; }
  static size_t Plans(const IntEntry& entry) { return entry.plans; }
  static size_t Footprint(const IntEntry& entry) { return entry.footprint; }
  static bool Encode(const IntEntry& entry, std::string* out) {
    out->append(std::to_string(entry.value));
    return true;
  }
  static std::shared_ptr<const IntEntry> Decode(std::string_view payload,
                                                double) {
    auto entry = std::make_shared<IntEntry>();
    const auto [end, error] = std::from_chars(
        payload.data(), payload.data() + payload.size(), entry->value);
    if (error != std::errc() || end != payload.data() + payload.size()) {
      return nullptr;
    }
    return entry;
  }
  static bool DropInsert() { return false; }
};

using Lru = persist::TieredLru<IntEntry, IntEntryCodec>;

CanonicalKey Key(const std::string& text) {
  return CanonicalKey{text, Fnv1a(text.data(), text.size(), kFnv1aOffsetBasis)};
}

std::shared_ptr<const IntEntry> Value(int value, size_t footprint,
                                      size_t plans = 0) {
  return std::make_shared<IntEntry>(IntEntry{value, footprint, plans});
}

/// The bytes an entry is accounted at: the key's buffer, the key itself,
/// four pointers of index/list bookkeeping and the codec's footprint.
size_t EntryBytes(const std::string& key, size_t footprint) {
  return Key(key).key.capacity() + sizeof(CanonicalKey) +
         sizeof(void*) * 4 + footprint;
}

Lru::Options SingleShard(size_t capacity, size_t capacity_bytes = 0) {
  Lru::Options options;
  options.capacity = capacity;
  options.capacity_bytes = capacity_bytes;
  options.shards = 1;
  return options;
}

/// (key, payload) of each record in the one-shard tier's segment, in
/// append order: the order entries were evicted into the tier in.
std::vector<std::pair<std::string, std::string>> Demoted(
    const std::string& dir) {
  std::ifstream in(dir + "/test_tier.shard0.seg", std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ByteReader reader(bytes.data(), bytes.size());
  std::vector<std::pair<std::string, std::string>> records;
  persist::RecordView record;
  while (reader.remaining() > 0 &&
         persist::ReadRecord(&reader, &record) ==
             persist::ReadRecordStatus::kOk) {
    records.emplace_back(record.key, record.payload);
  }
  return records;
}

TEST(ShardedLruTest, LruEvictionOrderAndCounters) {
  Lru lru(SingleShard(2));
  lru.Insert(Key("a"), Value(1, 10, 1));
  lru.Insert(Key("b"), Value(2, 10, 1));
  ASSERT_NE(lru.Lookup(Key("a")), nullptr);  // a most recent.
  lru.Insert(Key("c"), Value(3, 10, 1));     // Evicts b.

  EXPECT_NE(lru.Lookup(Key("a")), nullptr);
  EXPECT_EQ(lru.Lookup(Key("b")), nullptr);
  EXPECT_NE(lru.Lookup(Key("c")), nullptr);
  const Lru::Stats stats = lru.GetStats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, EntryBytes("a", 10) + EntryBytes("c", 10));
  EXPECT_EQ(stats.frontier_plans, 2u);
}

TEST(ShardedLruTest, ByteBudgetIsPrimaryLimit) {
  const size_t unit = EntryBytes("a", 10);
  Lru lru(SingleShard(/*capacity=*/100, /*capacity_bytes=*/2 * unit + 5));
  lru.Insert(Key("a"), Value(1, 10));
  lru.Insert(Key("b"), Value(2, 10));
  EXPECT_EQ(lru.GetStats().evictions, 0u);
  lru.Insert(Key("c"), Value(3, 10));  // 3 units > budget: evicts LRU (a).
  EXPECT_EQ(lru.Lookup(Key("a")), nullptr);
  EXPECT_NE(lru.Lookup(Key("b")), nullptr);
  EXPECT_LE(lru.GetStats().bytes, 2 * unit + 5);

  // An entry larger than the whole budget empties the shard but is
  // stored anyway.
  lru.Insert(Key("big"), Value(4, 3 * unit));
  EXPECT_NE(lru.Lookup(Key("big")), nullptr);
  EXPECT_EQ(lru.GetStats().entries, 1u);
}

TEST(ShardedLruTest, GrownRefreshShedsColdEntriesButKeepsItself) {
  const size_t unit = EntryBytes("a", 10);
  Lru lru(SingleShard(/*capacity=*/100, /*capacity_bytes=*/2 * unit + 5));
  lru.Insert(Key("a"), Value(1, 10));
  lru.Insert(Key("b"), Value(2, 10));
  // Refreshing b to two units busts the budget: a is shed, b survives.
  lru.Insert(Key("b"), Value(3, 10 + unit));
  EXPECT_EQ(lru.Lookup(Key("a")), nullptr);
  auto hit = lru.Lookup(Key("b"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->value, 3);
  EXPECT_EQ(lru.GetStats().bytes, 2 * unit);
}

TEST(ShardedLruTest, ShardCountRoundsToPowerOfTwo) {
  Lru::Options options;
  options.shards = 5;
  Lru lru(options);
  EXPECT_EQ(lru.num_shards(), 8);
}

TEST(ShardedLruTest, EvictionHookSeesVictimsColdestFirst) {
  const std::string dir = FreshDir("lru_coldest");
  Lru lru(SingleShard(3));
  lru.AttachTier(std::make_shared<DiskTier>(TierOptions(dir)));

  lru.Insert(Key("a"), Value(1, 11));
  lru.Insert(Key("b"), Value(2, 12));
  lru.Insert(Key("c"), Value(3, 13));
  ASSERT_NE(lru.Lookup(Key("a")), nullptr);  // Recency now a > c > b.
  EXPECT_TRUE(Demoted(dir).empty());         // No eviction yet.

  // Two inserts over the entry cap evict b then c; the tier must receive
  // them coldest first, each with its own value.
  lru.Insert(Key("d"), Value(4, 30));  // Over capacity: evicts b.
  lru.Insert(Key("e"), Value(5, 30));  // Evicts c.
  EXPECT_EQ(Demoted(dir), (std::vector<std::pair<std::string, std::string>>{
                              {"b", "2"}, {"c", "3"}}));
}

TEST(ShardedLruTest, EvictionHookByteSqueezeDeliversAllVictimsInOrder) {
  // A single oversized insert that evicts several entries at once must
  // hand every victim to the tier, still coldest first.
  const std::string dir = FreshDir("lru_squeeze");
  const size_t unit = EntryBytes("a", 10);
  Lru lru(SingleShard(/*capacity=*/100, /*capacity_bytes=*/3 * unit));
  lru.AttachTier(std::make_shared<DiskTier>(TierOptions(dir)));
  lru.Insert(Key("a"), Value(1, 10));
  lru.Insert(Key("b"), Value(2, 10));
  lru.Insert(Key("c"), Value(3, 10));
  lru.Insert(Key("big"), Value(4, 10 + 2 * unit));  // Evicts a, b, c.
  EXPECT_EQ(Demoted(dir), (std::vector<std::pair<std::string, std::string>>{
                              {"a", "1"}, {"b", "2"}, {"c", "3"}}));
  EXPECT_EQ(lru.GetStats().entries, 1u);
  EXPECT_EQ(lru.GetStats().evictions, 3u);
}

TEST(ShardedLruTest, ConcurrentMixedTraffic) {
  Lru::Options options;
  options.capacity = 64;
  options.shards = 8;
  Lru lru(options);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&lru, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key = "key" + std::to_string((t * 7 + i) % 100);
        if (i % 3 == 0) {
          lru.Insert(Key(key), Value(i, 8, 1));
        } else {
          auto hit = lru.Lookup(Key(key));
          if (hit != nullptr) {
            volatile int v = hit->value;  // TSan: unsynchronized access check.
            (void)v;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Every entry ever inserted is resident or was evicted: no event is
  // lost under concurrent inserts and evictions.
  const Lru::Stats stats = lru.GetStats();
  EXPECT_EQ(stats.insertions, stats.entries + stats.evictions);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.entries, 64u + 8u);  // Capacity rounding headroom.
}

}  // namespace
}  // namespace moqo
