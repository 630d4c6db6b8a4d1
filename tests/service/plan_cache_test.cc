// Copyright (c) 2026 moqo authors. MIT license.

#include "service/plan_cache.h"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/plan_set.h"
#include "model/cost_model.h"
#include "persist/disk_tier.h"
#include "persist/format.h"
#include "persist/snapshot.h"
#include "service/optimization_service.h"
#include "testing/test_helpers.h"
#include "util/arena.h"
#include "util/byte_codec.h"

namespace moqo {
namespace {

ProblemSignature Sig(const std::string& key) {
  ProblemSignature signature;
  signature.key = key;
  signature.hash = Fnv1a(key.data(), key.size(), kFnv1aOffsetBasis);
  return signature;
}

std::shared_ptr<const CachedFrontier> Result(double weighted_cost) {
  auto result = std::make_shared<OptimizerResult>();
  result->weighted_cost = weighted_cost;
  auto cached = std::make_shared<CachedFrontier>();
  cached->result = std::move(result);
  return cached;
}

TEST(PlanCacheTest, InsertLookupRoundtrip) {
  PlanCache cache;
  EXPECT_EQ(cache.Lookup(Sig("a")), nullptr);
  cache.Insert(Sig("a"), Result(1.0));
  auto hit = cache.Lookup(Sig("a"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->result->weighted_cost, 1.0);

  const PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(PlanCacheTest, LruEvictionOrder) {
  PlanCache::Options options;
  options.capacity = 2;
  options.shards = 1;  // Single shard: eviction order is global LRU.
  PlanCache cache(options);

  cache.Insert(Sig("a"), Result(1));
  cache.Insert(Sig("b"), Result(2));
  ASSERT_NE(cache.Lookup(Sig("a")), nullptr);  // a is now most recent.
  cache.Insert(Sig("c"), Result(3));           // Evicts b.

  EXPECT_NE(cache.Lookup(Sig("a")), nullptr);
  EXPECT_EQ(cache.Lookup(Sig("b")), nullptr);
  EXPECT_NE(cache.Lookup(Sig("c")), nullptr);
  EXPECT_EQ(cache.GetStats().evictions, 1u);
  EXPECT_EQ(cache.GetStats().entries, 2u);
}

TEST(PlanCacheTest, ReinsertRefreshesValueWithoutEviction) {
  PlanCache::Options options;
  options.capacity = 2;
  options.shards = 1;
  PlanCache cache(options);

  cache.Insert(Sig("a"), Result(1));
  cache.Insert(Sig("b"), Result(2));
  cache.Insert(Sig("a"), Result(10));  // Refresh, no eviction.

  EXPECT_EQ(cache.GetStats().evictions, 0u);
  auto hit = cache.Lookup(Sig("a"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->result->weighted_cost, 10.0);
  EXPECT_NE(cache.Lookup(Sig("b")), nullptr);
}

TEST(PlanCacheTest, ShardCountRoundsToPowerOfTwo) {
  PlanCache::Options options;
  options.shards = 5;
  PlanCache cache(options);
  EXPECT_EQ(cache.num_shards(), 8);
}

TEST(PlanCacheTest, EvictedEntryStaysAliveThroughSharedPtr) {
  PlanCache::Options options;
  options.capacity = 1;
  options.shards = 1;
  PlanCache cache(options);

  cache.Insert(Sig("a"), Result(1));
  auto held = cache.Lookup(Sig("a"));
  cache.Insert(Sig("b"), Result(2));  // Evicts a.
  EXPECT_EQ(cache.Lookup(Sig("a")), nullptr);
  ASSERT_NE(held, nullptr);  // The response's reference keeps it valid.
  EXPECT_EQ(held->result->weighted_cost, 1.0);
}

/// The exact bytes the cache accounts for one entry holding a copy of
/// `frontier` under key `signature`: measured by inserting into a scratch
/// single-shard cache (entry sizes depend on PlanSet arena growth and
/// key/index overhead, so tests derive budgets instead of assuming them).
size_t MeasuredEntryBytes(const ProblemSignature& signature,
                          const std::shared_ptr<const CachedFrontier>& f) {
  PlanCache::Options options;
  options.shards = 1;
  PlanCache scratch(options);
  scratch.Insert(signature, f);
  return scratch.GetStats().bytes;
}

/// A CachedFrontier holding a real PlanSet with `plans` frontier entries.
std::shared_ptr<const CachedFrontier> SizedResult(int plans) {
  Arena arena;
  ParetoSet set;
  for (int i = 0; i < plans; ++i) {
    PlanNode* plan = arena.New<PlanNode>();
    plan->cost = CostVector(2);
    plan->cost[0] = 1.0 + i;
    plan->cost[1] = 100.0 - i;
    set.Prune(plan);
  }
  set.Seal();
  auto result = std::make_shared<OptimizerResult>();
  result->plan_set = PlanSet::FromParetoSet(set);
  auto cached = std::make_shared<CachedFrontier>();
  cached->result = std::move(result);
  return cached;
}

TEST(PlanCacheTest, ByteBudgetEvictsLruBeforeEntryCap) {
  const size_t unit = MeasuredEntryBytes(Sig("a"), SizedResult(4));
  ASSERT_GT(unit, 0u);

  PlanCache::Options options;
  options.capacity = 1024;  // Entry cap far away: bytes must drive.
  options.capacity_bytes = 5 * unit / 2;  // Room for two entries, not three.
  options.shards = 1;
  PlanCache cache(options);

  cache.Insert(Sig("a"), SizedResult(4));
  cache.Insert(Sig("b"), SizedResult(4));
  EXPECT_EQ(cache.GetStats().evictions, 0u);
  ASSERT_NE(cache.Lookup(Sig("a")), nullptr);  // a most recent.
  cache.Insert(Sig("c"), SizedResult(4));      // Evicts b (LRU) by bytes.

  EXPECT_NE(cache.Lookup(Sig("a")), nullptr);
  EXPECT_EQ(cache.Lookup(Sig("b")), nullptr);
  EXPECT_NE(cache.Lookup(Sig("c")), nullptr);
  const PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes, options.capacity_bytes);
}

TEST(PlanCacheTest, OversizedEntryStillCachedAlone) {
  const size_t unit = MeasuredEntryBytes(Sig("a"), SizedResult(4));

  PlanCache::Options options;
  options.capacity = 1024;
  options.capacity_bytes = unit / 2;  // Smaller than any single entry.
  options.shards = 1;
  PlanCache cache(options);

  cache.Insert(Sig("a"), SizedResult(4));
  EXPECT_NE(cache.Lookup(Sig("a")), nullptr);
  cache.Insert(Sig("b"), SizedResult(4));  // Evicts a, stored anyway.
  EXPECT_EQ(cache.Lookup(Sig("a")), nullptr);
  EXPECT_NE(cache.Lookup(Sig("b")), nullptr);
  EXPECT_EQ(cache.GetStats().entries, 1u);
}

TEST(PlanCacheTest, GrownRefreshShedsColderEntriesToStayInBudget) {
  const size_t unit = MeasuredEntryBytes(Sig("a"), SizedResult(4));

  PlanCache::Options options;
  options.capacity = 1024;
  options.capacity_bytes = 5 * unit / 2;  // Two units fit, three do not.
  options.shards = 1;
  PlanCache cache(options);

  cache.Insert(Sig("a"), SizedResult(4));
  cache.Insert(Sig("b"), SizedResult(4));
  // Refresh b with a ~2x bigger value (two arena blocks): a must be shed
  // to keep the shard within budget; the refreshed entry itself survives.
  cache.Insert(Sig("b"), SizedResult(800));
  EXPECT_EQ(cache.Lookup(Sig("a")), nullptr);
  EXPECT_NE(cache.Lookup(Sig("b")), nullptr);
  EXPECT_EQ(cache.GetStats().entries, 1u);
}

TEST(PlanCacheTest, EntryCapRemainsSecondaryLimit) {
  PlanCache::Options options;
  options.capacity = 2;
  options.capacity_bytes = size_t{1} << 40;  // Bytes never bind.
  options.shards = 1;
  PlanCache cache(options);

  cache.Insert(Sig("a"), SizedResult(1));
  cache.Insert(Sig("b"), SizedResult(1));
  cache.Insert(Sig("c"), SizedResult(1));  // Entry cap evicts a.
  EXPECT_EQ(cache.GetStats().evictions, 1u);
  EXPECT_EQ(cache.Lookup(Sig("a")), nullptr);
}

TEST(PlanCacheTest, StatsTrackBytesAndFrontierPlans) {
  PlanCache cache;
  cache.Insert(Sig("a"), SizedResult(3));
  cache.Insert(Sig("b"), SizedResult(5));
  const PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.frontier_plans, 8u);
  EXPECT_GT(stats.bytes, 0u);

  // Refresh replaces the accounted size instead of double-counting.
  cache.Insert(Sig("b"), SizedResult(2));
  const PlanCache::Stats after = cache.GetStats();
  EXPECT_EQ(after.entries, 2u);
  EXPECT_EQ(after.frontier_plans, 5u);
}

std::shared_ptr<const CachedFrontier> AlphaResult(double achieved_alpha,
                                                 double weighted_cost) {
  auto cached = std::make_shared<CachedFrontier>();
  auto result = std::make_shared<OptimizerResult>();
  result->weighted_cost = weighted_cost;
  cached->result = std::move(result);
  cached->achieved_alpha = achieved_alpha;
  return cached;
}

TEST(PlanCacheTest, TighterAlphaEntryServesLooserRequest) {
  // The relaxed identity, applied by the service to the entry the cache
  // hands back: an alpha-approximate Pareto set is alpha'-approximate for
  // every alpha' >= alpha, so an RTA entry at 1.2 answers requests at 1.2
  // and 2.5, reporting the 1.2 it carries, while a request at 1.1 runs and
  // its tighter entry replaces the looser one. Each request counts exactly
  // one cache hit or miss.
  Catalog catalog = testing::MakeTinyCatalog();
  ServiceOptions options;
  options.num_workers = 1;
  options.operators = testing::SmallOperatorSpace();
  OptimizationService service(options);
  ServiceRequest request;
  request.spec.query =
      std::make_shared<Query>(testing::MakeStarQuery(&catalog, 3));
  request.spec.objectives = ObjectiveSet(
      {Objective::kTotalTime, Objective::kStartupTime, Objective::kIOLoad});
  request.spec.algorithm = AlgorithmKind::kRta;
  request.preference.weights = WeightVector::Uniform(3);
  const auto submit = [&](double alpha) {
    ServiceRequest at = request;
    at.spec.alpha = alpha;
    return service.SubmitAndWait(at);
  };

  const ServiceResponse cold = submit(1.2);
  ASSERT_EQ(cold.status, ResponseStatus::kCompleted);
  EXPECT_EQ(cold.cache, CacheOutcome::kMiss);
  for (double looser : {1.2, 2.5}) {
    const ServiceResponse hit = submit(looser);
    EXPECT_EQ(hit.cache, CacheOutcome::kExactHit) << looser;
    EXPECT_DOUBLE_EQ(hit.alpha, 1.2) << looser;
    EXPECT_EQ(hit.plan_set(), cold.plan_set()) << looser;
  }
  const ServiceResponse tighter = submit(1.1);
  ASSERT_EQ(tighter.status, ResponseStatus::kCompleted);
  EXPECT_EQ(tighter.cache, CacheOutcome::kMiss);
  EXPECT_DOUBLE_EQ(tighter.alpha, 1.1);
  const ServiceResponse upgraded = submit(1.2);
  EXPECT_EQ(upgraded.cache, CacheOutcome::kExactHit);
  EXPECT_DOUBLE_EQ(upgraded.alpha, 1.1);
  EXPECT_EQ(upgraded.plan_set(), tighter.plan_set());

  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.cache_hits, 3u);
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_EQ(service.CacheStats().entries, 1u);
}

TEST(PlanCacheTest, RefinementUpgradesEntryButNeverDowngrades) {
  // A session ladder re-inserts under the same key with ever tighter
  // alphas: each insert must replace. A later coarse run (same key,
  // looser alpha) must NOT overwrite the precise entry — it only
  // refreshes recency.
  PlanCache cache;
  cache.Insert(Sig("q"), AlphaResult(4.0, 1.0));
  cache.Insert(Sig("q"), AlphaResult(2.0, 2.0));  // Tighter: replaces.
  auto hit = cache.Lookup(Sig("q"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->achieved_alpha, 2.0);
  EXPECT_EQ(hit->result->weighted_cost, 2.0);

  cache.Insert(Sig("q"), AlphaResult(3.0, 3.0));  // Looser: recency only.
  hit = cache.Lookup(Sig("q"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->achieved_alpha, 2.0);
  EXPECT_EQ(hit->result->weighted_cost, 2.0);
  EXPECT_EQ(cache.GetStats().entries, 1u);
}

TEST(PlanCacheTest, LooserReinsertKeepsTighterValueButRefreshesRecency) {
  PlanCache::Options options;
  options.capacity = 2;
  options.shards = 1;
  PlanCache cache(options);
  cache.Insert(Sig("a"), AlphaResult(1.0, 1.0));
  cache.Insert(Sig("b"), AlphaResult(1.0, 2.0));  // Recency b > a.
  const PlanCache::Stats before = cache.GetStats();

  // A looser, larger value under a: refused, so the stored value and its
  // accounting stay — but a is touched and b becomes the LRU entry.
  auto looser = std::make_shared<CachedFrontier>(*SizedResult(5));
  looser->achieved_alpha = 2.0;
  cache.Insert(Sig("a"), looser);
  const PlanCache::Stats after = cache.GetStats();
  EXPECT_EQ(after.bytes, before.bytes);
  EXPECT_EQ(after.frontier_plans, before.frontier_plans);
  EXPECT_EQ(after.insertions, before.insertions);

  cache.Insert(Sig("c"), AlphaResult(1.0, 3.0));  // Evicts b, not a.
  EXPECT_EQ(cache.Lookup(Sig("b")), nullptr);
  auto hit = cache.Lookup(Sig("a"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->achieved_alpha, 1.0);
  EXPECT_EQ(hit->result->weighted_cost, 1.0);
}

// ---- Demotion to an attached disk tier. --------------------------------

/// Fresh per-test scratch directory for tier segment files.
std::string FreshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "moqo_plan_cache_" + tag +
                          "_" + std::to_string(::getpid());
  const std::string cmd = "rm -rf " + dir + " && mkdir -p " + dir;
  EXPECT_EQ(std::system(cmd.c_str()), 0);
  return dir;
}

/// A one-shard tier over `dir`, wide enough never to drop a record.
std::shared_ptr<persist::DiskTier> OneShardTier(const std::string& dir) {
  persist::DiskTier::Options options;
  options.directory = dir;
  options.name = "tier";
  options.capacity_bytes = size_t{1} << 20;
  options.shards = 1;
  return std::make_shared<persist::DiskTier>(options);
}

/// Keys of the records in the tier's one segment, in append order: the
/// order entries were demoted in.
std::vector<std::string> DemotedKeys(const std::string& dir) {
  std::ifstream in(dir + "/tier.shard0.seg", std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ByteReader reader(bytes.data(), bytes.size());
  std::vector<std::string> keys;
  persist::RecordView record;
  while (reader.remaining() > 0 &&
         persist::ReadRecord(&reader, &record) ==
             persist::ReadRecordStatus::kOk) {
    keys.emplace_back(record.key);
  }
  return keys;
}

/// A persistable entry: a frontier of `plans` scans of table 0 (a tier
/// only takes entries whose frontier encodes and decodes), tagged `alpha`.
std::shared_ptr<const CachedFrontier> TierEntry(int plans,
                                                double alpha = 1.0) {
  Arena arena;
  ParetoSet set;
  for (int i = 0; i < plans; ++i) {
    PlanNode* scan = arena.New<PlanNode>();
    scan->table = 0;
    scan->tables = TableSet::Singleton(0);
    scan->cost = CostVector(2);
    scan->cost[0] = 1.0 + i;
    scan->cost[1] = 1000.0 - i;
    set.Prune(scan);
  }
  set.Seal();
  auto result = std::make_shared<OptimizerResult>();
  result->plan_set = PlanSet::FromParetoSet(set);
  auto cached = std::make_shared<CachedFrontier>();
  cached->result = std::move(result);
  cached->weights = WeightVector::Uniform(2);
  cached->achieved_alpha = alpha;
  return cached;
}

TEST(PlanCacheTest, TooLooseEntryIsAMissAndIsNotPromoted) {
  // RAM answers a lookup whenever it holds the key, even when the tier
  // holds a tighter generation: the lookup hands back the RAM entry, tag
  // intact, and promotes nothing. A requester needing the tighter
  // guarantee judges the entry too loose, a miss, and re-runs; it never
  // reaches the tier's record.
  const std::string dir = FreshDir("too_loose");
  PlanCache::Options options;
  options.capacity = 1;
  options.shards = 1;
  PlanCache cache(options);
  const std::shared_ptr<persist::DiskTier> tier = OneShardTier(dir);
  cache.AttachTier(tier);
  cache.Insert(Sig("q"), TierEntry(1, /*alpha=*/1.1));
  cache.Insert(Sig("r"), TierEntry(1));                 // Demotes q@1.1.
  cache.Insert(Sig("q"), TierEntry(2, /*alpha=*/2.0));  // Demotes r.
  ASSERT_EQ(DemotedKeys(dir), (std::vector<std::string>{"q", "r"}));

  bool from_tier = true;
  auto hit = cache.Lookup(Sig("q"), &from_tier);
  ASSERT_NE(hit, nullptr);
  EXPECT_FALSE(from_tier);
  EXPECT_EQ(hit->achieved_alpha, 2.0);
  EXPECT_EQ(hit->result->plan_set->size(), 2);
  EXPECT_EQ(tier->GetStats().promotions, 0u);
  EXPECT_EQ(tier->GetStats().entries, 2u);
}

TEST(PlanCacheTest, DemotionsReachTheTierColdestFirst) {
  const std::string dir = FreshDir("coldest");
  const size_t unit = MeasuredEntryBytes(Sig("a"), TierEntry(1));
  const std::shared_ptr<const CachedFrontier> big = TierEntry(400);
  PlanCache::Options options;
  options.capacity = 3;
  options.capacity_bytes = 3 * unit + unit / 2;
  options.shards = 1;
  ASSERT_GT(MeasuredEntryBytes(Sig("big"), big), options.capacity_bytes);
  PlanCache cache(options);
  cache.AttachTier(OneShardTier(dir));

  cache.Insert(Sig("a"), TierEntry(1));
  cache.Insert(Sig("b"), TierEntry(1));
  cache.Insert(Sig("c"), TierEntry(1));
  ASSERT_NE(cache.Lookup(Sig("a")), nullptr);  // Recency a > c > b.
  EXPECT_TRUE(DemotedKeys(dir).empty());
  cache.Insert(Sig("d"), TierEntry(1));  // Entry cap: demotes b.
  cache.Insert(Sig("e"), TierEntry(1));  // Demotes c.
  EXPECT_EQ(DemotedKeys(dir), (std::vector<std::string>{"b", "c"}));

  // One byte squeeze evicts every resident entry at once (the oversized
  // entry is stored alone); each victim reaches the tier, coldest first.
  cache.Insert(Sig("big"), big);
  EXPECT_EQ(DemotedKeys(dir),
            (std::vector<std::string>{"b", "c", "a", "d", "e"}));
  EXPECT_EQ(cache.GetStats().entries, 1u);
  EXPECT_EQ(cache.GetStats().evictions, 5u);
}

TEST(PlanCacheTest, PromotionThatEvictsAlsoDemotes) {
  // A tier hit re-inserts the entry, which may evict: that victim is
  // demoted like any other — after the shard lock is released, since the
  // promotion runs inside Lookup.
  const std::string dir = FreshDir("promote");
  PlanCache::Options options;
  options.capacity = 1;
  options.shards = 1;
  PlanCache cache(options);
  const std::shared_ptr<persist::DiskTier> tier = OneShardTier(dir);
  cache.AttachTier(tier);
  cache.Insert(Sig("a"), TierEntry(1));
  cache.Insert(Sig("b"), TierEntry(2));  // Demotes a.

  bool from_tier = false;
  auto hit = cache.Lookup(Sig("a"), &from_tier);
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(from_tier);
  EXPECT_EQ(DemotedKeys(dir), (std::vector<std::string>{"a", "b"}));

  // The victim is itself promotable, and promoting it demotes a again.
  hit = cache.Lookup(Sig("b"), &from_tier);
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(from_tier);
  EXPECT_EQ(hit->result->plan_set->size(), 2);
  EXPECT_EQ(DemotedKeys(dir), (std::vector<std::string>{"a", "b", "a"}));
  EXPECT_EQ(tier->GetStats().promotions, 2u);
}

TEST(PlanCacheTest, ExportToExportsEveryResidentEntry) {
  const std::string dir = FreshDir("export");
  PlanCache cache;  // Eight shards: the export walks all of them.
  std::vector<std::string> keys;
  for (int i = 0; i < 12; ++i) {
    keys.push_back("k" + std::to_string(i));
    cache.Insert(Sig(keys.back()), TierEntry(1 + i % 3));
  }
  cache.Insert(Sig("no-frontier"), Result(1.0));  // Nothing to persist.

  persist::SnapshotWriter writer(/*catalog_epoch=*/0, kCostModelVersion);
  cache.ExportTo(&writer);
  ASSERT_TRUE(writer.WriteFile(dir + "/snap"));
  std::vector<std::string> exported;
  persist::ReadSnapshot(dir + "/snap", nullptr,
                        [&exported](const persist::SnapshotRecordView& r) {
                          EXPECT_EQ(r.kind,
                                    persist::RecordKind::kPlanCacheEntry);
                          exported.emplace_back(r.key);
                        });
  std::sort(keys.begin(), keys.end());
  std::sort(exported.begin(), exported.end());
  EXPECT_EQ(exported, keys);
}

TEST(PlanCacheTest, RestoreKeepsEachShardsRecency) {
  // A snapshot lists each shard coldest first and Restore inserts every
  // record as the most recently used, so a warm restart keeps the order:
  // the next eviction takes the entry that was coldest before the
  // restart, not the hottest.
  const std::string dir = FreshDir("recency");
  PlanCache::Options options;
  options.capacity = 4;
  options.shards = 1;
  PlanCache cache(options);
  for (const char* key : {"a", "b", "c", "d"}) {
    cache.Insert(Sig(key), TierEntry(1));
  }
  ASSERT_NE(cache.Lookup(Sig("a")), nullptr);  // Recency a > d > c > b.
  persist::SnapshotWriter writer(/*catalog_epoch=*/0, kCostModelVersion);
  cache.ExportTo(&writer);
  ASSERT_TRUE(writer.WriteFile(dir + "/snap"));

  PlanCache restored(options);
  std::vector<std::string> file_order;
  persist::ReadSnapshot(dir + "/snap", nullptr,
                        [&](const persist::SnapshotRecordView& r) {
                          file_order.emplace_back(r.key);
                          EXPECT_TRUE(restored.Restore(r));
                        });
  EXPECT_EQ(file_order, (std::vector<std::string>{"b", "c", "d", "a"}));
  restored.Insert(Sig("e"), TierEntry(1));  // Evicts the coldest: b.
  EXPECT_EQ(restored.Lookup(Sig("b")), nullptr);
  for (const char* key : {"a", "c", "d", "e"}) {
    EXPECT_NE(restored.Lookup(Sig(key)), nullptr) << key;
  }
}

TEST(PlanCacheTest, ConcurrentMixedTraffic) {
  PlanCache::Options options;
  options.capacity = 64;
  options.shards = 8;
  PlanCache cache(options);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key = "key" + std::to_string((t * 7 + i) % 100);
        if (i % 3 == 0) {
          cache.Insert(Sig(key), Result(i));
        } else {
          auto hit = cache.Lookup(Sig(key));
          if (hit != nullptr) {
            // Touch the value: TSan would flag unsynchronized access.
            volatile double cost = hit->result->weighted_cost;
            (void)cost;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Every entry ever inserted is resident or was evicted: no event is
  // lost under concurrent inserts and evictions.
  const PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.insertions, stats.entries + stats.evictions);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.entries, 64u + 8u);  // Capacity rounding headroom.
}

}  // namespace
}  // namespace moqo
