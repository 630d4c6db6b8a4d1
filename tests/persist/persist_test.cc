// Copyright (c) 2026 moqo authors. MIT license.
//
// Persistence subsystem tests (PR 9): the relocatable PlanSet codec, the
// snapshot file's validation matrix, and the service-level warm restore.
// The headline invariant is bit-exactness — a snapshot round-trip must
// reproduce every cost vector of every frontier down to the IEEE-754 bit
// pattern, for exact and approximate frontiers alike, because the cache
// identity contract is "equal keys imply byte-identical frontiers".

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/dp_driver.h"
#include "core/plan_set.h"
#include "memo/subplan_memo.h"
#include "model/cost_model.h"
#include "persist/format.h"
#include "persist/plan_set_codec.h"
#include "persist/snapshot.h"
#include "query/tpch_queries.h"
#include "rt/failpoint.h"
#include "service/optimization_service.h"
#include "service/plan_cache.h"
#include "testing/test_helpers.h"
#include "util/arena.h"

namespace moqo {
namespace {

using persist::PlanSetCodec;
using persist::ReadSnapshot;
using persist::RecordKind;
using persist::SnapshotHeader;
using persist::SnapshotReadResult;
using persist::SnapshotRecordView;
using persist::SnapshotWriter;
using testing::MakeStarQuery;
using testing::MakeTinyCatalog;
using testing::SmallOperatorSpace;

uint64_t DoubleBits(double v) { return std::bit_cast<uint64_t>(v); }

/// Fresh per-test scratch directory (tests must not see each other's
/// snapshot or segment files).
std::string FreshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "moqo_persist_" + tag + "_" +
                          std::to_string(::getpid());
  std::string cmd = "rm -rf " + dir + " && mkdir -p " + dir;
  EXPECT_EQ(std::system(cmd.c_str()), 0);
  return dir;
}

/// True iff the two sets carry identical frontiers down to the cost bit
/// patterns (the round-trip acceptance bar; == on doubles would also pass
/// -0.0 vs 0.0, which the bit comparison rejects).
void ExpectBitIdentical(const PlanSet& a, const PlanSet& b) {
  ASSERT_EQ(a.size(), b.size());
  for (int i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.cost(i).size(), b.cost(i).size());
    for (int k = 0; k < a.cost(i).size(); ++k) {
      EXPECT_EQ(DoubleBits(a.cost(i)[k]), DoubleBits(b.cost(i)[k]))
          << "plan " << i << " dim " << k;
    }
  }
}

/// A small synthetic frontier whose two roots share one scan sub-plan —
/// exercising DAG dedup — with adversarial doubles (negative zero,
/// repeating fractions, denormal-adjacent values) in the cost vectors.
std::shared_ptr<const PlanSet> MakeDagFrontier(Arena* arena) {
  PlanNode* shared_scan = arena->New<PlanNode>();
  shared_scan->op_config = 3;
  shared_scan->table = 0;
  shared_scan->tables = TableSet(0b1);
  shared_scan->cardinality = 1.0 / 3.0;
  shared_scan->row_width = 64.25;
  shared_scan->cost = CostVector(2);
  shared_scan->cost[0] = 0.1;
  shared_scan->cost[1] = -0.0;

  PlanNode* other_scan = arena->New<PlanNode>();
  other_scan->op_config = 1;
  other_scan->table = 1;
  other_scan->tables = TableSet(0b10);
  other_scan->cardinality = 5e-324;  // Smallest denormal.
  other_scan->row_width = 32;
  other_scan->cost = CostVector(2);
  other_scan->cost[0] = 2.0;
  other_scan->cost[1] = 1.0 / 7.0;

  ParetoSet set;
  const double join_costs[][2] = {{1.5, 8.0}, {6.0, 0.5}};
  for (int j = 0; j < 2; ++j) {
    PlanNode* join = arena->New<PlanNode>();
    join->op_config = 10 + j;
    join->table = -1;
    join->left = shared_scan;
    join->right = other_scan;
    join->tables = TableSet(0b11);
    join->cardinality = 1234.5;
    join->row_width = 96;
    join->cost = CostVector(2);
    join->cost[0] = join_costs[j][0];
    join->cost[1] = join_costs[j][1];
    set.Prune(join);
  }
  set.Seal();
  return PlanSet::FromParetoSet(set);
}

TEST(PersistTest, PlanSetCodecRoundTripIsBitExact) {
  Arena arena;
  std::shared_ptr<const PlanSet> original = MakeDagFrontier(&arena);
  ASSERT_EQ(original->size(), 2);

  std::string block;
  PlanSetCodec::Append(*original, &block);
  size_t consumed = 0;
  std::shared_ptr<const PlanSet> decoded =
      PlanSetCodec::Decode(block.data(), block.size(), &consumed);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(consumed, block.size());
  ExpectBitIdentical(*original, *decoded);

  // Node payloads survive verbatim, including the scalar statistics.
  const PlanNode* root = decoded->plan(0);
  ASSERT_NE(root, nullptr);
  ASSERT_NE(root->left, nullptr);
  EXPECT_EQ(root->left->op_config, 3);
  EXPECT_EQ(root->left->table, 0);
  EXPECT_EQ(root->left->tables.mask(), 0b1u);
  EXPECT_EQ(DoubleBits(root->left->cardinality), DoubleBits(1.0 / 3.0));
  EXPECT_EQ(DoubleBits(root->right->cardinality), DoubleBits(5e-324));

  // DAG sharing is preserved: both decoded roots reference ONE copy of
  // each scan, not per-root clones.
  EXPECT_EQ(decoded->plan(0)->left, decoded->plan(1)->left);
  EXPECT_EQ(decoded->plan(0)->right, decoded->plan(1)->right);

  // Re-encoding the decoded set is byte-identical: the codec is a
  // fixed point, so repeated demote/promote cycles never drift.
  std::string block2;
  PlanSetCodec::Append(*decoded, &block2);
  EXPECT_EQ(block, block2);
}

TEST(PersistTest, PlanSetCodecRejectsEveryTruncation) {
  Arena arena;
  std::shared_ptr<const PlanSet> original = MakeDagFrontier(&arena);
  std::string block;
  PlanSetCodec::Append(*original, &block);

  // Every strict prefix must decode to nullptr — never crash, never
  // return a partially-built set.
  for (size_t len = 0; len < block.size(); ++len) {
    EXPECT_EQ(PlanSetCodec::Decode(block.data(), len, nullptr), nullptr)
        << "prefix length " << len;
  }
}

TEST(PersistTest, PlanSetCodecRejectsCorruptStructure) {
  Arena arena;
  std::shared_ptr<const PlanSet> original = MakeDagFrontier(&arena);
  std::string block;
  PlanSetCodec::Append(*original, &block);

  // Forward references (child index >= own index) and out-of-range roots
  // must be rejected; synthesize them by corrupting the counts.
  std::string corrupt = block;
  uint32_t huge = 0x7FFFFFFF;
  std::memcpy(corrupt.data(), &huge, sizeof(huge));  // num_plans.
  EXPECT_EQ(PlanSetCodec::Decode(corrupt.data(), corrupt.size(), nullptr),
            nullptr);
  corrupt = block;
  std::memcpy(corrupt.data() + 4, &huge, sizeof(huge));  // num_nodes.
  EXPECT_EQ(PlanSetCodec::Decode(corrupt.data(), corrupt.size(), nullptr),
            nullptr);
  corrupt = block;
  std::memcpy(corrupt.data() + 8, &huge, sizeof(huge));  // dims.
  EXPECT_EQ(PlanSetCodec::Decode(corrupt.data(), corrupt.size(), nullptr),
            nullptr);
}

/// The block of a one-plan frontier joining scans of tables 0 and 1, after
/// `edit` has rewritten the nodes: the encoder writes whatever fields it
/// is given.
std::string EncodedJoin(void (*edit)(PlanNode* outer, PlanNode* inner,
                                     PlanNode* join)) {
  Arena arena;
  PlanNode* outer = arena.New<PlanNode>();
  outer->table = 0;
  outer->tables = TableSet(0b01);
  outer->cost = CostVector(2);
  PlanNode* inner = arena.New<PlanNode>();
  inner->table = 1;
  inner->tables = TableSet(0b10);
  inner->cost = CostVector(2);
  PlanNode* join = arena.New<PlanNode>();
  join->left = outer;
  join->right = inner;
  join->tables = TableSet(0b11);
  join->cost = CostVector(2);
  edit(outer, inner, join);
  ParetoSet set;
  set.Prune(join);
  set.Seal();
  std::string block;
  PlanSetCodec::Append(*PlanSet::FromParetoSet(set), &block);
  return block;
}

TEST(PersistTest, PlanSetCodecRejectsNodesThatContradictTheirShape) {
  // A checksum only proves the bytes are the writer's. Decode also refuses
  // a node whose table fields contradict its shape: the memo hit path
  // indexes a rank map by them.
  const auto decode = [](const std::string& block) {
    return PlanSetCodec::Decode(block.data(), block.size(), nullptr);
  };
  ASSERT_NE(decode(EncodedJoin([](PlanNode*, PlanNode*, PlanNode*) {})),
            nullptr);

  struct Shape {
    const char* name;
    void (*edit)(PlanNode* outer, PlanNode* inner, PlanNode* join);
  };
  const Shape shapes[] = {
      {"scan of a negative table",
       [](PlanNode* outer, PlanNode*, PlanNode*) { outer->table = -1; }},
      {"scan of table kMaxTables",
       [](PlanNode* outer, PlanNode*, PlanNode*) {
         outer->table = TableSet::kMaxTables;
       }},
      {"scan whose tables are not {table}",
       [](PlanNode* outer, PlanNode*, PlanNode*) {
         outer->tables = TableSet(0b101);
       }},
      {"join with a table",
       [](PlanNode*, PlanNode*, PlanNode* join) { join->table = 1; }},
      {"join whose tables are not its children's union",
       [](PlanNode*, PlanNode*, PlanNode* join) {
         join->tables = TableSet(0b111);
       }},
      {"join of overlapping children",
       [](PlanNode*, PlanNode* inner, PlanNode* join) {
         inner->table = 0;
         inner->tables = TableSet(0b01);
         join->tables = TableSet(0b01);
       }},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    EXPECT_EQ(decode(EncodedJoin(shape.edit)), nullptr);
  }

  // Roots over different table sets: two scans as one frontier.
  Arena arena;
  ParetoSet set;
  for (int table = 0; table < 2; ++table) {
    PlanNode* scan = arena.New<PlanNode>();
    scan->table = table;
    scan->tables = TableSet::Singleton(table);
    scan->cost = CostVector(2);
    scan->cost[table] = 1.0;
    set.Prune(scan);
  }
  set.Seal();
  ASSERT_EQ(set.size(), 2);
  std::string block;
  PlanSetCodec::Append(*PlanSet::FromParetoSet(set), &block);
  EXPECT_EQ(decode(block), nullptr);
}

TEST(PersistTest, FrontierPayloadRoundTripRebuildsSelection) {
  Arena arena;
  std::shared_ptr<const PlanSet> plan_set = MakeDagFrontier(&arena);
  auto result = std::make_shared<OptimizerResult>();
  result->plan_set = plan_set;
  WeightVector weights(2);
  weights[0] = 0.25;
  weights[1] = 0.75;
  BoundVector bounds(2);
  const PlanSelection selection = SelectPlan(*plan_set, weights, bounds);
  result->plan = selection.plan;
  result->cost = selection.cost;
  result->weighted_cost = selection.weighted_cost;
  result->respects_bounds = true;
  CachedFrontier entry;
  entry.result = result;
  entry.weights = weights;
  entry.bounds = bounds;
  entry.achieved_alpha = 1.25;

  std::string payload;
  ASSERT_TRUE(PlanCacheEntryCodec::Encode(entry, &payload));
  std::shared_ptr<const CachedFrontier> decoded =
      PlanCacheEntryCodec::Decode(payload, 1.25);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->achieved_alpha, 1.25);
  ASSERT_EQ(decoded->weights.size(), 2);
  EXPECT_EQ(DoubleBits(decoded->weights[0]), DoubleBits(0.25));
  ASSERT_NE(decoded->result, nullptr);
  ExpectBitIdentical(*plan_set, *decoded->result->plan_set);
  // SelectPlan over bit-identical costs is deterministic: the restored
  // selection matches the original one exactly.
  EXPECT_EQ(DoubleBits(decoded->result->weighted_cost),
            DoubleBits(result->weighted_cost));
  for (int len = static_cast<int>(payload.size()) - 1; len >= 0; len -= 7) {
    EXPECT_EQ(PlanCacheEntryCodec::Decode(
                  std::string_view(payload.data(), len), 1.25),
              nullptr);
  }
}

TEST(PersistTest,
     FrontierPayloadWhosePreferenceDisagreesWithItsFrontierIsRefused) {
  // The service stores each preference resolved against its request's
  // objectives: one weight per cost column, and no bounds or one per
  // weight. A payload that breaks either would have SelectPlan weigh a
  // frontier of other objectives, so the decoder refuses it.
  Arena arena;
  auto result = std::make_shared<OptimizerResult>();
  result->plan_set = MakeDagFrontier(&arena);  // Two cost columns.
  const auto decodes = [&result](int num_weights, int num_bounds) {
    CachedFrontier entry;
    entry.result = result;
    entry.weights = WeightVector::Uniform(num_weights);
    entry.bounds = BoundVector(num_bounds);
    std::string payload;
    EXPECT_TRUE(PlanCacheEntryCodec::Encode(entry, &payload));
    return PlanCacheEntryCodec::Decode(payload, 1.0) != nullptr;
  };
  EXPECT_TRUE(decodes(2, 0));
  EXPECT_TRUE(decodes(2, 2));
  EXPECT_FALSE(decodes(3, 0));
  EXPECT_FALSE(decodes(1, 0));
  EXPECT_FALSE(decodes(2, 3));
  EXPECT_FALSE(decodes(2, 1));
}

TEST(PersistTest, SnapshotWriterReaderRoundTrip) {
  const std::string dir = FreshDir("roundtrip");
  const std::string path = dir + "/snap";
  SnapshotWriter writer(/*catalog_epoch=*/7, /*cost_model_version=*/kCostModelVersion);
  writer.AddRecord(RecordKind::kPlanCacheEntry, "key-a", 111, 1.5, "payload-a");
  writer.AddRecord(RecordKind::kMemoEntry, "key-b", 222, 0.0, "payload-b");
  ASSERT_TRUE(writer.WriteFile(path));
  EXPECT_EQ(writer.record_count(), 2u);

  std::vector<SnapshotRecordView> seen_kinds;
  std::vector<std::string> keys, payloads;
  SnapshotHeader expected;
  expected.catalog_epoch = 7;
  expected.cost_model_version = kCostModelVersion;
  const SnapshotReadResult result = ReadSnapshot(
      path, &expected, [&](const SnapshotRecordView& record) {
        keys.emplace_back(record.key);
        payloads.emplace_back(record.payload);
        if (keys.size() == 1) {
          EXPECT_EQ(record.kind, RecordKind::kPlanCacheEntry);
          EXPECT_EQ(record.key_hash, 111u);
          EXPECT_EQ(record.achieved_alpha, 1.5);
        }
      });
  EXPECT_TRUE(result.loaded);
  EXPECT_EQ(result.header.catalog_epoch, 7u);
  EXPECT_EQ(result.header.cost_model_version, kCostModelVersion);
  EXPECT_EQ(result.header.record_count, 2u);
  EXPECT_EQ(result.records_ok, 2u);
  EXPECT_EQ(result.skipped_checksum, 0u);
  EXPECT_EQ(result.truncated, 0u);
  EXPECT_EQ(keys, (std::vector<std::string>{"key-a", "key-b"}));
  EXPECT_EQ(payloads, (std::vector<std::string>{"payload-a", "payload-b"}));
}

TEST(PersistTest, SnapshotValidationMatrix) {
  const std::string dir = FreshDir("matrix");
  const std::string path = dir + "/snap";
  SnapshotWriter writer(1, kCostModelVersion);
  writer.AddRecord(RecordKind::kPlanCacheEntry, "k1", 1, 1.0, "p1");
  writer.AddRecord(RecordKind::kPlanCacheEntry, "k2", 2, 1.0, "p2");
  writer.AddRecord(RecordKind::kPlanCacheEntry, "k3", 3, 1.0, "p3");
  ASSERT_TRUE(writer.WriteFile(path));

  const auto read_count = [&](const std::string& p) {
    uint64_t n = 0;
    SnapshotReadResult r = ReadSnapshot(
        p, nullptr, [&](const SnapshotRecordView&) { ++n; });
    EXPECT_EQ(r.records_ok, n);
    return r;
  };

  // Missing file: not loaded, no records, no crash.
  SnapshotReadResult missing = read_count(dir + "/nonexistent");
  EXPECT_FALSE(missing.loaded);

  // Flipped magic byte: whole file ignored.
  std::string raw;
  {
    FILE* f = fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buffer[4096];
    size_t n;
    while ((n = fread(buffer, 1, sizeof(buffer), f)) > 0) raw.append(buffer, n);
    fclose(f);
  }
  const auto write_variant = [&](const std::string& name,
                                 const std::string& bytes) {
    const std::string p = dir + "/" + name;
    FILE* f = fopen(p.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    fwrite(bytes.data(), 1, bytes.size(), f);
    fclose(f);
    return p;
  };
  std::string bad_magic = raw;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(read_count(write_variant("bad_magic", bad_magic)).loaded);

  // Corrupted header byte (breaks the header checksum): ignored.
  std::string bad_header = raw;
  bad_header[16] ^= 0x01;  // catalog_epoch byte.
  EXPECT_FALSE(read_count(write_variant("bad_header", bad_header)).loaded);

  // Unknown format version (header checksum recomputed so only the
  // version gate can reject): header trusted, records not parsed.
  std::string bad_version = raw;
  bad_version[8] ^= 0x40;  // format_version.
  {
    const uint64_t checksum =
        Fnv1a(bad_version.data(), 40, persist::kChecksumSeed);
    std::memcpy(bad_version.data() + 40, &checksum, 8);
  }
  SnapshotReadResult version = read_count(write_variant("bad_version",
                                                        bad_version));
  EXPECT_TRUE(version.loaded);
  EXPECT_NE(version.header.format_version, persist::kFormatVersion);
  EXPECT_EQ(version.records_ok, 0u);
  EXPECT_EQ(version.skipped_version, 3u);

  // Torn tail: drop the last 5 bytes — the final record is lost, the
  // prefix parses.
  std::string torn = raw.substr(0, raw.size() - 5);
  SnapshotReadResult torn_result = read_count(write_variant("torn", torn));
  EXPECT_TRUE(torn_result.loaded);
  EXPECT_EQ(torn_result.records_ok, 2u);
  EXPECT_EQ(torn_result.truncated, 1u);

  // Bit rot inside record 2's payload: that record AND the rest are
  // dropped (the corrupt header's lengths cannot be trusted to find
  // record 3), record 1 survives.
  std::string rot = raw;
  rot[rot.size() - 3] ^= 0x10;  // Inside the last record's payload.
  SnapshotReadResult rot_result = read_count(write_variant("rot", rot));
  EXPECT_TRUE(rot_result.loaded);
  EXPECT_EQ(rot_result.records_ok, 2u);
  EXPECT_EQ(rot_result.skipped_checksum, 1u);

  // Epoch gate: a snapshot of another catalog epoch than the expected
  // header's stops before records, and its records count under epoch.
  SnapshotHeader expected;
  expected.catalog_epoch = 2;
  expected.cost_model_version = kCostModelVersion;
  uint64_t gated_records = 0;
  SnapshotReadResult gated = ReadSnapshot(
      path, &expected, [&](const SnapshotRecordView&) { ++gated_records; });
  EXPECT_TRUE(gated.loaded);
  EXPECT_EQ(gated_records, 0u);
  EXPECT_EQ(gated.skipped_epoch, 3u);
  EXPECT_EQ(gated.skipped_version, 0u);

  // The first failing row wins: another cost model and another epoch
  // count once, under version.
  expected.cost_model_version = kCostModelVersion + 1;
  SnapshotReadResult stale = ReadSnapshot(
      path, &expected, [&](const SnapshotRecordView&) { ++gated_records; });
  EXPECT_TRUE(stale.loaded);
  EXPECT_EQ(gated_records, 0u);
  EXPECT_EQ(stale.skipped_version, 3u);
  EXPECT_EQ(stale.skipped_epoch, 0u);
}

// ---- Service-level warm restore. ---------------------------------------

ServiceOptions PersistServiceOptions(const std::string& dir) {
  ServiceOptions options;
  options.num_workers = 2;
  options.operators = SmallOperatorSpace();
  options.persist.directory = dir;
  options.persist.tier_capacity_bytes = size_t{8} << 20;
  return options;
}

ObjectiveSet FirstObjectives(int num_objectives) {
  std::vector<Objective> objectives(kAllObjectives.begin(),
                                    kAllObjectives.begin() + num_objectives);
  return ObjectiveSet(objectives);
}

ServiceRequest StarRequest(const Catalog* catalog, int num_dims,
                           int num_objectives, AlgorithmKind algorithm,
                           double alpha) {
  ServiceRequest request;
  request.spec.query =
      std::make_shared<Query>(MakeStarQuery(catalog, num_dims));
  request.spec.objectives = FirstObjectives(num_objectives);
  request.spec.algorithm = algorithm;
  request.spec.alpha = alpha;
  request.preference.weights = WeightVector::Uniform(num_objectives);
  return request;
}

uint64_t OptimizerRuns(const OptimizationService& service) {
  uint64_t runs = 0;
  for (const HistogramSnapshot& lat : service.Stats().latency_by_algorithm) {
    runs += lat.count;
  }
  return runs;
}

TEST(PersistTest, ServiceSnapshotRestoreServesWarmBitIdentical) {
  const std::string dir = FreshDir("service");
  Catalog catalog = MakeTinyCatalog();
  // One exact (EXA) and one approximate (RTA) frontier: the bit-identity
  // acceptance covers both.
  ServiceRequest exact = StarRequest(&catalog, 2, 2, AlgorithmKind::kExa, 1.0);
  ServiceRequest approx =
      StarRequest(&catalog, 3, 3, AlgorithmKind::kRta, 1.5);

  std::vector<CostVector> exact_costs, approx_costs;
  double exact_weighted = 0, approx_weighted = 0;
  {
    OptimizationService service(PersistServiceOptions(dir));
    ServiceResponse r1 = service.SubmitAndWait(exact);
    ASSERT_EQ(r1.status, ResponseStatus::kCompleted);
    exact_costs = r1.plan_set()->costs();
    exact_weighted = r1.result->weighted_cost;
    ServiceResponse r2 = service.SubmitAndWait(approx);
    ASSERT_EQ(r2.status, ResponseStatus::kCompleted);
    approx_costs = r2.plan_set()->costs();
    approx_weighted = r2.result->weighted_cost;
    // star3 publishes table-set frontiers into the memo; the snapshot
    // must carry them too.
    EXPECT_GT(service.MemoStats().insertions, 0u);
  }  // Destructor: snapshot-on-shutdown.

  OptimizationService restored(PersistServiceOptions(dir));
  const persist::PersistStatsSnapshot persisted = restored.PersistStats();
  EXPECT_EQ(persisted.restores_attempted, 1u);
  EXPECT_EQ(persisted.restores_loaded, 1u);
  ASSERT_GT(persisted.restored_plan_entries, 0u);
  EXPECT_GT(persisted.restored_memo_entries, 0u);
  EXPECT_EQ(persisted.restore_skipped_checksum, 0u);
  EXPECT_EQ(persisted.restore_truncated, 0u);

  // First request after restart: answered from the restored cache — no
  // optimizer run — with the SAME frontier, bit for bit.
  ServiceResponse warm_exact = restored.SubmitAndWait(exact);
  ASSERT_EQ(warm_exact.status, ResponseStatus::kCompleted);
  EXPECT_TRUE(warm_exact.cache_hit());
  EXPECT_EQ(OptimizerRuns(restored), 0u);
  ServiceResponse warm_approx = restored.SubmitAndWait(approx);
  ASSERT_EQ(warm_approx.status, ResponseStatus::kCompleted);
  EXPECT_TRUE(warm_approx.cache_hit());
  EXPECT_EQ(OptimizerRuns(restored), 0u);

  const auto expect_same = [](const std::vector<CostVector>& before,
                              const std::vector<CostVector>& after) {
    ASSERT_EQ(before.size(), after.size());
    for (size_t i = 0; i < before.size(); ++i) {
      for (int k = 0; k < before[i].size(); ++k) {
        EXPECT_EQ(DoubleBits(before[i][k]), DoubleBits(after[i][k]));
      }
    }
  };
  expect_same(exact_costs, warm_exact.plan_set()->costs());
  expect_same(approx_costs, warm_approx.plan_set()->costs());
  EXPECT_EQ(DoubleBits(exact_weighted),
            DoubleBits(warm_exact.result->weighted_cost));
  EXPECT_EQ(DoubleBits(approx_weighted),
            DoubleBits(warm_approx.result->weighted_cost));
}

/// One snapshot record with its bytes owned (a reader's views die with
/// the record callback). Ordered and compared field by field.
struct OwnedRecord {
  uint32_t kind = 0;
  std::string key;
  uint64_t hash = 0;
  uint64_t alpha_bits = 0;
  std::string payload;

  auto Fields() const { return std::tie(kind, key, hash, alpha_bits, payload); }
  bool operator<(const OwnedRecord& other) const {
    return Fields() < other.Fields();
  }
};

std::vector<OwnedRecord> ReadRecords(const std::string& path) {
  std::vector<OwnedRecord> records;
  const SnapshotReadResult result =
      ReadSnapshot(path, nullptr, [&records](const SnapshotRecordView& r) {
        records.push_back({static_cast<uint32_t>(r.kind), std::string(r.key),
                           r.key_hash, DoubleBits(r.achieved_alpha),
                           std::string(r.payload)});
      });
  EXPECT_TRUE(result.loaded);
  EXPECT_EQ(result.skipped_checksum, 0u);
  EXPECT_EQ(result.truncated, 0u);
  return records;
}

size_t CountKind(const std::vector<OwnedRecord>& records, RecordKind kind) {
  return static_cast<size_t>(
      std::count_if(records.begin(), records.end(),
                    [kind](const OwnedRecord& r) {
                      return r.kind == static_cast<uint32_t>(kind);
                    }));
}

/// Serves one EXA and one RTA request from a service over `dir` and lets
/// its shutdown snapshot them: plan-cache records for both runs, memo
/// records for the table sets the RTA's star3 DP published. Returns the
/// snapshot's records.
std::vector<OwnedRecord> WriteWarmSnapshot(const std::string& dir) {
  Catalog catalog = MakeTinyCatalog();
  {
    OptimizationService service(PersistServiceOptions(dir));
    EXPECT_EQ(service
                  .SubmitAndWait(
                      StarRequest(&catalog, 2, 2, AlgorithmKind::kExa, 1.0))
                  .status,
              ResponseStatus::kCompleted);
    EXPECT_EQ(service
                  .SubmitAndWait(
                      StarRequest(&catalog, 3, 3, AlgorithmKind::kRta, 1.5))
                  .status,
              ResponseStatus::kCompleted);
  }
  std::vector<OwnedRecord> records = ReadRecords(dir + "/moqo.snapshot");
  EXPECT_GE(CountKind(records, RecordKind::kPlanCacheEntry), 2u);
  EXPECT_GT(CountKind(records, RecordKind::kMemoCandidates), 0u);
  return records;
}

TEST(PersistTest, RestoredStateReExportsTheSameRecords) {
  // Restore then snapshot is a fixed point: a second process that restores
  // the file and snapshots again writes back every record — kind, key,
  // hash, alpha bits and payload — unchanged, in whatever order.
  const std::string dir = FreshDir("reexport");
  std::vector<OwnedRecord> written = WriteWarmSnapshot(dir);

  ServiceOptions options = PersistServiceOptions(dir);
  options.persist.snapshot_on_shutdown = false;
  OptimizationService restored(options);
  ASSERT_EQ(restored.PersistStats().restored_entries(), written.size());
  ASSERT_TRUE(restored.SnapshotNow());
  std::vector<OwnedRecord> reexported = ReadRecords(dir + "/moqo.snapshot");

  std::sort(written.begin(), written.end());
  std::sort(reexported.begin(), reexported.end());
  ASSERT_EQ(written.size(), reexported.size());
  for (size_t i = 0; i < written.size(); ++i) {
    EXPECT_TRUE(written[i].Fields() == reexported[i].Fields())
        << "record " << i << " (kind " << written[i].kind << ", hash "
        << written[i].hash << ") changed across restore + re-export";
  }
}

TEST(PersistTest, RestoreSkipsRecordsOfAnUnknownKind) {
  // A record of a kind this build does not know (a newer writer's) or no
  // longer claims (a memo entry as a PlanSet block, under a live memo
  // key) is skipped on its own: it is neither a checksum skip nor a
  // truncation, and every known record behind it still restores.
  const std::string dir = FreshDir("unknown_kind");
  const std::vector<OwnedRecord> known = WriteWarmSnapshot(dir);
  ServiceOptions options = PersistServiceOptions(dir);
  options.persist.snapshot_on_shutdown = false;

  SnapshotWriter writer(options.persist.catalog_epoch, kCostModelVersion);
  writer.AddRecord(static_cast<RecordKind>(99), "future-key", 99, 1.0,
                   "future-payload");
  const auto live_memo = std::find_if(
      known.begin(), known.end(), [](const OwnedRecord& r) {
        return r.kind == static_cast<uint32_t>(RecordKind::kMemoCandidates);
      });
  ASSERT_NE(live_memo, known.end());
  Arena arena;
  std::string retired_payload;
  PlanSetCodec::Append(*MakeDagFrontier(&arena), &retired_payload);
  writer.AddRecord(RecordKind::kMemoEntry, live_memo->key, live_memo->hash,
                   0.0, retired_payload);
  for (const OwnedRecord& r : known) {
    writer.AddRecord(static_cast<RecordKind>(r.kind), r.key, r.hash,
                     std::bit_cast<double>(r.alpha_bits), r.payload);
  }
  ASSERT_TRUE(writer.WriteFile(dir + "/moqo.snapshot"));

  OptimizationService service(options);
  const persist::PersistStatsSnapshot persisted = service.PersistStats();
  EXPECT_EQ(persisted.restores_loaded, 1u);
  EXPECT_EQ(persisted.restore_skipped_checksum, 0u);
  EXPECT_EQ(persisted.restore_truncated, 0u);
  EXPECT_EQ(persisted.restored_plan_entries,
            CountKind(known, RecordKind::kPlanCacheEntry));
  EXPECT_EQ(persisted.restored_memo_entries,
            CountKind(known, RecordKind::kMemoCandidates));
  EXPECT_EQ(persisted.restored_entries(), known.size());
}

TEST(PersistTest, RestoredMemoEntryOverOtherRanksIsRebuiltNotServed) {
  // Checksum-valid memo records under TPC-H Q3's real three-table key
  // whose last row does not fit the set: its left operand is a rank
  // outside the set, the whole set or no rank; its left operand row is
  // one past that sub-frontier; its config is a scan, one past the
  // registry, or an index nested-loop join over a two-table inner side.
  // Each record restores (the codec checks sizes only), but the memo hit
  // path must take it as a miss, and MemoStats() must count it as one: the
  // DP rebuilds the set, the frontier equals a memo-off service's byte for
  // byte, and the set's publish replaces the entry with the real one.
  const std::string dir = FreshDir("other_ranks");
  const Catalog tpch = Catalog::TpcH(0.01);
  ServiceRequest request;
  request.spec.query = std::make_shared<Query>(MakeTpcHQuery(&tpch, 3));
  request.spec.objectives = FirstObjectives(3);
  request.spec.algorithm = AlgorithmKind::kExa;
  request.preference.weights = WeightVector::Uniform(3);

  // A warm run publishes Q3's one three-table set; its record carries the
  // real signature and rows.
  ServiceOptions options = PersistServiceOptions(dir);
  {
    OptimizationService service(options);
    ASSERT_EQ(service.SubmitAndWait(request).status,
              ResponseStatus::kCompleted);
  }
  std::vector<OwnedRecord> memo_records;
  for (const OwnedRecord& record : ReadRecords(dir + "/moqo.snapshot")) {
    if (record.kind == static_cast<uint32_t>(RecordKind::kMemoCandidates)) {
      memo_records.push_back(record);
    }
  }
  ASSERT_EQ(memo_records.size(), 1u);
  const OwnedRecord& real = memo_records[0];
  const std::shared_ptr<const MemoFrontier> real_entry =
      MemoEntryCodec::Decode(real.payload, 0.0);
  ASSERT_NE(real_entry, nullptr);

  ServiceOptions memo_off;
  memo_off.num_workers = 2;
  memo_off.operators = SmallOperatorSpace();
  memo_off.enable_subplan_memo = false;
  OptimizationService reference(memo_off);
  const ServiceResponse expected = reference.SubmitAndWait(request);
  ASSERT_EQ(expected.status, ResponseStatus::kCompleted);
  std::string expected_bytes;
  PlanSetCodec::Append(*expected.plan_set(), &expected_bytes);

  // Q3 joins customer (rank 0) - orders (1) - lineitem (2), so only
  // {customer, lineitem} has no sub-frontier; the last row's left operand
  // frontier comes from a DP run like the service's.
  const OperatorRegistry registry(SmallOperatorSpace());
  const CostModel model(request.spec.query.get(), &registry,
                        request.spec.objectives);
  Arena arena;
  DPPlanGenerator generator(&model, &registry, &arena);
  generator.Run(*request.spec.query, DPOptions());
  const MemoFrontier::Row last = real_entry->rows.back();
  const uint32_t left_size = static_cast<uint32_t>(
      generator.SetFor(TableSet(last.left_ranks)).size());
  ASSERT_GT(left_size, 0u);
  int index_nl = -1;
  for (int config : registry.join_configs()) {
    if (registry.config(config).type == OperatorType::kIndexNLJoin) {
      index_nl = config;
    }
  }
  ASSERT_GE(index_nl, 0);

  struct Case {
    const char* name;
    MemoFrontier::Row row;
  };
  const auto with = [&last](auto change) {
    MemoFrontier::Row row = last;
    change(&row);
    return row;
  };
  const Case cases[] = {
      {"rank outside the set",
       with([](MemoFrontier::Row* r) { r->left_ranks = uint64_t{1} << 40; })},
      {"whole set", with([](MemoFrontier::Row* r) { r->left_ranks = 0b111; })},
      {"empty ranks", with([](MemoFrontier::Row* r) { r->left_ranks = 0; })},
      {"left row at the sub-frontier's size",
       with([&](MemoFrontier::Row* r) { r->left_row = left_size; })},
      {"scan config", with([&](MemoFrontier::Row* r) {
         r->op_config = registry.scan_configs()[0];
       })},
      {"config past the registry", with([&](MemoFrontier::Row* r) {
         r->op_config = registry.num_configs();
       })},
      {"index nested-loop join over a two-table inner side",
       {index_nl, 0, 0, 0b001}},
  };
  options.persist.snapshot_on_shutdown = false;
  SubplanSignature signature;
  signature.key = real.key;
  signature.hash = real.hash;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    MemoFrontier crafted = *real_entry;
    crafted.rows.back() = c.row;
    std::string payload;
    ASSERT_TRUE(MemoEntryCodec::Encode(crafted, &payload));
    SnapshotWriter writer(options.persist.catalog_epoch, kCostModelVersion);
    writer.AddRecord(RecordKind::kMemoCandidates, real.key, real.hash, 0.0,
                     payload);
    ASSERT_TRUE(writer.WriteFile(dir + "/moqo.snapshot"));

    OptimizationService restored(options);
    ASSERT_EQ(restored.PersistStats().restored_memo_entries, 1u);
    const ServiceResponse response = restored.SubmitAndWait(request);
    ASSERT_EQ(response.status, ResponseStatus::kCompleted);
    std::string bytes;
    PlanSetCodec::Append(*response.plan_set(), &bytes);
    EXPECT_EQ(bytes, expected_bytes);
    // The memo counts the DP's verdict on Q3's one probe: the refused
    // entry is a miss, not a hit.
    const SubplanMemo::Stats memo_stats = restored.MemoStats();
    EXPECT_EQ(memo_stats.hits, 0u);
    EXPECT_EQ(memo_stats.misses, 1u);

    const std::shared_ptr<const MemoFrontier> entry =
        restored.subplan_memo()->Lookup(signature);
    ASSERT_NE(entry, nullptr);
    std::string replaced;
    ASSERT_TRUE(MemoEntryCodec::Encode(*entry, &replaced));
    EXPECT_EQ(replaced, real.payload);
  }
}

TEST(PersistTest, PlanCacheRecordWithAnUnusableAlphaTagIsNotRestored) {
  // TPC-H Q3's checksum-valid RTA-1.5 plan-cache record, re-tagged NaN,
  // +inf and 0.5. No tag the service writes is like these, and a NaN tag
  // would pin its key to a miss: it answers no target (NaN <= target is
  // false) and no insert replaces it (alpha <= NaN is false). So the
  // restore refuses each record, the first request runs and its insert
  // lands, and the second request is an exact hit.
  const Catalog tpch = Catalog::TpcH(0.01);
  ServiceRequest request;
  request.spec.query = std::make_shared<Query>(MakeTpcHQuery(&tpch, 3));
  request.spec.objectives = FirstObjectives(3);
  request.spec.algorithm = AlgorithmKind::kRta;
  request.spec.alpha = 1.5;
  request.preference.weights = WeightVector::Uniform(3);

  const std::string source = FreshDir("alpha_tag_source");
  {
    OptimizationService service(PersistServiceOptions(source));
    ASSERT_EQ(service.SubmitAndWait(request).status,
              ResponseStatus::kCompleted);
  }
  std::vector<OwnedRecord> plan_records;
  for (const OwnedRecord& record : ReadRecords(source + "/moqo.snapshot")) {
    if (record.kind == static_cast<uint32_t>(RecordKind::kPlanCacheEntry)) {
      plan_records.push_back(record);
    }
  }
  ASSERT_EQ(plan_records.size(), 1u);
  const OwnedRecord& real = plan_records[0];
  ASSERT_EQ(real.alpha_bits, DoubleBits(1.5));

  for (const double tag : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), 0.5}) {
    SCOPED_TRACE(tag);
    const std::string dir = FreshDir("alpha_tag");
    ServiceOptions options = PersistServiceOptions(dir);
    options.persist.snapshot_on_shutdown = false;
    SnapshotWriter writer(options.persist.catalog_epoch, kCostModelVersion);
    writer.AddRecord(RecordKind::kPlanCacheEntry, real.key, real.hash, tag,
                     real.payload);
    ASSERT_TRUE(writer.WriteFile(dir + "/moqo.snapshot"));

    OptimizationService restored(options);
    EXPECT_EQ(restored.PersistStats().restores_loaded, 1u);
    EXPECT_EQ(restored.PersistStats().restored_plan_entries, 0u);
    EXPECT_EQ(restored.CacheStats().entries, 0u);

    const ServiceResponse first = restored.SubmitAndWait(request);
    ASSERT_EQ(first.status, ResponseStatus::kCompleted);
    EXPECT_EQ(first.cache, CacheOutcome::kMiss);
    EXPECT_EQ(restored.CacheStats().insertions, 1u);
    EXPECT_EQ(restored.CacheStats().entries, 1u);

    const ServiceResponse second = restored.SubmitAndWait(request);
    ASSERT_EQ(second.status, ResponseStatus::kCompleted);
    EXPECT_EQ(second.cache, CacheOutcome::kExactHit);
    EXPECT_EQ(second.alpha, 1.5);
  }
}

TEST(PersistTest, PlanCacheRecordOverOtherObjectivesIsNotServed) {
  // A checksum-valid record under TPC-H Q3's three-objective RTA-1.5 key
  // that carries the payload of the same query's two-objective run. The
  // payload is sound on its own, so it restores, but its weights count
  // other objectives than the key's spec: no open may answer from it or
  // seed its ladder with it. Submit at the record's alpha runs and returns
  // three cost columns; a session targeting a tighter alpha publishes only
  // frontiers it computed, each with three cost columns; and the refused
  // record leaves the cache, so a looser run's insert answers its repeat.
  const Catalog tpch = Catalog::TpcH(0.01);
  const auto q3_over = [&tpch](int num_objectives) {
    ServiceRequest request;
    request.spec.query = std::make_shared<Query>(MakeTpcHQuery(&tpch, 3));
    request.spec.objectives = FirstObjectives(num_objectives);
    request.spec.algorithm = AlgorithmKind::kRta;
    request.spec.alpha = 1.5;
    request.preference.weights = WeightVector::Uniform(num_objectives);
    return request;
  };
  const ServiceRequest three = q3_over(3);
  const auto record_of = [](const ServiceRequest& request,
                            const std::string& tag) {
    const std::string source = FreshDir(tag);
    {
      OptimizationService service(PersistServiceOptions(source));
      EXPECT_EQ(service.SubmitAndWait(request).status,
                ResponseStatus::kCompleted);
    }
    std::vector<OwnedRecord> plan_records;
    for (const OwnedRecord& record : ReadRecords(source + "/moqo.snapshot")) {
      if (record.kind == static_cast<uint32_t>(RecordKind::kPlanCacheEntry)) {
        plan_records.push_back(record);
      }
    }
    EXPECT_EQ(plan_records.size(), 1u);
    return plan_records.empty() ? OwnedRecord{} : plan_records[0];
  };
  const OwnedRecord key = record_of(three, "other_objectives_three");
  const OwnedRecord payload = record_of(q3_over(2), "other_objectives_two");
  ASSERT_EQ(key.alpha_bits, DoubleBits(1.5));
  ASSERT_EQ(payload.alpha_bits, DoubleBits(1.5));
  ASSERT_NE(key.payload, payload.payload);

  const std::string dir = FreshDir("other_objectives");
  ServiceOptions options = PersistServiceOptions(dir);
  options.persist.snapshot_on_shutdown = false;
  SnapshotWriter writer(options.persist.catalog_epoch, kCostModelVersion);
  writer.AddRecord(RecordKind::kPlanCacheEntry, key.key, key.hash, 1.5,
                   payload.payload);
  ASSERT_TRUE(writer.WriteFile(dir + "/moqo.snapshot"));

  {
    OptimizationService restored(options);
    ASSERT_EQ(restored.PersistStats().restored_plan_entries, 1u);
    const ServiceResponse response = restored.SubmitAndWait(three);
    ASSERT_EQ(response.status, ResponseStatus::kCompleted);
    EXPECT_EQ(response.cache, CacheOutcome::kMiss);
    ASSERT_NE(response.plan_set(), nullptr);
    ASSERT_FALSE(response.plan_set()->empty());
    EXPECT_EQ(response.plan_set()->cost(0).size(), 3);
    EXPECT_EQ(response.result->cost.size(), 3);
  }
  {
    OptimizationService restored(options);
    ASSERT_EQ(restored.PersistStats().restored_plan_entries, 1u);
    SessionOptions session_options;
    session_options.alpha_target = 1.2;
    session_options.quick_first = false;
    const std::shared_ptr<FrontierSession> session =
        restored.OpenFrontier(three.spec, session_options);
    ASSERT_TRUE(session->AwaitTarget());
    const std::vector<RefinedFrontier> history = session->History();
    ASSERT_FALSE(history.empty());
    for (const RefinedFrontier& step : history) {
      EXPECT_FALSE(step.from_cache) << "step " << step.step;
      ASSERT_FALSE(step.plan_set->empty());
      EXPECT_EQ(step.plan_set->cost(0).size(), 3) << "step " << step.step;
    }
  }
  {
    OptimizationService restored(options);
    ASSERT_EQ(restored.PersistStats().restored_plan_entries, 1u);
    ServiceRequest loose = three;
    loose.spec.alpha = 2.0;
    EXPECT_EQ(restored.SubmitAndWait(loose).cache, CacheOutcome::kMiss);
    const ServiceResponse repeat = restored.SubmitAndWait(loose);
    EXPECT_EQ(repeat.cache, CacheOutcome::kExactHit);
    EXPECT_DOUBLE_EQ(repeat.alpha, 2.0);
  }
}

TEST(PersistTest, RestoreSkipsWholeSnapshotOnEpochMismatch) {
  const std::string dir = FreshDir("epoch");
  Catalog catalog = MakeTinyCatalog();
  {
    ServiceOptions options = PersistServiceOptions(dir);
    options.persist.catalog_epoch = 1;
    OptimizationService service(options);
    service.SubmitAndWait(
        StarRequest(&catalog, 2, 2, AlgorithmKind::kExa, 1.0));
  }
  ServiceOptions options = PersistServiceOptions(dir);
  options.persist.catalog_epoch = 2;  // Statistics changed since the write.
  OptimizationService service(options);
  const persist::PersistStatsSnapshot persisted = service.PersistStats();
  EXPECT_EQ(persisted.restored_entries(), 0u);
  EXPECT_GT(persisted.restore_skipped_epoch, 0u);
  EXPECT_EQ(service.CacheStats().entries, 0u);
}

TEST(PersistTest, RestoreSkipsWholeSnapshotOnCostModelMismatch) {
  const std::string dir = FreshDir("costmodel");
  // Hand-write a snapshot claiming a future cost model: every stored cost
  // would be stale, so the restore must load nothing.
  SnapshotWriter writer(/*catalog_epoch=*/0, kCostModelVersion + 1);
  writer.AddRecord(RecordKind::kPlanCacheEntry, "stale", 9, 1.0, "junk");
  ASSERT_TRUE(writer.WriteFile(dir + "/moqo.snapshot"));

  OptimizationService service(PersistServiceOptions(dir));
  const persist::PersistStatsSnapshot persisted = service.PersistStats();
  EXPECT_EQ(persisted.restored_entries(), 0u);
  EXPECT_EQ(persisted.restore_skipped_version, 1u);
  EXPECT_EQ(service.CacheStats().entries, 0u);

  // A foreign format version, its 48-byte header's checksum recomputed so
  // only the version gate can refuse it: the record layout is unknown, so
  // RestoreNow loads no record and counts them all as skipped.
  const std::string foreign_dir = FreshDir("foreign_format");
  const std::string path = foreign_dir + "/moqo.snapshot";
  SnapshotWriter foreign(/*catalog_epoch=*/0, kCostModelVersion);
  foreign.AddRecord(RecordKind::kPlanCacheEntry, "a", 1, 1.0, "junk");
  foreign.AddRecord(RecordKind::kPlanCacheEntry, "b", 2, 1.0, "junk");
  ASSERT_TRUE(foreign.WriteFile(path));
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    char header[48];
    ASSERT_TRUE(file.read(header, sizeof(header)));
    header[8] ^= 0x40;  // format_version.
    const uint64_t checksum = Fnv1a(header, 40, persist::kChecksumSeed);
    std::memcpy(header + 40, &checksum, 8);
    file.seekp(0);
    ASSERT_TRUE(file.write(header, sizeof(header)));
  }
  OptimizationService restored(PersistServiceOptions(foreign_dir));
  const persist::PersistStatsSnapshot foreign_stats = restored.PersistStats();
  EXPECT_EQ(foreign_stats.restores_loaded, 1u);
  EXPECT_EQ(foreign_stats.restored_entries(), 0u);
  EXPECT_EQ(foreign_stats.restore_skipped_version, 2u);
  EXPECT_EQ(restored.CacheStats().entries, 0u);
}

TEST(PersistTest, TornSnapshotRestoresPrefixAndStaysServing) {
  const std::string dir = FreshDir("torn");
  Catalog catalog = MakeTinyCatalog();
  ServiceRequest request =
      StarRequest(&catalog, 2, 2, AlgorithmKind::kExa, 1.0);
  {
    OptimizationService service(PersistServiceOptions(dir));
    service.SubmitAndWait(request);
  }
  // Tear the tail off the snapshot: a crash mid-write of a *new* file
  // never produces this (tmp + rename), but disks rot and copies
  // truncate — the reader must degrade to the surviving prefix.
  const std::string path = dir + "/moqo.snapshot";
  struct stat st;
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  ASSERT_EQ(::truncate(path.c_str(), st.st_size - 3), 0);

  OptimizationService service(PersistServiceOptions(dir));
  const persist::PersistStatsSnapshot persisted = service.PersistStats();
  EXPECT_GT(persisted.restore_truncated, 0u);
  // Whatever was lost, the service still answers — cold or warm.
  ServiceResponse response = service.SubmitAndWait(request);
  EXPECT_EQ(response.status, ResponseStatus::kCompleted);
}

TEST(PersistTest, FailpointsForceColdStartAndFailedSnapshotCleanly) {
  if (!rt::kFailpointsEnabled) {
    GTEST_SKIP() << "built with MOQO_FAILPOINTS=OFF";
  }
  const std::string dir = FreshDir("failpoints");
  Catalog catalog = MakeTinyCatalog();
  ServiceRequest request =
      StarRequest(&catalog, 2, 2, AlgorithmKind::kExa, 1.0);
  {
    OptimizationService service(PersistServiceOptions(dir));
    service.SubmitAndWait(request);
    ASSERT_TRUE(service.SnapshotNow());
  }

  // persist.read: the restore open fails -> clean cold start.
  ASSERT_TRUE(rt::FailpointRegistry::Global().Arm("persist.read",
                                                  "always:return_error"));
  {
    ServiceOptions options = PersistServiceOptions(dir);
    options.persist.snapshot_on_shutdown = false;
    OptimizationService service(options);
    EXPECT_EQ(service.PersistStats().restored_entries(), 0u);
    ServiceResponse response = service.SubmitAndWait(request);
    EXPECT_EQ(response.status, ResponseStatus::kCompleted);
  }
  rt::FailpointRegistry::Global().DisarmAll();

  // persist.write: the shutdown snapshot fails; the previous snapshot
  // survives untouched (tmp + rename) and the failure is counted.
  ASSERT_TRUE(rt::FailpointRegistry::Global().Arm("persist.write",
                                                  "always:return_error"));
  {
    OptimizationService service(PersistServiceOptions(dir));
    EXPECT_FALSE(service.SnapshotNow());
    EXPECT_GE(service.PersistStats().snapshot_failures, 1u);
  }
  rt::FailpointRegistry::Global().DisarmAll();
  {
    ServiceOptions options = PersistServiceOptions(dir);
    options.persist.snapshot_on_shutdown = false;
    OptimizationService service(options);
    EXPECT_GT(service.PersistStats().restored_entries(), 0u);
  }
}

}  // namespace
}  // namespace moqo
