// Copyright (c) 2026 moqo authors. MIT license.
//
// Seeded fuzz of the parsers every snapshot restore and disk-tier read
// goes through: persist::ReadRecord (the record layout), the plan cache's
// PlanSetCodec::Decode and the memo's candidate rows. Valid records — a
// real EXA frontier as a plan-cache record and a real DP's memo entry —
// are mutated (bit flips, truncations, overwritten length, count, index,
// table, config and rank fields) and the record checksum is re-sealed, so
// mutations reach the payload parsers instead of stopping at the
// checksum. A plan-cache case must be rejected or decode to a
// structurally sound set: each scan reads one in-range table, each join
// covers exactly its disjoint children, and all roots join one table set.
// A memo case is restored under its key and the DP is run over it: the
// run must miss, or seal only joins whose children partition their tables
// and whose cost bits equal re-pricing them from those children — a
// restored memo record is trusted for which candidates survived, never
// for a cost.
//
// A case is a pure function of its seed. A failure prints a one-line
// MOQO_PROP_SEED=<seed> repro; with that variable set, only that case
// runs.

#include <bit>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/dp_driver.h"
#include "core/exa.h"
#include "memo/subplan_key.h"
#include "memo/subplan_memo.h"
#include "model/cost_model.h"
#include "persist/format.h"
#include "service/plan_cache.h"
#include "testing/test_helpers.h"
#include "util/byte_codec.h"
#include "util/random.h"
#include "util/table_set.h"

namespace moqo {
namespace {

using persist::RecordKind;

constexpr uint64_t kFirstSeed = 1;
constexpr int kCases = 20000;

/// The star3 DP over three objectives in the small operator space: the
/// source of the corpus and the run every decoded case goes through.
struct FuzzDp {
  FuzzDp() = default;
  FuzzDp(const FuzzDp&) = delete;
  FuzzDp& operator=(const FuzzDp&) = delete;

  /// The DP over `query`, with `memo` attached unless it is null.
  std::unique_ptr<DPPlanGenerator> Run(SubplanMemo* memo,
                                       Arena* arena) const {
    auto generator =
        std::make_unique<DPPlanGenerator>(&model, &registry, arena);
    DPOptions options;
    options.subplan_memo = memo;
    generator->Run(query, options);
    return generator;
  }

  const Catalog catalog = testing::MakeTinyCatalog();
  const Query query = testing::MakeStarQuery(&catalog, 3);
  const OperatorRegistry registry{testing::SmallOperatorSpace()};
  const CostModel model{
      &query, &registry,
      ObjectiveSet({Objective::kTotalTime, Objective::kEnergy,
                    Objective::kBufferFootprint})};
  /// The memo key of the whole query, the one set the DP probes that
  /// has an entry in the corpus.
  const SubplanSignature top =
      SubplanKeyContext(query, model.objectives(), 1.0, registry.options(),
                        /*bushy=*/true, /*cartesian_heuristic=*/true,
                        /*aggressive_delete=*/false,
                        /*skip_disconnected=*/true)
          .SignatureFor(query.AllTables());
};

/// One valid record and where its fields sit.
struct Target {
  RecordKind kind = RecordKind::kPlanCacheEntry;
  std::string record;
  size_t payload = 0;  ///< Offset of the payload in `record`.
  size_t block = 0;    ///< Offset of the PlanSet block or memo rows.
  uint32_t plans = 0;  ///< Frontier plans, or memo rows.
  uint32_t nodes = 0;
  uint32_t dims = 0;
};

Target MakeTarget(RecordKind kind, const SubplanSignature& key,
                  const std::string& payload, size_t block_in_payload) {
  Target target;
  target.kind = kind;
  persist::AppendRecord(&target.record, kind, key.key, key.hash,
                        kind == RecordKind::kMemoCandidates ? 0.0 : 1.0,
                        payload);
  target.payload = persist::kRecordHeaderBytes + key.key.size();
  target.block = target.payload + block_in_payload;
  ByteReader header(target.record.data() + target.block, 12);
  header.GetU32(&target.plans);
  if (kind == RecordKind::kPlanCacheEntry) {
    header.GetU32(&target.nodes);
    header.GetU32(&target.dims);
  }
  return target;
}

/// The star3 frontier as a plan-cache record (EXA), and the memo entry a
/// DP run publishes for the whole query under its real key.
std::vector<Target> Corpus(const FuzzDp& dp) {
  MOQOProblem problem;
  problem.query = &dp.query;
  problem.objectives = dp.model.objectives();
  problem.weights = WeightVector::Uniform(3);
  ExactMOQO exa(testing::SmallOptions());
  CachedFrontier entry;
  entry.result = std::make_shared<OptimizerResult>(exa.Optimize(problem));
  entry.weights = problem.weights;
  entry.bounds = BoundVector(3);

  std::vector<Target> corpus;
  std::string payload;
  EXPECT_TRUE(PlanCacheEntryCodec::Encode(entry, &payload));
  SubplanSignature key;
  key.key = "fuzz-key";
  key.hash = Fnv1a(key.key.data(), key.key.size(), kFnv1aOffsetBasis);
  // The preference block: two u32 sizes, then three weights and bounds.
  corpus.push_back(
      MakeTarget(RecordKind::kPlanCacheEntry, key, payload, 8 + 8 * (3 + 3)));

  SubplanMemo memo;
  Arena arena;
  dp.Run(&memo, &arena);
  const std::shared_ptr<const MemoFrontier> top = memo.Lookup(dp.top);
  EXPECT_NE(top, nullptr);
  payload.clear();
  if (top != nullptr) EXPECT_TRUE(MemoEntryCodec::Encode(*top, &payload));
  corpus.push_back(MakeTarget(RecordKind::kMemoCandidates, dp.top, payload, 0));
  return corpus;
}

void PutU32At(std::string* bytes, size_t offset, uint32_t value) {
  if (offset + 4 > bytes->size()) return;
  std::string word;
  PutU32(&word, value);
  bytes->replace(offset, 4, word);
}

void PutU64At(std::string* bytes, size_t offset, uint64_t value) {
  if (offset + 8 > bytes->size()) return;
  std::string word;
  PutU64(&word, value);
  bytes->replace(offset, 8, word);
}

/// A length, count or index value: boundaries, sentinels and in-range
/// node indices.
uint32_t InterestingIndex(Xoshiro256* rng, uint32_t nodes) {
  static constexpr uint32_t kValues[] = {
      0, 1, 2, 3, 40, 63, 64, 0x7FFFFFFFu, 0x80000000u, 0xFFFFFFFEu,
      persist::kNoChild};
  if (rng->NextInt(3) == 0) {
    return static_cast<uint32_t>(rng->NextInt(nodes + 2));
  }
  return kValues[rng->NextInt(std::size(kValues))];
}

/// A scan's table: in range, just out of range, and extreme.
uint32_t InterestingTable(Xoshiro256* rng) {
  static constexpr int32_t kValues[] = {-2, -1, 0, 1, 2, 3, 40, 63, 64,
                                        INT32_MIN, INT32_MAX};
  return static_cast<uint32_t>(kValues[rng->NextInt(std::size(kValues))]);
}

/// A table-set mask: empty, full, or `mask` with one bit set or flipped.
uint64_t InterestingMask(Xoshiro256* rng, uint64_t mask) {
  const uint64_t bit = uint64_t{1} << rng->NextInt(TableSet::kMaxTables);
  switch (rng->NextInt(4)) {
    case 0:
      return rng->NextInt(2) == 0 ? 0 : ~uint64_t{0};
    case 1:
      return bit;
    case 2:
      return mask | bit;
    default:
      return mask ^ bit;
  }
}

/// Recomputes the record checksum over the header and the key and payload
/// lengths it now declares, when the bytes hold that much.
void Reseal(std::string* record) {
  if (record->size() < persist::kRecordHeaderBytes) return;
  ByteReader header(record->data(), persist::kRecordHeaderBytes - 8);
  uint32_t kind = 0, key_len = 0, payload_len = 0;
  uint64_t hash = 0;
  double alpha = 0;
  header.GetU32(&kind);
  header.GetU32(&key_len);
  header.GetU64(&hash);
  header.GetDouble(&alpha);
  header.GetU32(&payload_len);
  const uint64_t body = uint64_t{key_len} + payload_len;
  if (persist::kRecordHeaderBytes + body > record->size()) return;
  uint64_t checksum = Fnv1a(record->data(), persist::kRecordHeaderBytes - 8,
                            persist::kChecksumSeed);
  checksum = Fnv1a(record->data() + persist::kRecordHeaderBytes, body,
                   checksum);
  PutU64At(record, persist::kRecordHeaderBytes - 8, checksum);
}

/// A memo row's operator config: around the registry's scan and join
/// ranges, and extreme.
uint32_t InterestingConfig(Xoshiro256* rng, int configs) {
  if (rng->NextInt(2) == 0) {
    return static_cast<uint32_t>(rng->NextInt(configs + 1));
  }
  static constexpr int32_t kValues[] = {-1, INT32_MIN, INT32_MAX};
  return static_cast<uint32_t>(kValues[rng->NextInt(std::size(kValues))]);
}

/// One mutation of a PlanSet block's fields (`target` a plan-cache
/// record), or false if `op` is not one.
bool MutatePlanSet(const Target& target, uint64_t op, Xoshiro256* rng,
                   std::string* record) {
  const size_t node_bytes = 40 + size_t{8} * target.dims;
  const size_t roots =
      target.block + 16 + size_t{target.plans} * target.dims * 8;
  const size_t node = roots + 4 * size_t{target.plans} +
                      node_bytes * rng->NextInt(target.nodes);
  switch (op) {
    case 2:  // The block's plan count, node count or dims.
      PutU32At(record, target.block + 4 * rng->NextInt(3),
               InterestingIndex(rng, target.nodes));
      return true;
    case 3:  // A root's node index.
      PutU32At(record, roots + 4 * rng->NextInt(target.plans),
               InterestingIndex(rng, target.nodes));
      return true;
    case 4:  // A node's table.
      PutU32At(record, node + 4, InterestingTable(rng));
      return true;
    case 5:  // A node's left or right child index.
      PutU32At(record, node + 8 + 4 * rng->NextInt(2),
               InterestingIndex(rng, target.nodes));
      return true;
    case 6: {  // A node's table set.
      uint64_t mask = 0;
      if (node + 24 <= record->size()) {
        ByteReader field(record->data() + node + 16, 8);
        field.GetU64(&mask);
      }
      PutU64At(record, node + 16, InterestingMask(rng, mask));
      return true;
    }
  }
  return false;
}

/// One mutation of a memo entry's rows (`target` a memo record), or false
/// if `op` is not one.
bool MutateMemoRows(const Target& target, uint64_t op, int configs,
                    Xoshiro256* rng, std::string* record) {
  const size_t row = target.block + 4 +
                     MemoEntryCodec::kRowBytes * rng->NextInt(target.plans);
  switch (op) {
    case 2:  // The row count.
      PutU32At(record, target.block, InterestingIndex(rng, target.plans));
      return true;
    case 3:  // A row's config.
      PutU32At(record, row, InterestingConfig(rng, configs));
      return true;
    case 4:  // A row's left or right operand row.
    case 5:
      PutU32At(record, row + 4 + 4 * rng->NextInt(2),
               InterestingIndex(rng, target.plans));
      return true;
    case 6: {  // A row's left ranks.
      uint64_t mask = 0;
      if (row + MemoEntryCodec::kRowBytes <= record->size()) {
        ByteReader field(record->data() + row + 12, 8);
        field.GetU64(&mask);
      }
      PutU64At(record, row + 12, InterestingMask(rng, mask));
      return true;
    }
  }
  return false;
}

/// Applies one to three mutations to a copy of `target`'s record, then
/// re-seals it; one case in sixteen also cuts the sealed record short.
/// `configs` is the memo rows' config range.
std::string Mutate(const Target& target, int configs, Xoshiro256* rng) {
  std::string record = target.record;
  const bool memo = target.kind == RecordKind::kMemoCandidates;
  const int ops = 1 + static_cast<int>(rng->NextInt(3));
  for (int op = 0; op < ops; ++op) {
    const uint64_t choice = rng->NextInt(8);
    if (memo ? MutateMemoRows(target, choice, configs, rng, &record)
             : MutatePlanSet(target, choice, rng, &record)) {
      continue;
    }
    switch (choice) {
      case 0: {  // One bit anywhere.
        const uint64_t bit = rng->NextInt(record.size() * 8);
        record[bit / 8] = static_cast<char>(record[bit / 8] ^ (1 << (bit % 8)));
        break;
      }
      case 1:  // The record's key or payload length.
        PutU32At(&record, rng->NextInt(2) == 0 ? 4 : 24,
                 InterestingIndex(rng, target.nodes));
        break;
      default: {  // A shorter payload under a matching length field.
        const size_t length = rng->NextInt(record.size() - target.payload + 1);
        record.resize(target.payload + length);
        PutU32At(&record, 24, static_cast<uint32_t>(length));
        break;
      }
    }
  }
  Reseal(&record);
  if (rng->NextInt(16) == 0) record.resize(rng->NextInt(record.size() + 1));
  return record;
}

/// Empty when `set` is structurally sound, else its first violation.
std::string Violation(const PlanSet& set) {
  std::unordered_set<const PlanNode*> checked;
  std::string why;
  const auto sound = [&](const auto& self, const PlanNode* node) -> bool {
    if (!checked.insert(node).second) return true;
    if (node->left == nullptr || node->right == nullptr) {
      if (node->left != node->right) {
        why = "a node with one child";
      } else if (node->table < 0 || node->table >= TableSet::kMaxTables ||
                 node->tables != TableSet::Singleton(node->table)) {
        why = "scan of table " + std::to_string(node->table) + " over " +
              node->tables.ToString();
      }
      return why.empty();
    }
    if (node->table != -1 ||
        node->left->tables.Intersects(node->right->tables) ||
        node->tables != node->left->tables.Union(node->right->tables)) {
      why = "join of table " + std::to_string(node->table) + " over " +
            node->tables.ToString() + " with children " +
            node->left->tables.ToString() + " and " +
            node->right->tables.ToString();
      return false;
    }
    return self(self, node->left) && self(self, node->right);
  };
  for (int i = 0; i < set.size(); ++i) {
    if (set.plan(i)->tables != set.plan(0)->tables) {
      return "roots over " + set.plan(0)->tables.ToString() + " and " +
             set.plan(i)->tables.ToString();
    }
    if (!sound(sound, set.plan(i))) return why;
  }
  return "";
}

/// The frontier a plan-cache `record`'s payload decodes to; null when the
/// codec rejects it or the record is of another kind.
std::shared_ptr<const PlanSet> DecodePayload(
    const persist::RecordView& record) {
  if (record.kind != RecordKind::kPlanCacheEntry) return nullptr;
  const std::shared_ptr<const CachedFrontier> entry =
      PlanCacheEntryCodec::Decode(record.payload, record.achieved_alpha);
  return entry == nullptr || entry->result == nullptr
             ? nullptr
             : entry->result->plan_set;
}

/// Restores a memo `record` into a fresh memo and runs the DP over it.
/// Sets `*restored` iff the memo took the record and `*hit` iff the DP
/// sealed a set from it. Empty when every join the run sealed from the
/// memo joins children that partition its tables at the cost, rows and
/// width bits of re-pricing it from them; else the first violation.
std::string MemoViolation(const FuzzDp& dp, const persist::RecordView& record,
                          bool* restored, bool* hit) {
  SubplanMemo memo;
  *restored = memo.Restore(record);
  *hit = false;
  if (!*restored) return "";
  Arena arena;
  const std::unique_ptr<DPPlanGenerator> generator = dp.Run(&memo, &arena);
  *hit = generator->stats().memo_hits > 0;
  if (!*hit) return "";
  // The entry's key is the whole query's (a mutated key is never probed).
  const TableSet all = dp.query.AllTables();
  const ParetoSet& set = generator->SetFor(all);
  if (set.empty()) return "an empty frontier";
  for (int i = 0; i < set.size(); ++i) {
    const PlanNode* node = set.at(i);
    if (node->IsScan() || node->tables != all ||
        node->left->tables.Intersects(node->right->tables) ||
        node->left->tables.Union(node->right->tables) != all) {
      return "plan " + std::to_string(i) + " over " + node->tables.ToString();
    }
    const PlanNode priced =
        dp.model.JoinNode(node->op_config, node->left, node->right);
    bool same = std::bit_cast<uint64_t>(priced.cardinality) ==
                    std::bit_cast<uint64_t>(node->cardinality) &&
                std::bit_cast<uint64_t>(priced.row_width) ==
                    std::bit_cast<uint64_t>(node->row_width) &&
                priced.cost.size() == node->cost.size();
    for (int d = 0; same && d < node->cost.size(); ++d) {
      same = std::bit_cast<uint64_t>(priced.cost[d]) ==
             std::bit_cast<uint64_t>(node->cost[d]);
    }
    if (!same) return "plan " + std::to_string(i) + " priced differently";
  }
  return "";
}

TEST(DecoderFuzzTest, MutatedRecordsAreRejectedOrDecodeSound) {
  const FuzzDp dp;
  const std::vector<Target> corpus = Corpus(dp);
  ASSERT_EQ(corpus.size(), 2u);
  {
    ByteReader reader(corpus[0].record.data(), corpus[0].record.size());
    persist::RecordView record;
    ASSERT_EQ(persist::ReadRecord(&reader, &record),
              persist::ReadRecordStatus::kOk);
    const std::shared_ptr<const PlanSet> set = DecodePayload(record);
    ASSERT_NE(set, nullptr);
    ASSERT_GT(set->size(), 1);
    ASSERT_EQ(Violation(*set), "");
  }
  {
    ByteReader reader(corpus[1].record.data(), corpus[1].record.size());
    persist::RecordView record;
    ASSERT_EQ(persist::ReadRecord(&reader, &record),
              persist::ReadRecordStatus::kOk);
    ASSERT_GT(corpus[1].plans, 1u);
    bool restored = false, hit = false;
    ASSERT_EQ(MemoViolation(dp, record, &restored, &hit), "");
    ASSERT_TRUE(hit);
  }

  uint64_t first = kFirstSeed;
  int cases = kCases;
  if (const char* env = std::getenv("MOQO_PROP_SEED")) {
    first = std::strtoull(env, nullptr, 10);
    cases = 1;
  }
  int parsed = 0, decoded = 0, memo_hits = 0;
  for (int i = 0; i < cases; ++i) {
    const uint64_t seed = first + static_cast<uint64_t>(i);
    Xoshiro256 rng(seed);
    const std::string bytes = Mutate(corpus[rng.NextInt(corpus.size())],
                                     dp.registry.num_configs(), &rng);
    ByteReader reader(bytes.data(), bytes.size());
    persist::RecordView record;
    if (persist::ReadRecord(&reader, &record) !=
        persist::ReadRecordStatus::kOk) {
      continue;
    }
    ++parsed;
    std::string violation;
    if (record.kind == RecordKind::kMemoCandidates) {
      bool restored = false, hit = false;
      violation = MemoViolation(dp, record, &restored, &hit);
      if (!restored) continue;
      memo_hits += hit ? 1 : 0;
    } else {
      const std::shared_ptr<const PlanSet> set = DecodePayload(record);
      if (set == nullptr) continue;
      violation = Violation(*set);
    }
    ++decoded;
    if (!violation.empty()) {
      FAIL() << "MOQO_PROP_SEED=" << seed
             << " moqo_tests --gtest_filter='DecoderFuzzTest.*'  # decoded "
             << violation;
    }
  }
  // Guards the mutator: were re-sealing broken, every case would stop at
  // the record checksum and the payload parsers would go unfuzzed; were
  // every memo mutation a miss, the hit path would go unfuzzed.
  if (cases == kCases) {
    EXPECT_GT(parsed, kCases / 2);
    EXPECT_GT(decoded, 0);
    EXPECT_GT(memo_hits, 0);
  }
}

}  // namespace
}  // namespace moqo
