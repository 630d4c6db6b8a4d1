// Copyright (c) 2026 moqo authors. MIT license.
//
// Seeded fuzz of the two parsers every snapshot restore and disk-tier read
// goes through: persist::ReadRecord (the record layout) and
// PlanSetCodec::Decode, reached through both cache codecs' Decode. Valid
// records of a real EXA frontier are mutated — bit flips, truncations,
// overwritten length, count, index and table fields — and the record
// checksum is re-sealed, so mutations reach the payload parser instead of
// stopping at the checksum. Every case must be rejected or decode to a
// structurally sound set: each scan reads one in-range table, each join
// covers exactly its disjoint children, and all roots join one table set.
//
// A case is a pure function of its seed. A failure prints a one-line
// MOQO_PROP_SEED=<seed> repro; with that variable set, only that case
// runs.

#include <climits>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/exa.h"
#include "memo/subplan_memo.h"
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

/// One valid record and where its fields sit.
struct Target {
  std::string record;
  size_t payload = 0;  ///< Offset of the payload in `record`.
  size_t block = 0;    ///< Offset of the PlanSet block in `record`.
  uint32_t plans = 0;
  uint32_t nodes = 0;
  uint32_t dims = 0;
};

Target MakeTarget(RecordKind kind, const std::string& payload,
                  size_t block_in_payload) {
  const std::string key = "fuzz-key";
  Target target;
  persist::AppendRecord(&target.record, kind, key,
                        Fnv1a(key.data(), key.size(), kFnv1aOffsetBasis),
                        kind == RecordKind::kMemoEntry ? 0.0 : 1.0, payload);
  target.payload = persist::kRecordHeaderBytes + key.size();
  target.block = target.payload + block_in_payload;
  ByteReader header(target.record.data() + target.block, 12);
  header.GetU32(&target.plans);
  header.GetU32(&target.nodes);
  header.GetU32(&target.dims);
  return target;
}

/// A star3 EXA frontier over three objectives, as a memo record and as a
/// plan-cache record.
std::vector<Target> Corpus() {
  const Catalog catalog = testing::MakeTinyCatalog();
  const Query query = testing::MakeStarQuery(&catalog, 3);
  MOQOProblem problem;
  problem.query = &query;
  problem.objectives = ObjectiveSet(
      {Objective::kTotalTime, Objective::kEnergy, Objective::kBufferFootprint});
  problem.weights = WeightVector::Uniform(3);
  ExactMOQO exa(testing::SmallOptions());
  CachedFrontier entry;
  entry.result = std::make_shared<OptimizerResult>(exa.Optimize(problem));
  entry.weights = problem.weights;
  entry.bounds = BoundVector(3);

  std::vector<Target> corpus;
  std::string payload;
  EXPECT_TRUE(MemoEntryCodec::Encode(*entry.result->plan_set, &payload));
  corpus.push_back(MakeTarget(RecordKind::kMemoEntry, payload, 0));
  payload.clear();
  EXPECT_TRUE(PlanCacheEntryCodec::Encode(entry, &payload));
  // The preference block: two u32 sizes, then three weights and bounds.
  corpus.push_back(
      MakeTarget(RecordKind::kPlanCacheEntry, payload, 8 + 8 * (3 + 3)));
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

/// Applies one to three mutations to a copy of `target`'s record, then
/// re-seals it; one case in sixteen also cuts the sealed record short.
std::string Mutate(const Target& target, Xoshiro256* rng) {
  std::string record = target.record;
  const size_t node_bytes = 40 + size_t{8} * target.dims;
  const size_t roots =
      target.block + 16 + size_t{target.plans} * target.dims * 8;
  const int ops = 1 + static_cast<int>(rng->NextInt(3));
  for (int op = 0; op < ops; ++op) {
    const size_t node = roots + 4 * size_t{target.plans} +
                        node_bytes * rng->NextInt(target.nodes);
    switch (rng->NextInt(8)) {
      case 0: {  // One bit anywhere.
        const uint64_t bit = rng->NextInt(record.size() * 8);
        record[bit / 8] = static_cast<char>(record[bit / 8] ^ (1 << (bit % 8)));
        break;
      }
      case 1:  // The record's key or payload length.
        PutU32At(&record, rng->NextInt(2) == 0 ? 4 : 24,
                 InterestingIndex(rng, target.nodes));
        break;
      case 2:  // The block's plan count, node count or dims.
        PutU32At(&record, target.block + 4 * rng->NextInt(3),
                 InterestingIndex(rng, target.nodes));
        break;
      case 3:  // A root's node index.
        PutU32At(&record, roots + 4 * rng->NextInt(target.plans),
                 InterestingIndex(rng, target.nodes));
        break;
      case 4:  // A node's table.
        PutU32At(&record, node + 4, InterestingTable(rng));
        break;
      case 5:  // A node's left or right child index.
        PutU32At(&record, node + 8 + 4 * rng->NextInt(2),
                 InterestingIndex(rng, target.nodes));
        break;
      case 6: {  // A node's table set.
        uint64_t mask = 0;
        if (node + 24 <= record.size()) {
          ByteReader field(record.data() + node + 16, 8);
          field.GetU64(&mask);
        }
        PutU64At(&record, node + 16, InterestingMask(rng, mask));
        break;
      }
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

/// The frontier `record`'s payload decodes to through its kind's codec;
/// null when the codec rejects it.
std::shared_ptr<const PlanSet> DecodePayload(
    const persist::RecordView& record) {
  if (record.kind == RecordKind::kMemoEntry) {
    return MemoEntryCodec::Decode(record.payload, record.achieved_alpha);
  }
  if (record.kind != RecordKind::kPlanCacheEntry) return nullptr;
  const std::shared_ptr<const CachedFrontier> entry =
      PlanCacheEntryCodec::Decode(record.payload, record.achieved_alpha);
  return entry == nullptr || entry->result == nullptr
             ? nullptr
             : entry->result->plan_set;
}

TEST(DecoderFuzzTest, MutatedRecordsAreRejectedOrDecodeSound) {
  const std::vector<Target> corpus = Corpus();
  for (const Target& target : corpus) {
    ByteReader reader(target.record.data(), target.record.size());
    persist::RecordView record;
    ASSERT_EQ(persist::ReadRecord(&reader, &record),
              persist::ReadRecordStatus::kOk);
    const std::shared_ptr<const PlanSet> set = DecodePayload(record);
    ASSERT_NE(set, nullptr);
    ASSERT_GT(set->size(), 1);
    ASSERT_EQ(Violation(*set), "");
  }

  uint64_t first = kFirstSeed;
  int cases = kCases;
  if (const char* env = std::getenv("MOQO_PROP_SEED")) {
    first = std::strtoull(env, nullptr, 10);
    cases = 1;
  }
  int parsed = 0, decoded = 0;
  for (int i = 0; i < cases; ++i) {
    const uint64_t seed = first + static_cast<uint64_t>(i);
    Xoshiro256 rng(seed);
    const std::string bytes =
        Mutate(corpus[rng.NextInt(corpus.size())], &rng);
    ByteReader reader(bytes.data(), bytes.size());
    persist::RecordView record;
    if (persist::ReadRecord(&reader, &record) !=
        persist::ReadRecordStatus::kOk) {
      continue;
    }
    ++parsed;
    const std::shared_ptr<const PlanSet> set = DecodePayload(record);
    if (set == nullptr) continue;
    ++decoded;
    const std::string violation = Violation(*set);
    if (!violation.empty()) {
      FAIL() << "MOQO_PROP_SEED=" << seed
             << " moqo_tests --gtest_filter='DecoderFuzzTest.*'  # decoded "
             << violation;
    }
  }
  // Guards the mutator: were re-sealing broken, every case would stop at
  // the record checksum and the payload parsers would go unfuzzed.
  if (cases == kCases) {
    EXPECT_GT(parsed, kCases / 2);
    EXPECT_GT(decoded, 0);
  }
}

}  // namespace
}  // namespace moqo
