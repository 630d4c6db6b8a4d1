// Copyright (c) 2026 moqo authors. MIT license.
//
// Golden bytes for every byte-identity contract moqo keeps across
// processes, disks and sockets: one wire frame per net::MsgType, a
// two-record snapshot file, a PlanSet codec block, a plan-cache frontier
// payload, a memo candidates payload, and the ProblemSignature /
// SubplanSignature keys of a fixed TPC-H query. The expected values were
// recorded from the encoders (all but the memo payload before they moved
// onto the shared codec, util/byte_codec.h) and must never change: a diff
// here is a wire, disk or cache-key format change, which breaks deployed
// clients, restored snapshots and cache hit rates.
//
// The last block pins optimizer output itself: the PlanSetCodec bytes of
// four TPC-H frontiers (by length and FNV-1a) and the candidates each run
// costed. A diff there means the DP, the cost model or the dominance scans
// changed what the optimizer returns, so cached and persisted frontiers of
// an older build no longer match a fresh run.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "core/dp_driver.h"
#include "core/exa.h"
#include "core/optimizer.h"
#include "core/pareto_set.h"
#include "core/plan_set.h"
#include "core/rta.h"
#include "memo/subplan_key.h"
#include "memo/subplan_memo.h"
#include "model/cost_model.h"
#include "net/wire.h"
#include "persist/plan_set_codec.h"
#include "persist/snapshot.h"
#include "query/tpch_queries.h"
#include "service/plan_cache.h"
#include "service/signature.h"
#include "util/arena.h"
#include "util/byte_codec.h"

namespace moqo {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  hex.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    hex.push_back(kDigits[c >> 4]);
    hex.push_back(kDigits[c & 0xF]);
  }
  return hex;
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  return Hex(std::string_view(reinterpret_cast<const char*>(bytes.data()),
                              bytes.size()));
}

/// Splits one complete frame into its type and payload.
std::vector<uint8_t> PayloadOf(const std::string& frame,
                               net::MsgType expected_type) {
  net::FrameDecoder decoder;
  decoder.Feed(frame.data(), frame.size());
  net::MsgType type;
  std::vector<uint8_t> payload;
  EXPECT_EQ(decoder.Next(&type, &payload), net::FrameDecoder::Status::kFrame);
  EXPECT_EQ(type, expected_type);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  return payload;
}

// ---- Wire frames. --------------------------------------------------------

TEST(EncodingGoldenTest, OneFramePerMessageType) {
  net::OpenFrontierMsg open;
  open.query_id = "tpch_q3";
  open.objectives = {0, 2, 5};
  open.algorithm = -1;
  open.alpha = 1.25;
  open.parallelism = 4;
  open.alpha_start = 8.0;
  open.alpha_target = -1;
  open.max_steps = 6;
  open.step_deadline_ms = -2;
  open.quick_first = 1;
  const std::string open_frame = net::EncodeOpenFrontier(open);
  EXPECT_EQ(Hex(open_frame),
            "4d5101013900000007000000747063685f713303000205ff000000000000f43f04"
            "0000000000000000002040000000000000f0bf06000000feffffffffffffff01");

  net::SelectMsg select;
  select.tag = 0x0123456789ABCDEFull;
  select.weights = {0.5, -0.0};
  select.bounds = {kInf, 5e-324};
  const std::string select_frame = net::EncodeSelect(select);
  EXPECT_EQ(Hex(select_frame),
            "4d51010230000000efcdab896745230102000000000000000000e03f0000000000"
            "00008002000000000000000000f07f0100000000000000");

  EXPECT_EQ(Hex(net::EncodeCancel()), "4d51010300000000");
  EXPECT_EQ(Hex(net::EncodeClose()), "4d51010400000000");

  net::FrontierUpdateMsg update;
  update.step = 2;
  update.alpha = 1.5;
  update.from_cache = 1;
  update.step_ms = 3.25;
  update.dims = 2;
  update.costs = {1.0, 1.0 / 3.0, 3.5, std::numeric_limits<double>::max()};
  const std::string update_frame = net::EncodeFrontierUpdate(update);
  EXPECT_EQ(Hex(update_frame),
            "4d5101103a00000002000000000000000000f83f010000000000000a4002000000"
            "02000000000000f03f555555555555d53f0000000000000c40"
            "ffffffffffffef7f");

  net::SelectResultMsg result;
  result.tag = 7;
  result.step = 3;
  result.alpha = 1.1;
  result.plan_index = -1;
  result.weighted_cost = 12.5;
  result.cost = {1.0, 2.0};
  const std::string result_frame = net::EncodeSelectResult(result);
  EXPECT_EQ(Hex(result_frame),
            "4d510111340000000700000000000000030000009a9999999999f13fffffffff00"
            "0000000000294002000000000000000000f03f0000000000000040");

  net::DoneMsg done;
  done.target_reached = 1;
  done.degraded = 1;
  done.rejected = 1;
  done.steps_published = 4;
  done.best_alpha = 1.0625;
  const std::string done_frame = net::EncodeDone(done);
  EXPECT_EQ(Hex(done_frame),
            "4d51011211000000010001000104000000000000000000f13f");

  const std::string error_frame =
      net::EncodeError(net::ErrorCode::kTimeout, "idle");
  EXPECT_EQ(Hex(error_frame), "4d51011309000000060400000069646c65");

  // The decoders read the golden bytes back into messages that re-encode
  // to the same bytes: encode and decode agree on one layout.
  std::vector<uint8_t> payload;
  net::OpenFrontierMsg open_back;
  payload = PayloadOf(open_frame, net::MsgType::kOpenFrontier);
  ASSERT_TRUE(net::DecodeOpenFrontier(payload.data(), payload.size(),
                                      &open_back));
  EXPECT_EQ(net::EncodeOpenFrontier(open_back), open_frame);

  net::SelectMsg select_back;
  payload = PayloadOf(select_frame, net::MsgType::kSelect);
  ASSERT_TRUE(net::DecodeSelect(payload.data(), payload.size(), &select_back));
  EXPECT_EQ(net::EncodeSelect(select_back), select_frame);

  net::FrontierUpdateMsg update_back;
  payload = PayloadOf(update_frame, net::MsgType::kFrontierUpdate);
  ASSERT_TRUE(net::DecodeFrontierUpdate(payload.data(), payload.size(),
                                        &update_back));
  EXPECT_EQ(net::EncodeFrontierUpdate(update_back), update_frame);

  net::SelectResultMsg result_back;
  payload = PayloadOf(result_frame, net::MsgType::kSelectResult);
  ASSERT_TRUE(net::DecodeSelectResult(payload.data(), payload.size(),
                                      &result_back));
  EXPECT_EQ(net::EncodeSelectResult(result_back), result_frame);

  net::DoneMsg done_back;
  payload = PayloadOf(done_frame, net::MsgType::kDone);
  ASSERT_TRUE(net::DecodeDone(payload.data(), payload.size(), &done_back));
  EXPECT_EQ(net::EncodeDone(done_back), done_frame);

  net::ErrorMsg error_back;
  payload = PayloadOf(error_frame, net::MsgType::kError);
  ASSERT_TRUE(net::DecodeError(payload.data(), payload.size(), &error_back));
  EXPECT_EQ(net::EncodeError(static_cast<net::ErrorCode>(error_back.code),
                             error_back.message),
            error_frame);

  EXPECT_TRUE(PayloadOf(net::EncodeCancel(), net::MsgType::kCancel).empty());
  EXPECT_TRUE(PayloadOf(net::EncodeClose(), net::MsgType::kClose).empty());
}

// ---- Snapshot file. ------------------------------------------------------

TEST(EncodingGoldenTest, TwoRecordSnapshotFile) {
  const std::string path = ::testing::TempDir() + "moqo_golden_" +
                           std::to_string(::getpid()) + ".snapshot";
  persist::SnapshotWriter writer(/*catalog_epoch=*/3,
                                 /*cost_model_version=*/7);
  writer.AddRecord(persist::RecordKind::kPlanCacheEntry, "key-one",
                   0x1122334455667788ull, 1.5, "payload-1");
  writer.AddRecord(persist::RecordKind::kMemoEntry, "k2", 42, 0.0,
                   std::string_view("\x00\xff", 2));
  ASSERT_TRUE(writer.WriteFile(path));

  std::string file;
  {
    FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buffer[4096];
    size_t n;
    while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
      file.append(buffer, n);
    }
    std::fclose(f);
  }
  EXPECT_EQ(file.size(), writer.encoded_bytes());
  EXPECT_EQ(Hex(file),
            "4d4f514f534e503101000000020000000300000000000000070000000000000000"
            "0000000000000046a3844bb142d083010000000700000088776655443322110000"
            "00000000f83f09000000000000003bdb9d01092887016b65792d6f6e657061796c"
            "6f61642d3102000000020000002a00000000000000000000000000000002000000"
            "00000000c7910952456c9fd16b3200ff");

  std::vector<std::string> seen;
  const persist::SnapshotReadResult read = persist::ReadSnapshot(
      path, nullptr, [&](const persist::SnapshotRecordView& record) {
        seen.push_back(std::to_string(static_cast<int>(record.kind)) + "|" +
                       std::string(record.key) + "|" +
                       std::to_string(record.key_hash) + "|" +
                       std::to_string(record.achieved_alpha) + "|" +
                       Hex(record.payload));
      });
  std::remove(path.c_str());
  EXPECT_TRUE(read.loaded);
  EXPECT_EQ(read.header.catalog_epoch, 3u);
  EXPECT_EQ(read.header.cost_model_version, 7u);
  EXPECT_EQ(read.records_ok, 2u);
  EXPECT_EQ(read.skipped_checksum, 0u);
  EXPECT_EQ(read.truncated, 0u);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "1|key-one|1234605616436508552|1.500000|"
                     "7061796c6f61642d31");
  EXPECT_EQ(seen[1], "2|k2|42|0.000000|00ff");
}

// ---- PlanSet block and frontier payload. ---------------------------------

/// Two join plans sharing both scan children (a DAG), with costs and
/// statistics chosen to exercise non-trivial bit patterns.
std::shared_ptr<const PlanSet> MakeDagFrontier(Arena* arena) {
  PlanNode* left = arena->New<PlanNode>();
  left->op_config = 3;
  left->table = 0;
  left->tables = TableSet(0b01);
  left->cardinality = 1.0 / 3.0;
  left->row_width = 24;
  left->cost = CostVector(2);
  left->cost[0] = 1.0;
  left->cost[1] = 0.25;
  PlanNode* right = arena->New<PlanNode>();
  right->op_config = 4;
  right->table = 1;
  right->tables = TableSet(0b10);
  right->cardinality = 5e-324;
  right->row_width = 16;
  right->cost = CostVector(2);
  right->cost[0] = 2.0;
  right->cost[1] = 1.0 / 7.0;

  ParetoSet set;
  const double join_costs[][2] = {{1.5, 8.0}, {6.0, 0.5}};
  for (int j = 0; j < 2; ++j) {
    PlanNode* join = arena->New<PlanNode>();
    join->op_config = 10 + j;
    join->table = -1;
    join->left = left;
    join->right = right;
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

TEST(EncodingGoldenTest, PlanSetCodecBlock) {
  Arena arena;
  const std::shared_ptr<const PlanSet> plan_set = MakeDagFrontier(&arena);
  ASSERT_EQ(plan_set->size(), 2);
  std::string block = "prefix";  // Append must not disturb what is there.
  persist::PlanSetCodec::Append(*plan_set, &block);
  ASSERT_EQ(block.substr(0, 6), "prefix");
  block.erase(0, 6);
  EXPECT_EQ(Hex(block),
            "02000000040000000200000000000000000000000000f83f000000000000204000"
            "00000000001840000000000000e03f02000000030000000300000000000000ffff"
            "ffffffffffff0100000000000000555555555555d53f0000000000003840000000"
            "000000f03f000000000000d03f0400000001000000ffffffffffffffff02000000"
            "000000000100000000000000000000000000304000000000000000409224499224"
            "49c23f0a000000ffffffff0000000001000000030000000000000000000000004a"
            "93400000000000005840000000000000f83f00000000000020400b000000ffffff"
            "ff0000000001000000030000000000000000000000004a93400000000000005840"
            "0000000000001840000000000000e03f");

  size_t consumed = 0;
  const std::shared_ptr<const PlanSet> decoded =
      persist::PlanSetCodec::Decode(block.data(), block.size(), &consumed);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(consumed, block.size());
  std::string again;
  persist::PlanSetCodec::Append(*decoded, &again);
  EXPECT_EQ(again, block);
}

TEST(EncodingGoldenTest, FrontierPayload) {
  Arena arena;
  auto result = std::make_shared<OptimizerResult>();
  result->plan_set = MakeDagFrontier(&arena);
  result->plan = result->plan_set->plan(0);
  result->cost = result->plan_set->cost(0);
  result->weighted_cost = 9.5;
  CachedFrontier entry;
  entry.result = result;
  entry.weights = WeightVector(2);
  entry.weights[0] = 0.25;
  entry.weights[1] = 0.75;
  entry.bounds = BoundVector(2);
  entry.bounds[1] = 9.5;
  entry.achieved_alpha = 1.25;

  std::string payload;
  ASSERT_TRUE(PlanCacheEntryCodec::Encode(entry, &payload));
  EXPECT_EQ(Hex(payload),
            "0200000002000000000000000000d03f000000000000e83f000000000000f07f00"
            "0000000000234002000000040000000200000000000000000000000000f83f0000"
            "0000000020400000000000001840000000000000e03f0200000003000000030000"
            "0000000000ffffffffffffffff0100000000000000555555555555d53f00000000"
            "00003840000000000000f03f000000000000d03f0400000001000000ffffffffff"
            "ffffff020000000000000001000000000000000000000000003040000000000000"
            "0040922449922449c23f0a000000ffffffff000000000100000003000000000000"
            "0000000000004a93400000000000005840000000000000f83f0000000000002040"
            "0b000000ffffffff0000000001000000030000000000000000000000004a934000"
            "000000000058400000000000001840000000000000e03f");

  const std::shared_ptr<const CachedFrontier> decoded =
      PlanCacheEntryCodec::Decode(payload, 1.25);
  ASSERT_NE(decoded, nullptr);
  std::string again;
  ASSERT_TRUE(PlanCacheEntryCodec::Encode(*decoded, &again));
  EXPECT_EQ(again, payload);
}

// ---- Cache keys. ---------------------------------------------------------

ObjectiveSet ThreeObjectives() {
  return ObjectiveSet({Objective::kTotalTime, Objective::kIOLoad,
                       Objective::kDiskFootprint});
}

TEST(EncodingGoldenTest, TpchProblemSignatures) {
  const Catalog catalog = Catalog::TpcH(1.0);
  const Query query = MakeTpcHQuery(&catalog, 5);
  const OptimizerOptions options;

  const ProblemSignature rta = ComputeSignature(
      query, ThreeObjectives(), AlgorithmKind::kRta, 1.5, options);
  EXPECT_EQ(rta.key.size(), 6397u);
  EXPECT_EQ(rta.hash, 9550144615566659ull);

  const ProblemSignature extended = ExtendSignature(rta, 2.0);
  EXPECT_EQ(extended.key.size(), rta.key.size() + 8);
  EXPECT_EQ(extended.hash, 10857460274708408035ull);

  // A preference-dependent algorithm keys on alpha, weights and bounds,
  // with the unbounded sentinel for infinite dimensions.
  WeightVector weights(3);
  weights[0] = 1.0;
  weights[1] = 2.0;
  weights[2] = 0.5;
  BoundVector bounds(3);
  bounds[1] = 1e6;
  const ProblemSignature ira =
      ComputeSignature(query, ThreeObjectives(), AlgorithmKind::kIra, 1.25,
                       options, &weights, &bounds);
  EXPECT_EQ(ira.key.size(), 6469u);
  EXPECT_EQ(ira.hash, 11757292797277111988ull);
  // The key's tail: sampling rates and DOPs, then the preference block —
  // alpha, weights, and bounds with the sentinel for unbounded dimensions.
  EXPECT_EQ(Hex(ira.key.substr(ira.key.size() - 120)),
            "7b14ae47e17a943f7b14ae47e17a843f0300000000000000010000000000000002"
            "000000000000000400000000000000000000000000f43f03000000000000000000"
            "00000000f03f0000000000000040000000000000e03f0300000000000000ffffff"
            "ffffffffff0000000080842e41ffffffffffffffff");
}

TEST(EncodingGoldenTest, TpchSubplanSignatures) {
  const Catalog catalog = Catalog::TpcH(1.0);
  const Query query = MakeTpcHQuery(&catalog, 5);
  const OptimizerOptions options;
  const SubplanKeyContext context(
      query, ThreeObjectives(), RTAInternalPrecision(1.5, query.num_tables()),
      options.operators, /*bushy=*/true, /*cartesian_heuristic=*/true,
      /*aggressive_delete=*/false, /*skip_disconnected=*/true);

  const SubplanSignature single = context.SignatureFor(TableSet(0b1));
  EXPECT_EQ(single.key.size(), 1276u);
  EXPECT_EQ(single.hash, 925922111577306371ull);

  const SubplanSignature pair = context.SignatureFor(TableSet(0b11));
  EXPECT_EQ(pair.key.size(), 2496u);
  EXPECT_EQ(pair.hash, 16088310297538359822ull);

  const SubplanSignature all =
      context.SignatureFor(TableSet::Prefix(query.num_tables()));
  EXPECT_EQ(all.key.size(), 6612u);
  EXPECT_EQ(all.hash, 2228825081787535ull);
  // The member count leads the key.
  EXPECT_EQ(Hex(all.key.substr(0, 8)), "0600000000000000");

  // The key names the objective set, not its order.
  const std::vector<Objective> three = ThreeObjectives().objectives();
  const SubplanKeyContext reversed(
      query, ObjectiveSet(std::vector<Objective>(three.rbegin(), three.rend())),
      RTAInternalPrecision(1.5, query.num_tables()), options.operators,
      /*bushy=*/true, /*cartesian_heuristic=*/true,
      /*aggressive_delete=*/false, /*skip_disconnected=*/true);
  const SubplanSignature reversed_all =
      reversed.SignatureFor(TableSet::Prefix(query.num_tables()));
  EXPECT_EQ(reversed_all.key.size(), 6612u);
  EXPECT_EQ(reversed_all.hash, 2228825081787535ull);
}

// ---- Memo candidates record. ----------------------------------------------

TEST(EncodingGoldenTest, MemoCandidatesRecord) {
  // The memo entry an exact DP publishes for TPC-H Q3's three-table set:
  // a u32 row count, then per surviving candidate its config, its left
  // and right operand rows and its left operand's rank mask.
  const Catalog catalog = Catalog::TpcH(1.0);
  const Query query = MakeTpcHQuery(&catalog, 3);
  const OptimizerOptions options;
  const OperatorRegistry registry(options.operators);
  const CostModel model(&query, &registry, ThreeObjectives());
  SubplanMemo memo;
  Arena arena;
  DPPlanGenerator generator(&model, &registry, &arena);
  DPOptions dp;
  dp.subplan_memo = &memo;
  generator.Run(query, dp);
  const SubplanKeyContext context(
      query, ThreeObjectives(), 1.0, options.operators, /*bushy=*/true,
      /*cartesian_heuristic=*/true, /*aggressive_delete=*/false,
      /*skip_disconnected=*/true);
  const std::shared_ptr<const MemoFrontier> entry =
      memo.Lookup(context.SignatureFor(query.AllTables()));
  ASSERT_NE(entry, nullptr);

  EXPECT_EQ(static_cast<uint32_t>(MemoEntryCodec::kKind), 3u);
  std::string payload;
  ASSERT_TRUE(MemoEntryCodec::Encode(*entry, &payload));
  // Five rows, each left operand {customer, orders} (ranks 0b011).
  EXPECT_EQ(Hex(payload),
            "050000001400000000000000000000000300000000000000"
            "1600000000000000000000000300000000000000"
            "1600000001000000000000000300000000000000"
            "1400000002000000000000000300000000000000"
            "1600000002000000000000000300000000000000");

  const std::shared_ptr<const MemoFrontier> decoded =
      MemoEntryCodec::Decode(payload, 0.0);
  ASSERT_NE(decoded, nullptr);
  std::string again;
  ASSERT_TRUE(MemoEntryCodec::Encode(*decoded, &again));
  EXPECT_EQ(again, payload);
}

// ---- Optimizer output. ---------------------------------------------------

/// What one optimizer run is pinned by: the frontier's plan count, the
/// length and FNV-1a of its PlanSetCodec block, and the candidates the DP
/// costed to get there.
struct PinnedFrontier {
  int plans;
  size_t bytes;
  uint64_t hash;
  long considered;
};

PinnedFrontier RunPinned(OptimizerBase* optimizer, const Query& query,
                         std::vector<Objective> objectives) {
  MOQOProblem problem;
  problem.query = &query;
  problem.objectives = ObjectiveSet(std::move(objectives));
  problem.weights = WeightVector::Uniform(problem.objectives.size());
  const OptimizerResult result = optimizer->Optimize(problem);
  EXPECT_FALSE(result.metrics.timed_out);
  std::string block;
  persist::PlanSetCodec::Append(*result.plan_set, &block);
  return {result.plan_set->size(), block.size(),
          Fnv1a(block.data(), block.size(), kFnv1aOffsetBasis),
          result.metrics.considered_plans};
}

void ExpectPinned(const PinnedFrontier& got, const PinnedFrontier& want) {
  EXPECT_EQ(got.plans, want.plans);
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.hash, want.hash);
  EXPECT_EQ(got.considered, want.considered);
}

TEST(EncodingGoldenTest, TpchOptimizerFrontiers) {
  const Catalog catalog = Catalog::TpcH(1.0);
  OptimizerOptions options;
  options.operators.sampling_rates = {0.05};
  options.operators.dops = {1, 2};

  ExactMOQO exa(options);
  ExpectPinned(RunPinned(&exa, MakeTpcHQuery(&catalog, 3),
                         {Objective::kTotalTime, Objective::kIOLoad,
                          Objective::kDiskFootprint}),
               {5, 860u, 13235906175700144862ull, 122});

  options.alpha = 1.5;
  RTAOptimizer rta(options);
  const std::vector<Objective> six = {
      Objective::kIOLoad,        Objective::kCores,
      Objective::kDiskFootprint, Objective::kBufferFootprint,
      Objective::kEnergy,        Objective::kTupleLoss};
  ExpectPinned(RunPinned(&rta, MakeTpcHQuery(&catalog, 5), six),
               {63, 16052u, 13904128662277777423ull, 67964});
  ExpectPinned(RunPinned(&rta, MakeTpcHQuery(&catalog, 8), six),
               {175, 50652u, 8295459365316385554ull, 239908});
  ExpectPinned(RunPinned(&rta, MakeTpcHQuery(&catalog, 2),
                         std::vector<Objective>(kAllObjectives.begin(),
                                                kAllObjectives.end())),
               {615, 144532u, 12398799925385972966ull, 77768});

  // The ablation's deletion rule (aggressive_delete: stored plans the new
  // one alpha-dominates go too) on Q5.
  options.aggressive_delete = true;
  RTAOptimizer ablation(options);
  ExpectPinned(RunPinned(&ablation, MakeTpcHQuery(&catalog, 5), six),
               {19, 6372u, 8849305345751279887ull, 20932});
}

}  // namespace
}  // namespace moqo
