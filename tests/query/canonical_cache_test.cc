// Copyright (c) 2026 moqo authors. MIT license.
//
// Tests for the per-query cached canonical form (Query::CanonicalForm)
// and the keys cut from it — the chained plan-cache signatures and the
// subplan memo's table-set keys: every key and hash must equal its
// from-scratch encoding, whatever the query's history — warm, copied,
// edited, assigned, or shared across threads.

#include <gtest/gtest.h>

#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/exa.h"
#include "memo/subplan_key.h"
#include "persist/plan_set_codec.h"
#include "query/canonical.h"
#include "query/tpch_queries.h"
#include "service/signature.h"
#include "testing/test_helpers.h"
#include "util/byte_codec.h"

namespace moqo {
namespace {

using testing::MakeStarQuery;
using testing::MakeTinyCatalog;
using testing::SmallOptions;

// The cache must not cost containers of queries their cheap moves.
static_assert(std::is_nothrow_move_constructible_v<Query>);

ObjectiveSet ThreeObjectives() {
  return ObjectiveSet({Objective::kTotalTime, Objective::kIOLoad,
                       Objective::kDiskFootprint});
}

ProblemSignature RtaSignature(const Query& query) {
  return ComputeSignature(query, ThreeObjectives(), AlgorithmKind::kRta, 1.5,
                          OptimizerOptions());
}

/// A preference-dependent signature: its suffix carries alpha, weights and
/// bounds, so the chained hash covers the longest spec suffix.
ProblemSignature IraSignature(const Query& query) {
  WeightVector weights(3);
  weights[0] = 1.0;
  weights[1] = 2.0;
  weights[2] = 0.5;
  BoundVector bounds(3);
  bounds[1] = 1e6;
  return ComputeSignature(query, ThreeObjectives(), AlgorithmKind::kIra, 1.25,
                          OptimizerOptions(), &weights, &bounds);
}

uint64_t FromScratchHash(const ProblemSignature& signature) {
  return Fnv1a(signature.key.data(), signature.key.size(), kFnv1aOffsetBasis);
}

SubplanKeyContext MemoContext(const Query& query) {
  return SubplanKeyContext(query, ThreeObjectives(), 1.0,
                           OptimizerOptions().operators, /*bushy=*/true,
                           /*cartesian_heuristic=*/true,
                           /*aggressive_delete=*/false,
                           /*skip_disconnected=*/true);
}

/// The memo keys of the whole query and of each of its tables, as one DP
/// run builds them; each hash must equal a from-scratch one.
std::vector<SubplanSignature> MemoSignatures(const Query& query) {
  const SubplanKeyContext context = MemoContext(query);
  std::vector<SubplanSignature> signatures = {
      context.SignatureFor(query.AllTables())};
  for (int t = 0; t < query.num_tables(); ++t) {
    signatures.push_back(context.SignatureFor(TableSet::Singleton(t)));
  }
  for (const SubplanSignature& signature : signatures) {
    EXPECT_EQ(signature.hash, FromScratchHash(signature));
  }
  return signatures;
}

TEST(QueryCanonicalCacheTest, WarmAndNeverUsedCopyAgreeOnEveryTpchQuery) {
  const Catalog catalog = Catalog::TpcH(1.0);
  for (int number : TpcHQueryOrder()) {
    SCOPED_TRACE("Q" + std::to_string(number));
    const Query warm = MakeTpcHQuery(&catalog, number);
    const ProblemSignature first_rta = RtaSignature(warm);
    const ProblemSignature first_ira = IraSignature(warm);

    // The copy's form is built first by a DP run's memo keys, the
    // original's by the plan-cache keys.
    const Query never_used = warm;
    EXPECT_EQ(MemoSignatures(never_used), MemoSignatures(warm));
    const ProblemSignature warm_rta = RtaSignature(warm);
    const ProblemSignature warm_ira = IraSignature(warm);
    EXPECT_EQ(warm_rta, first_rta);
    EXPECT_EQ(warm_ira, first_ira);
    EXPECT_EQ(RtaSignature(never_used), warm_rta);
    EXPECT_EQ(IraSignature(never_used), warm_ira);

    EXPECT_EQ(warm_rta.hash, FromScratchHash(warm_rta));
    EXPECT_EQ(warm_ira.hash, FromScratchHash(warm_ira));
    EXPECT_EQ(warm.CanonicalForm()->bytes, CanonicalQueryEncoding(warm));
    EXPECT_EQ(warm_rta.key.compare(0, warm.CanonicalForm()->bytes.size(),
                                   warm.CanonicalForm()->bytes),
              0);
  }
}

TEST(QueryCanonicalCacheTest, FormIsBuiltOnceAndNotSharedWithCopies) {
  const Catalog catalog = Catalog::TpcH(1.0);
  const Query query = MakeTpcHQuery(&catalog, 8);
  const std::shared_ptr<const CanonicalQueryForm> form = query.CanonicalForm();
  EXPECT_EQ(query.CanonicalForm(), form);
  EXPECT_EQ(form->hash,
            Fnv1a(form->bytes.data(), form->bytes.size(), kFnv1aOffsetBasis));

  const Query copy = query;
  EXPECT_NE(copy.CanonicalForm(), form);
  EXPECT_EQ(copy.CanonicalForm()->bytes, form->bytes);
}

TEST(QueryCanonicalCacheTest, EditsAfterFirstSignatureMatchFreshQuery) {
  const Catalog catalog = MakeTinyCatalog();
  const FilterPredicate filter{0, "f_value", FilterOp::kLess, 500.0, 0.0};

  Query edited(&catalog, "edited");
  const int fact = edited.AddTable("fact");
  const int dim1 = edited.AddTable("dim1");
  const ProblemSignature before_join = RtaSignature(edited);
  // A context holds the form it was built from, edits notwithstanding.
  const SubplanKeyContext first_context = MemoContext(edited);
  const std::vector<SubplanSignature> memo_before_join =
      MemoSignatures(edited);

  edited.AddJoin(fact, "f_d1", dim1, "d1_key");
  const ProblemSignature before_table = RtaSignature(edited);
  EXPECT_NE(before_table, before_join);
  const std::vector<SubplanSignature> memo_before_table =
      MemoSignatures(edited);
  EXPECT_NE(memo_before_table, memo_before_join);

  const int dim2 = edited.AddTable("dim2");
  edited.AddJoin(fact, "f_d2", dim2, "d2_key");
  const ProblemSignature before_filter = RtaSignature(edited);
  EXPECT_NE(before_filter, before_table);
  const std::vector<SubplanSignature> memo_before_filter =
      MemoSignatures(edited);
  EXPECT_NE(memo_before_filter, memo_before_table);

  edited.AddFilter(filter);
  const ProblemSignature after = RtaSignature(edited);
  EXPECT_NE(after, before_filter);
  const std::vector<SubplanSignature> memo_after = MemoSignatures(edited);
  EXPECT_NE(memo_after, memo_before_filter);
  EXPECT_EQ(first_context.SignatureFor(TableSet::Prefix(2)),
            memo_before_join.front());

  Query fresh(&catalog, "fresh");
  fresh.AddTable("fact");
  fresh.AddTable("dim1");
  fresh.AddTable("dim2");
  fresh.AddJoin(0, "f_d1", 1, "d1_key");
  fresh.AddJoin(0, "f_d2", 2, "d2_key");
  fresh.AddFilter(filter);
  EXPECT_EQ(after, RtaSignature(fresh));
  EXPECT_EQ(after.hash, FromScratchHash(after));
  EXPECT_EQ(edited.CanonicalForm()->bytes, CanonicalQueryEncoding(fresh));
  EXPECT_EQ(memo_after, MemoSignatures(fresh));
}

TEST(QueryCanonicalCacheTest, EditingACopyLeavesTheOriginalUnchanged) {
  const Catalog catalog = MakeTinyCatalog();
  const Query original = MakeStarQuery(&catalog, 2);
  const ProblemSignature reference = RtaSignature(original);
  const std::vector<SubplanSignature> memo_reference =
      MemoSignatures(original);

  Query copy = original;
  EXPECT_EQ(RtaSignature(copy), reference);
  copy.AddFilter({0, "f_value", FilterOp::kGreater, 10.0, 0.0});
  EXPECT_NE(RtaSignature(copy), reference);
  EXPECT_EQ(RtaSignature(original), reference);
  EXPECT_NE(MemoSignatures(copy), memo_reference);
  EXPECT_EQ(MemoSignatures(original), memo_reference);
  // A context holds its form, so it may outlive the query it was built on.
  const SubplanKeyContext outliving = MemoContext(Query(original));
  EXPECT_EQ(outliving.SignatureFor(original.AllTables()),
            memo_reference.front());

  // Assignment and moves carry content, never a stale form.
  Query assigned = MakeStarQuery(&catalog, 3);
  const ProblemSignature three = RtaSignature(assigned);
  assigned = original;
  EXPECT_EQ(RtaSignature(assigned), reference);
  const Query moved = std::move(copy);
  EXPECT_NE(RtaSignature(moved), reference);
  EXPECT_NE(RtaSignature(moved), three);
  EXPECT_EQ(RtaSignature(moved).hash, FromScratchHash(RtaSignature(moved)));
}

TEST(QueryCanonicalCacheTest, ConcurrentSignaturesOfASharedQueryAgree) {
  const Catalog catalog = Catalog::TpcH(1.0);
  const Query shared = MakeTpcHQuery(&catalog, 8);
  const Query reference_query = MakeTpcHQuery(&catalog, 8);
  const ProblemSignature reference_rta = RtaSignature(reference_query);
  const ProblemSignature reference_ira = IraSignature(reference_query);
  const std::vector<SubplanSignature> reference_memo =
      MemoSignatures(reference_query);

  // The threads start on a cold query, so they also race on the first
  // build of the form: half of them through a DP run's memo keys.
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, &reference_rta, &reference_ira,
                          &reference_memo, &mismatches, t] {
      for (int round = 0; round < kRounds; ++round) {
        if (t % 2 == 0 && MemoSignatures(shared) != reference_memo) {
          ++mismatches[t];
        }
        if (!(RtaSignature(shared) == reference_rta)) ++mismatches[t];
        if (!(IraSignature(shared) == reference_ira)) ++mismatches[t];
        if (t % 2 == 1 && MemoSignatures(shared) != reference_memo) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

TEST(QueryCanonicalCacheTest, VectorExtendEqualsChainedSingleExtends) {
  const Catalog catalog = Catalog::TpcH(1.0);
  const Query query = MakeTpcHQuery(&catalog, 3);
  const ProblemSignature base = RtaSignature(query);
  const std::vector<double> values = {4.0, 2.0, 1.5, -0.0, 250.0};

  ProblemSignature chained = base;
  for (double value : values) {
    chained = ExtendSignature(chained, value);
    EXPECT_EQ(chained.hash, FromScratchHash(chained));
  }
  const ProblemSignature extended = ExtendSignature(base, values);
  EXPECT_EQ(extended, chained);
  EXPECT_EQ(extended.key.size(), base.key.size() + 8 * values.size());
  EXPECT_EQ(extended.hash, FromScratchHash(extended));
  EXPECT_EQ(ExtendSignature(base, std::vector<double>{}), base);
}

/// Tables a(a_key) and b(b_value), joined on a.a_key = b.b_ref, where
/// b_ref has no statistics. The two catalogs differ only in an index on
/// b_ref.
Catalog MakeStatlessJoinColumnCatalog(bool index_b_ref) {
  Catalog catalog;
  ColumnStats key;
  key.name = "a_key";
  key.ndv = 1000;
  key.min_value = 0;
  key.max_value = 999;
  key.histogram = Histogram::Uniform(0, 999, 8, 1000);
  Table a("a", 1000, 32);
  a.AddColumn(key);
  a.AddIndex("a_key");
  catalog.AddTable(std::move(a));

  ColumnStats value = key;
  value.name = "b_value";
  value.histogram = Histogram::Uniform(0, 999, 8, 20000);
  Table b("b", 20000, 48);
  b.AddColumn(value);
  if (index_b_ref) b.AddIndex("b_ref");
  catalog.AddTable(std::move(b));
  return catalog;
}

TEST(QueryCanonicalCacheTest, IndexWithoutStatisticsChangesNoKeyAndNoPlan) {
  // Both keys record indexes only inside column-statistics records, so an
  // index on a column without statistics must not change the plan space
  // either: equal keys must mean equal frontiers.
  const Catalog plain = MakeStatlessJoinColumnCatalog(false);
  const Catalog indexed = MakeStatlessJoinColumnCatalog(true);
  const auto make_query = [](const Catalog* catalog) {
    Query query(catalog, "statless_ref");
    const int a = query.AddTable("a");
    const int b = query.AddTable("b");
    query.AddJoin(a, "a_key", b, "b_ref");
    return query;
  };
  const Query over_plain = make_query(&plain);
  const Query over_indexed = make_query(&indexed);

  // Were the index on b_ref used, index scans of b and index-nested-loop
  // joins into b would change this spec's frontier.
  const ObjectiveSet objectives({Objective::kTotalTime,
                                 Objective::kStartupTime, Objective::kIOLoad});
  const OptimizerOptions options = SmallOptions();
  EXPECT_EQ(ComputeSignature(over_plain, objectives, AlgorithmKind::kExa, 1.0,
                             options),
            ComputeSignature(over_indexed, objectives, AlgorithmKind::kExa,
                             1.0, options));
  EXPECT_EQ(MemoSignatures(over_plain), MemoSignatures(over_indexed));

  const auto frontier = [&objectives, &options](const Query& query) {
    MOQOProblem problem;
    problem.query = &query;
    problem.objectives = objectives;
    problem.weights = WeightVector::Uniform(problem.objectives.size());
    ExactMOQO exa(options);
    const OptimizerResult result = exa.Optimize(problem);
    std::string block;
    persist::PlanSetCodec::Append(*result.plan_set, &block);
    return block;
  };
  EXPECT_EQ(frontier(over_plain), frontier(over_indexed));
}

}  // namespace
}  // namespace moqo
