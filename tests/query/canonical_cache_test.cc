// Copyright (c) 2026 moqo authors. MIT license.
//
// Tests for the per-query cached canonical form (Query::CanonicalForm)
// and the chained signature hashes built on it: every key and hash must
// equal its from-scratch encoding, whatever the query's history — warm,
// copied, edited, assigned, or shared across threads.

#include <gtest/gtest.h>

#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "query/canonical.h"
#include "query/tpch_queries.h"
#include "service/signature.h"
#include "testing/test_helpers.h"
#include "util/byte_codec.h"

namespace moqo {
namespace {

using testing::MakeStarQuery;
using testing::MakeTinyCatalog;

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

TEST(QueryCanonicalCacheTest, WarmAndNeverUsedCopyAgreeOnEveryTpchQuery) {
  const Catalog catalog = Catalog::TpcH(1.0);
  for (int number : TpcHQueryOrder()) {
    SCOPED_TRACE("Q" + std::to_string(number));
    const Query warm = MakeTpcHQuery(&catalog, number);
    const ProblemSignature first_rta = RtaSignature(warm);
    const ProblemSignature first_ira = IraSignature(warm);

    const Query never_used = warm;
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

  edited.AddJoin(fact, "f_d1", dim1, "d1_key");
  const ProblemSignature before_table = RtaSignature(edited);
  EXPECT_NE(before_table, before_join);

  const int dim2 = edited.AddTable("dim2");
  edited.AddJoin(fact, "f_d2", dim2, "d2_key");
  const ProblemSignature before_filter = RtaSignature(edited);
  EXPECT_NE(before_filter, before_table);

  edited.AddFilter(filter);
  const ProblemSignature after = RtaSignature(edited);
  EXPECT_NE(after, before_filter);

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
}

TEST(QueryCanonicalCacheTest, EditingACopyLeavesTheOriginalUnchanged) {
  const Catalog catalog = MakeTinyCatalog();
  const Query original = MakeStarQuery(&catalog, 2);
  const ProblemSignature reference = RtaSignature(original);

  Query copy = original;
  EXPECT_EQ(RtaSignature(copy), reference);
  copy.AddFilter({0, "f_value", FilterOp::kGreater, 10.0, 0.0});
  EXPECT_NE(RtaSignature(copy), reference);
  EXPECT_EQ(RtaSignature(original), reference);

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

  // The threads start on a cold query, so they also race on the first
  // build of the form.
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, &reference_rta, &reference_ira,
                          &mismatches, t] {
      for (int round = 0; round < kRounds; ++round) {
        if (!(RtaSignature(shared) == reference_rta)) ++mismatches[t];
        if (!(IraSignature(shared) == reference_ira)) ++mismatches[t];
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

}  // namespace
}  // namespace moqo
