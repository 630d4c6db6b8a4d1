// Tests for ParetoSet pruning — including a randomized cross-check of the
// block-summary/tombstone implementation against a naive reference
// implementation of Algorithm 1/2's Prune.

#include "core/pareto_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "core/dominance_kernel.h"
#include "testing/test_helpers.h"
#include "util/arena.h"
#include "util/random.h"

namespace moqo {
namespace {

PlanNode* MakePlan(Arena* arena, std::initializer_list<double> values) {
  PlanNode* plan = arena->New<PlanNode>();
  plan->cost = CostVector(static_cast<int>(values.size()));
  int i = 0;
  for (double v : values) plan->cost[i++] = v;
  return plan;
}

/// Naive reference: exactly the paper's pseudo-code, no acceleration.
class ReferenceParetoSet {
 public:
  bool Prune(const PlanNode* plan, const ParetoSet::PruneOptions& options) {
    for (const PlanNode* stored : plans_) {
      const bool rejects =
          options.alpha <= 1.0
              ? Dominates(stored->cost, plan->cost)
              : ApproxDominates(stored->cost, plan->cost, options.alpha);
      if (rejects) return false;
    }
    std::erase_if(plans_, [&](const PlanNode* stored) {
      return Dominates(plan->cost, stored->cost);
    });
    plans_.push_back(plan);
    return true;
  }
  std::vector<const PlanNode*> plans_;
};

TEST(ParetoSetTest, KeepsIncomparablePlans) {
  Arena arena;
  ParetoSet set;
  EXPECT_TRUE(set.Prune(MakePlan(&arena, {1, 4})));
  EXPECT_TRUE(set.Prune(MakePlan(&arena, {4, 1})));
  EXPECT_TRUE(set.Prune(MakePlan(&arena, {2, 2})));
  EXPECT_EQ(set.size(), 3);
}

TEST(ParetoSetTest, RejectsDominatedInsertions) {
  Arena arena;
  ParetoSet set;
  EXPECT_TRUE(set.Prune(MakePlan(&arena, {1, 1})));
  EXPECT_FALSE(set.Prune(MakePlan(&arena, {2, 2})));
  EXPECT_FALSE(set.Prune(MakePlan(&arena, {1, 1})));  // Equal = dominated.
  EXPECT_EQ(set.size(), 1);
}

TEST(ParetoSetTest, DeletesDominatedResidents) {
  Arena arena;
  ParetoSet set;
  set.Prune(MakePlan(&arena, {3, 3}));
  set.Prune(MakePlan(&arena, {4, 2}));
  set.Prune(MakePlan(&arena, {1, 1}));  // Dominates both.
  EXPECT_EQ(set.size(), 1);
  set.Seal();
  EXPECT_EQ(set.cost_at(0)[0], 1);
}

TEST(ParetoSetTest, ApproximatePruningRejectsNearDuplicates) {
  Arena arena;
  ParetoSet set;
  ParetoSet::PruneOptions rta{1.5, false};
  EXPECT_TRUE(set.Prune(MakePlan(&arena, {10, 10}), rta));
  // Within factor 1.5 in every dimension: approximately dominated.
  EXPECT_FALSE(set.Prune(MakePlan(&arena, {14, 12}), rta));
  // Outside: 10 > 1.5 * 6 fails, so the stored plan does not 1.5-dominate.
  EXPECT_TRUE(set.Prune(MakePlan(&arena, {6, 30}), rta));
  EXPECT_EQ(set.size(), 2);
}

TEST(ParetoSetTest, ApproximateDeletionStillExact) {
  // The paper's warning (Section 6.2): deletion must use plain dominance.
  // Newcomer (4, 12) with alpha = 2:
  //   - survives insertion: (10,10) does not 2-dominate it (10 > 2*4);
  //   - 2-dominates the resident (4 <= 20, 12 <= 20);
  //   - does NOT plainly dominate it (12 > 10).
  // Default rule: both must stay.
  Arena arena;
  ParetoSet set;
  ParetoSet::PruneOptions rta{2.0, false};
  set.Prune(MakePlan(&arena, {10, 10}), rta);
  EXPECT_TRUE(set.Prune(MakePlan(&arena, {4, 12}), rta));
  EXPECT_EQ(set.size(), 2);
  // (6, 4): not 2-dominated by either resident (10 > 2*4 and 12 > 2*4 in
  // dim 1), plainly dominates (10,10), but not (4,12) — so the insert
  // replaces exactly one resident.
  EXPECT_TRUE(set.Prune(MakePlan(&arena, {6, 4}), rta));
  set.Seal();
  std::set<double> first_components;
  for (int i = 0; i < set.size(); ++i) {
    first_components.insert(set.cost_at(i)[0]);
  }
  EXPECT_EQ(first_components, (std::set<double>{4, 6}));
}

TEST(ParetoSetTest, AggressiveDeleteRemovesApproxDominated) {
  // Same (10,10) / (4,12) pair: the ablation rule deletes the resident the
  // newcomer approximately dominates, shrinking the set to 1.
  Arena arena;
  ParetoSet set;
  ParetoSet::PruneOptions ablation{2.0, true};
  set.Prune(MakePlan(&arena, {10, 10}), ablation);
  EXPECT_TRUE(set.Prune(MakePlan(&arena, {4, 12}), ablation));
  EXPECT_EQ(set.size(), 1);
}

TEST(ParetoSetTest, SelectBestRespectsBoundsWithFallback) {
  Arena arena;
  ParetoSet set;
  const PlanNode* cheap = MakePlan(&arena, {1, 100});
  const PlanNode* bounded = MakePlan(&arena, {50, 10});
  set.Prune(cheap);
  set.Prune(bounded);
  WeightVector w = WeightVector::Uniform(2);
  BoundVector bounds(2);
  bounds[1] = 20;  // Excludes `cheap`.
  EXPECT_EQ(set.SelectBest(w, bounds), bounded);
  // Without bounds, total weighted cost decides: 101 vs 60 -> bounded.
  EXPECT_EQ(set.SelectBestWeighted(w), bounded);
  // Infeasible bounds: fall back to weighted best among all.
  BoundVector impossible(2);
  impossible[0] = 0.5;
  EXPECT_EQ(set.SelectBest(w, impossible), bounded);
}

TEST(ParetoSetTest, EmptySetBehaviour) {
  ParetoSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.SelectBestWeighted(WeightVector::Uniform(2)), nullptr);
  EXPECT_TRUE(set.Frontier().empty());
}

TEST(ParetoSetTest, NoStoredPlanStrictlyDominatesAnother) {
  Arena arena;
  Xoshiro256 rng(5);
  ParetoSet set;
  for (int i = 0; i < 2000; ++i) {
    PlanNode* plan = arena.New<PlanNode>();
    plan->cost = testing::RandomCostVector(&rng, 3, 100);
    set.Prune(plan);
  }
  set.Seal();
  for (int i = 0; i < set.size(); ++i) {
    for (int j = 0; j < set.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(StrictlyDominates(set.cost_at(i), set.cost_at(j)))
          << i << " dominates " << j;
    }
  }
}

TEST(ParetoSetTest, SealCompactsTombstonesAcrossBlocks) {
  // 100 mutually incomparable plans span four blocks; a final dominator
  // tombstones all of them, and Seal must leave exactly the survivor with
  // consistent dense accessors.
  Arena arena;
  ParetoSet set;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        set.Prune(MakePlan(&arena, {1.0 + i, 100.0 - i})));
  }
  EXPECT_EQ(set.size(), 100);
  EXPECT_TRUE(set.Prune(MakePlan(&arena, {0.5, 0.5})));
  EXPECT_EQ(set.size(), 1);
  set.Seal();
  ASSERT_EQ(set.plans().size(), 1u);
  EXPECT_EQ(set.cost_at(0)[0], 0.5);
  EXPECT_EQ(set.cost_at(0)[1], 0.5);
  EXPECT_EQ(set.at(0)->cost[0], 0.5);
}

TEST(ParetoSetTest, BlockSummariesSurviveCrossBlockDeletion) {
  // Delete from a *middle* block only (one row dominated there), then
  // verify the summaries still reject/accept candidates correctly: a
  // candidate dominated by a neighbouring survivor is rejected, a
  // candidate in the freed region is accepted.
  Arena arena;
  ParetoSet set;
  for (int i = 0; i < 96; ++i) {
    ASSERT_TRUE(set.Prune(MakePlan(&arena, {10.0 + i, 200.0 - i})));
  }
  // Dominates the i=40 row (50, 160) and the i=41 row (51, 159) in the
  // middle block.
  EXPECT_TRUE(set.Prune(MakePlan(&arena, {50, 159})));
  EXPECT_EQ(set.size(), 95);
  ParetoSet::PruneOptions exact;
  // (50, 160) is now dominated by the stored (50, 159).
  CostVector dominated(2);
  dominated[0] = 50;
  dominated[1] = 160;
  EXPECT_FALSE(set.WouldInsert(dominated, exact));
  // (9, 300): nothing dominates it (all first components >= 10).
  CostVector fresh(2);
  fresh[0] = 9;
  fresh[1] = 300;
  EXPECT_TRUE(set.WouldInsert(fresh, exact));
}

TEST(ParetoSetTest, SealedOrderIsInsertionOrderOfSurvivors) {
  Arena arena;
  ParetoSet set;
  set.Prune(MakePlan(&arena, {5, 5}));
  set.Prune(MakePlan(&arena, {1, 9}));
  set.Prune(MakePlan(&arena, {9, 1}));
  set.Seal();
  ASSERT_EQ(set.size(), 3);
  EXPECT_EQ(set.cost_at(0)[0], 5);
  EXPECT_EQ(set.cost_at(1)[0], 1);
  EXPECT_EQ(set.cost_at(2)[0], 9);
}

TEST(ParetoSetTest, ClearResetsForReuseWithDifferentDims) {
  Arena arena;
  ParetoSet set;
  set.Prune(MakePlan(&arena, {1, 2, 3}));
  EXPECT_EQ(set.size(), 1);
  set.clear();
  EXPECT_TRUE(set.empty());
  // Re-use with a different dimensionality must work after clear().
  set.Prune(MakePlan(&arena, {4, 4}));
  set.Seal();
  ASSERT_EQ(set.size(), 1);
  EXPECT_EQ(set.cost_at(0).size(), 2);
}

TEST(ParetoSetTest, MemoryBytesGrowsWithInsertions) {
  Arena arena;
  ParetoSet set;
  const size_t empty_bytes = set.MemoryBytes();
  for (int i = 0; i < 64; ++i) {
    set.Prune(MakePlan(&arena, {1.0 + i, 100.0 - i}));
  }
  EXPECT_GT(set.MemoryBytes(), empty_bytes);
}

// The randomized cross-check: the optimized implementation must keep
// exactly the same plan set as the naive pseudo-code, for exact and
// approximate pruning, across dimensions — sweeping insert counts large
// enough to exercise blocks, tombstones, and compaction. Each case runs
// once per scan body this host can run, not only through the one calls
// pick by default: dims 6 is the benchmark's objective count, dims 8 the
// widest single masked compare and dims 9 the two-register case.
class ParetoSetCrossCheck
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

std::vector<ParetoSet::ScanBody> ScanBodiesOnThisHost() {
  std::vector<ParetoSet::ScanBody> bodies = {ParetoSet::ScanBody::kScalar};
  if (Avx512Available()) bodies.push_back(ParetoSet::ScanBody::kAvx512);
  return bodies;
}

TEST_P(ParetoSetCrossCheck, MatchesReferenceImplementation) {
  const int dims = std::get<0>(GetParam());
  const double alpha = std::get<1>(GetParam());
  for (const ParetoSet::ScanBody body : ScanBodiesOnThisHost()) {
    SCOPED_TRACE(body == ParetoSet::ScanBody::kAvx512 ? "avx512" : "scalar");
    Arena arena;
    Xoshiro256 rng(1000 + dims * 10 + static_cast<int>(alpha * 100));
    ParetoSet fast;
    ReferenceParetoSet reference;
    const ParetoSet::PruneOptions options{alpha, false};
    for (int i = 0; i < 3000; ++i) {
      PlanNode* plan = arena.New<PlanNode>();
      // Low-resolution grid so duplicates/dominance chains are common.
      plan->cost = CostVector(dims);
      for (int d = 0; d < dims; ++d) {
        plan->cost[d] = static_cast<double>(rng.NextInt(uint64_t{40}));
      }
      const bool kept_fast = fast.Prune(plan, options, body);
      const bool kept_ref = reference.Prune(plan, options);
      ASSERT_EQ(kept_fast, kept_ref) << "insert " << i;
      ASSERT_EQ(fast.size(), static_cast<int>(reference.plans_.size()))
          << "insert " << i;
    }
    // Same multiset of cost vectors.
    fast.Seal();
    auto key = [](const CostVector& c) {
      std::string k;
      for (int d = 0; d < c.size(); ++d) {
        k += std::to_string(c[d]) + ",";
      }
      return k;
    };
    std::multiset<std::string> fast_keys, ref_keys;
    for (int i = 0; i < fast.size(); ++i) {
      fast_keys.insert(key(fast.cost_at(i)));
    }
    for (const PlanNode* p : reference.plans_) ref_keys.insert(key(p->cost));
    EXPECT_EQ(fast_keys, ref_keys);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndAlphas, ParetoSetCrossCheck,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 6, 8, 9),
                       ::testing::Values(1.0, 1.05, 1.5)),
    [](const ::testing::TestParamInfo<std::tuple<int, double>>& info) {
      return "dims" + std::to_string(std::get<0>(info.param)) + "_alpha" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
    });

#if MOQO_DOMINANCE_AVX512
// Both row tests of the AVX-512F kernel; only called where
// Avx512Available().
MOQO_TARGET_AVX512 bool Avx512Below(const double* a, const double* b,
                                    int dims) {
  return Avx512Row(b, dims).Below(a);
}
MOQO_TARGET_AVX512 bool Avx512Above(const double* a, const double* b,
                                    int dims) {
  return Avx512Row(a, dims).Above(b);
}
#endif

// Both dominance kernels must agree with the scalar reference on every
// input the scans feed them, in both directions a scan uses (row against
// a fixed threshold, fixed new row against a row): random finite rows of
// every active dimension count, equal rows, and the +/-inf block-summary
// sentinels. The AVX-512F kernel is checked wherever the CPU reports
// avx512f, whichever body calls pick by default.
TEST(DominanceKernelTest, DispatchAgreesWithScalar) {
  Xoshiro256 rng(99);
  const double inf = std::numeric_limits<double>::infinity();
  for (int dims = 1; dims <= kNumObjectives; ++dims) {
    for (int i = 0; i < 2000; ++i) {
      double a[kNumObjectives], b[kNumObjectives];
      for (int d = 0; d < dims; ++d) {
        // Coarse grid: ties (the a[d] == b[d] boundary) are common.
        a[d] = static_cast<double>(rng.NextInt(uint64_t{6}));
        b[d] = static_cast<double>(rng.NextInt(uint64_t{6}));
        if (rng.NextInt(uint64_t{10}) == 0) a[d] = inf;   // Dead-block min.
        if (rng.NextInt(uint64_t{10}) == 0) b[d] = -inf;  // Dead-block max.
      }
      const bool scalar = RowLeqScalar(a, b, dims);
      ASSERT_EQ(ScalarRow(b, dims).Below(a), scalar) << "dims " << dims;
      ASSERT_EQ(ScalarRow(a, dims).Above(b), scalar) << "dims " << dims;
#if MOQO_DOMINANCE_AVX512
      if (Avx512Available()) {
        ASSERT_EQ(Avx512Below(a, b, dims), scalar) << "dims " << dims;
        ASSERT_EQ(Avx512Above(a, b, dims), scalar) << "dims " << dims;
      }
#endif
    }
  }
}

TEST(ParetoSetTest, LoadSealedReproducesSealedState) {
  Arena arena;
  ParetoSet built;
  std::vector<const PlanNode*> survivors;
  Xoshiro256 rng(7);
  for (int i = 0; i < 200; ++i) {
    PlanNode* plan = arena.New<PlanNode>();
    plan->cost = testing::RandomCostVector(&rng, 3);
    built.Prune(plan, ParetoSet::PruneOptions{1.1, false});
  }
  built.Seal();
  for (int i = 0; i < built.size(); ++i) survivors.push_back(built.at(i));

  ParetoSet loaded;
  loaded.LoadSealed(survivors);
  ASSERT_EQ(loaded.size(), built.size());
  for (int i = 0; i < built.size(); ++i) {
    EXPECT_EQ(loaded.at(i), built.at(i));
    EXPECT_EQ(loaded.cost_at(i), built.cost_at(i));
  }
  EXPECT_EQ(loaded.Frontier(), built.Frontier());
}

}  // namespace
}  // namespace moqo
