// Copyright (c) 2026 moqo authors. MIT license.
//
// PlanSet: snapshot semantics (ownership, DAG sharing) and the SelectPlan
// scalarization, cross-checked against ParetoSet::SelectBest.

#include "core/plan_set.h"

#include <memory>

#include <gtest/gtest.h>

#include "core/exa.h"
#include "testing/test_helpers.h"

namespace moqo {
namespace {

/// Builds a tiny 2-D frontier of synthetic scan plans with the given cost
/// vectors inside `arena`.
ParetoSet BuildSet(Arena* arena,
                   const std::vector<std::pair<double, double>>& costs) {
  ParetoSet set;
  int table = 0;
  for (const auto& [a, b] : costs) {
    PlanNode* plan = arena->New<PlanNode>();
    plan->table = table++;
    plan->cost = CostVector(2);
    plan->cost[0] = a;
    plan->cost[1] = b;
    set.Prune(plan);
  }
  set.Seal();
  return set;
}

TEST(PlanSetTest, SnapshotsCostsAndPlans) {
  Arena arena;
  ParetoSet source = BuildSet(&arena, {{1, 4}, {2, 2}, {4, 1}});
  std::shared_ptr<const PlanSet> set = PlanSet::FromParetoSet(source);
  ASSERT_EQ(set->size(), 3);
  EXPECT_FALSE(set->empty());
  for (int i = 0; i < set->size(); ++i) {
    ASSERT_NE(set->plan(i), nullptr);
    EXPECT_EQ(set->plan(i)->cost, set->cost(i));
    EXPECT_EQ(set->cost(i), source.cost_at(i));
  }
  EXPECT_EQ(set->costs(), source.Frontier());
}

TEST(PlanSetTest, OutlivesSourceArena) {
  std::shared_ptr<const PlanSet> set;
  {
    Arena arena;
    ParetoSet source = BuildSet(&arena, {{1, 2}, {2, 1}});
    set = PlanSet::FromParetoSet(source);
  }  // Source arena and set destroyed; the snapshot owns its plans.
  ASSERT_EQ(set->size(), 2);
  EXPECT_EQ(set->plan(0)->cost[0], 1.0);
  EXPECT_EQ(set->plan(1)->cost[1], 1.0);
}

TEST(PlanSetTest, EmptySetSharedSingleton) {
  ParetoSet empty;
  std::shared_ptr<const PlanSet> a = PlanSet::FromParetoSet(empty);
  std::shared_ptr<const PlanSet> b = PlanSet::Empty();
  EXPECT_EQ(a.get(), b.get());
  EXPECT_TRUE(a->empty());
  const PlanSelection selection =
      SelectPlan(*a, WeightVector::Uniform(2));
  EXPECT_EQ(selection.plan, nullptr);
  EXPECT_EQ(selection.index, -1);
}

TEST(PlanSetTest, DeepCopyPreservesDagSharing) {
  // Two frontier plans joining the same sub-plan: the copy must reference
  // one shared copy of the sub-plan, not two clones.
  Arena arena;
  PlanNode* shared_scan = arena.New<PlanNode>();
  shared_scan->table = 0;
  shared_scan->cost = CostVector(2);

  ParetoSet source;
  for (int i = 0; i < 2; ++i) {
    PlanNode* other = arena.New<PlanNode>();
    other->table = 1 + i;
    other->cost = CostVector(2);
    PlanNode* join = arena.New<PlanNode>();
    join->left = shared_scan;
    join->right = other;
    join->cost = CostVector(2);
    join->cost[0] = i == 0 ? 1 : 3;
    join->cost[1] = i == 0 ? 3 : 1;
    source.Prune(join);
  }
  source.Seal();
  ASSERT_EQ(source.size(), 2);

  std::shared_ptr<const PlanSet> set = PlanSet::FromParetoSet(source);
  ASSERT_EQ(set->size(), 2);
  EXPECT_NE(set->plan(0), source.at(0));  // Actually copied...
  EXPECT_EQ(set->plan(0)->left, set->plan(1)->left);  // ...sharing intact.
}

TEST(PlanSetTest, SelectPlanMatchesParetoSetSelectBest) {
  Catalog catalog = testing::MakeTinyCatalog();
  Query query = testing::MakeStarQuery(&catalog, 3);
  MOQOProblem problem;
  problem.query = &query;
  problem.objectives = ObjectiveSet(
      {Objective::kTotalTime, Objective::kBufferFootprint,
       Objective::kTupleLoss});
  problem.weights = WeightVector::Uniform(3);
  OptimizerResult result =
      ExactMOQO(testing::SmallOptions()).Optimize(problem);
  ASSERT_GE(result.frontier_size(), 1);

  Xoshiro256 rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    WeightVector weights(3);
    for (int i = 0; i < 3; ++i) weights[i] = rng.NextDouble();
    BoundVector bounds = BoundVector::Unbounded(3);
    if (trial % 2 == 1) {
      // Bound one dimension at a random frontier plan's cost.
      const int anchor = static_cast<int>(
          rng.NextInt(static_cast<uint64_t>(result.frontier_size())));
      bounds[trial % 3] = result.plan_set->cost(anchor)[trial % 3];
    }
    const PlanSelection selection =
        SelectPlan(*result.plan_set, weights, bounds);
    ASSERT_NE(selection.plan, nullptr);
    // Reference: brute-force over the same frontier with SelectBest
    // semantics (bounded min weighted cost, else global min).
    double best_bounded = -1, best_any = -1;
    for (int i = 0; i < result.plan_set->size(); ++i) {
      const double weighted =
          weights.WeightedCost(result.plan_set->cost(i));
      if (best_any < 0 || weighted < best_any) best_any = weighted;
      if (bounds.Respects(result.plan_set->cost(i)) &&
          (best_bounded < 0 || weighted < best_bounded)) {
        best_bounded = weighted;
      }
    }
    const double expected = best_bounded >= 0 ? best_bounded : best_any;
    EXPECT_DOUBLE_EQ(selection.weighted_cost, expected) << "trial " << trial;
    EXPECT_EQ(selection.weighted_cost,
              weights.WeightedCost(selection.cost));
    EXPECT_EQ(selection.plan, result.plan_set->plan(selection.index));
  }
}

TEST(PlanSetTest, SelectPlanEmptyBoundsEqualsUnbounded) {
  Arena arena;
  ParetoSet source = BuildSet(&arena, {{1, 9}, {9, 1}});
  std::shared_ptr<const PlanSet> set = PlanSet::FromParetoSet(source);
  WeightVector weights(2);
  weights[0] = 1.0;
  weights[1] = 0.1;
  const PlanSelection no_bounds = SelectPlan(*set, weights);
  const PlanSelection unbounded =
      SelectPlan(*set, weights, BoundVector::Unbounded(2));
  EXPECT_EQ(no_bounds.plan, unbounded.plan);
  EXPECT_EQ(no_bounds.weighted_cost, unbounded.weighted_cost);
}

}  // namespace
}  // namespace moqo
