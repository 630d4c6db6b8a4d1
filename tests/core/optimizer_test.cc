// End-to-end optimizer tests: EXA optimality, the RTA approximation
// guarantee (Corollary 1) and approximate-Pareto-set property (Theorem 3),
// IRA guarantees for bounded MOQO (Theorem 6) and termination (Theorem 8),
// Selinger baselines, and timeout behaviour.

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "core/algorithm.h"
#include "core/exa.h"
#include "core/ira.h"
#include "core/rta.h"
#include "core/selinger.h"
#include "frontier/frontier.h"
#include "testing/test_helpers.h"

namespace moqo {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest() : catalog_(testing::MakeTinyCatalog()) {}

  MOQOProblem MakeProblem(const Query* query, int num_objectives,
                          uint64_t seed) {
    MOQOProblem problem;
    problem.query = query;
    std::vector<Objective> objectives;
    Xoshiro256 rng(seed);
    for (int idx :
         rng.SampleWithoutReplacement(kNumObjectives, num_objectives)) {
      objectives.push_back(kAllObjectives[idx]);
    }
    problem.objectives = ObjectiveSet(objectives);
    problem.weights = WeightVector(num_objectives);
    for (int i = 0; i < num_objectives; ++i) {
      problem.weights[i] = rng.NextDouble();
    }
    problem.bounds = BoundVector::Unbounded(num_objectives);
    return problem;
  }

  Catalog catalog_;
};

TEST_F(OptimizerTest, ExaFindsPlanCoveringAllTables) {
  Query query = testing::MakeStarQuery(&catalog_, 3);
  MOQOProblem problem = MakeProblem(&query, 3, 1);
  ExactMOQO exa(testing::SmallOptions());
  OptimizerResult result = exa.Optimize(problem);
  ASSERT_NE(result.plan, nullptr);
  EXPECT_EQ(result.plan->tables, query.AllTables());
  EXPECT_TRUE(result.cost.IsValid());
  EXPECT_FALSE(result.metrics.timed_out);
  EXPECT_GT(result.metrics.considered_plans, 0);
  EXPECT_GE(result.frontier_size(), 1);
}

TEST_F(OptimizerTest, ExaParetoFrontierIsMutuallyNonDominated) {
  Query query = testing::MakeStarQuery(&catalog_, 2);
  MOQOProblem problem = MakeProblem(&query, 4, 2);
  ExactMOQO exa(testing::SmallOptions());
  OptimizerResult result = exa.Optimize(problem);
  for (size_t i = 0; i < result.frontier().size(); ++i) {
    for (size_t j = 0; j < result.frontier().size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(
          StrictlyDominates(result.frontier()[i], result.frontier()[j]));
    }
  }
}

TEST_F(OptimizerTest, SingleObjectiveKeepsOnePlanPerSet) {
  // With one dimension, dominance is a total order: the "Pareto set" of
  // the full table set has exactly one plan (Figure 5's l=1 behaviour).
  Query query = testing::MakeStarQuery(&catalog_, 2);
  MOQOProblem problem;
  problem.query = &query;
  problem.objectives = ObjectiveSet::Only(Objective::kTotalTime);
  problem.weights = WeightVector::Uniform(1);
  ExactMOQO exa(testing::SmallOptions());
  OptimizerResult result = exa.Optimize(problem);
  EXPECT_EQ(result.frontier_size(), 1);
}

// Corollary 1 sweep: RTA weighted cost <= alpha_U * EXA weighted cost, for
// every query size, alpha, and several random weight draws.
class RtaGuaranteeTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(RtaGuaranteeTest, WithinAlphaOfExactOptimum) {
  const int num_dims = std::get<0>(GetParam());
  const double alpha = std::get<1>(GetParam());
  Catalog catalog = testing::MakeTinyCatalog();
  Query query = testing::MakeStarQuery(&catalog, num_dims);

  for (uint64_t seed = 1; seed <= 5; ++seed) {
    MOQOProblem problem;
    problem.query = &query;
    Xoshiro256 rng(seed * 77);
    std::vector<Objective> objectives;
    for (int idx : rng.SampleWithoutReplacement(kNumObjectives, 4)) {
      objectives.push_back(kAllObjectives[idx]);
    }
    problem.objectives = ObjectiveSet(objectives);
    problem.weights = WeightVector(4);
    for (int i = 0; i < 4; ++i) problem.weights[i] = rng.NextDouble();

    ExactMOQO exa(testing::SmallOptions());
    OptimizerResult exact = exa.Optimize(problem);
    RTAOptimizer rta(testing::SmallOptions(alpha));
    OptimizerResult approx = rta.Optimize(problem);

    ASSERT_NE(exact.plan, nullptr);
    ASSERT_NE(approx.plan, nullptr);
    EXPECT_LE(approx.weighted_cost,
              exact.weighted_cost * alpha + 1e-9)
        << "seed " << seed << ": RTA " << approx.weighted_cost << " vs EXA "
        << exact.weighted_cost;
    // The RTA never stores more plans than the EXA for the final set.
    EXPECT_LE(approx.frontier_size(), exact.frontier_size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    QueriesAndAlphas, RtaGuaranteeTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(1.05, 1.15, 1.5, 2.0, 4.0)),
    [](const ::testing::TestParamInfo<std::tuple<int, double>>& info) {
      return "dims" + std::to_string(std::get<0>(info.param)) + "_alpha" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
    });

// Theorem 3: the RTA's final plan set is an alpha_U-approximate Pareto set
// — every EXA Pareto vector is approximately dominated by some RTA vector.
TEST_F(OptimizerTest, RtaFrontierAlphaCoversExactFrontier) {
  Query query = testing::MakeStarQuery(&catalog_, 2);
  for (double alpha : {1.1, 1.5, 2.0}) {
    MOQOProblem problem = MakeProblem(&query, 3, 11);
    ExactMOQO exa(testing::SmallOptions());
    OptimizerResult exact = exa.Optimize(problem);
    RTAOptimizer rta(testing::SmallOptions(alpha));
    OptimizerResult approx = rta.Optimize(problem);
    const auto uncovered =
        FindUncoveredVector(approx.frontier(), exact.frontier(), alpha + 1e-9);
    EXPECT_FALSE(uncovered.has_value())
        << "alpha=" << alpha << " uncovered " << uncovered->ToString();
  }
}

TEST_F(OptimizerTest, RtaInternalPrecisionIsNthRoot) {
  EXPECT_DOUBLE_EQ(RTAInternalPrecision(2.0, 1), 2.0);
  EXPECT_NEAR(RTAInternalPrecision(2.0, 4), std::pow(2.0, 0.25), 1e-12);
  EXPECT_NEAR(std::pow(RTAInternalPrecision(1.5, 7), 7), 1.5, 1e-9);
}

TEST_F(OptimizerTest, IraRefinementPolicyDecreasesTowardOne) {
  const double alpha_u = 2.0;
  const int l = 9;
  double previous = alpha_u + 1;
  for (int i = 1; i <= 200; ++i) {
    const double alpha = IRAIterationPrecision(alpha_u, i, l);
    EXPECT_LT(alpha, previous);   // Strictly monotonically decreasing.
    EXPECT_GE(alpha, 1.0);
    previous = alpha;
  }
  EXPECT_NEAR(previous, 1.0, 0.01);  // Converges to exactness.
  // Theorem 7 structure: the exponent halves every (3l-3) iterations, so
  // alpha(i + 3l-3) = sqrt-progression toward 1.
  const double a1 = IRAIterationPrecision(alpha_u, 1, l);
  const double a2 = IRAIterationPrecision(alpha_u, 1 + 3 * l - 3, l);
  EXPECT_NEAR(std::log(a2) / std::log(a1), 0.5, 1e-9);
}

TEST_F(OptimizerTest, IraRespectsSatisfiableBounds) {
  Query query = testing::MakeStarQuery(&catalog_, 2);
  MOQOProblem problem = MakeProblem(&query, 4, 21);

  // Derive satisfiable bounds from the exact Pareto frontier: relax a
  // mid-frontier plan's cost by 10%.
  ExactMOQO exa(testing::SmallOptions());
  OptimizerResult exact = exa.Optimize(problem);
  ASSERT_GE(exact.frontier().size(), 1u);
  const CostVector& anchor =
      exact.frontier()[exact.frontier().size() / 2];
  problem.bounds = BoundVector(4);
  for (int i = 0; i < 4; ++i) problem.bounds[i] = anchor[i] * 1.1;

  for (double alpha : {1.15, 1.5, 2.0}) {
    IRAOptimizer ira(testing::SmallOptions(alpha));
    OptimizerResult result = ira.Optimize(problem);
    ASSERT_NE(result.plan, nullptr) << "alpha " << alpha;
    EXPECT_TRUE(result.respects_bounds) << "alpha " << alpha;
    EXPECT_GE(result.metrics.iterations, 1);

    // Theorem 6: weighted cost within alpha_U of the bounded optimum.
    OptimizerResult exact_bounded =
        ExactMOQO(testing::SmallOptions()).Optimize(problem);
    ASSERT_TRUE(exact_bounded.respects_bounds);
    EXPECT_LE(result.weighted_cost,
              exact_bounded.weighted_cost * alpha + 1e-9)
        << "alpha " << alpha;
  }
}

TEST_F(OptimizerTest, IraFallsBackToWeightedWhenBoundsInfeasible) {
  Query query = testing::MakeStarQuery(&catalog_, 2);
  MOQOProblem problem = MakeProblem(&query, 3, 31);
  problem.bounds = BoundVector(3);
  for (int i = 0; i < 3; ++i) problem.bounds[i] = 1e-15;  // Unsatisfiable.

  IRAOptimizer ira(testing::SmallOptions(1.5));
  OptimizerResult result = ira.Optimize(problem);
  ASSERT_NE(result.plan, nullptr);
  EXPECT_FALSE(result.respects_bounds);
  // Definition 2: with empty P_B, optimal = weighted optimum over all plans.
  OptimizerResult exact = ExactMOQO(testing::SmallOptions()).Optimize(
      [&] {
        MOQOProblem weighted = problem;
        weighted.bounds = BoundVector::Unbounded(3);
        return weighted;
      }());
  EXPECT_LE(result.weighted_cost, exact.weighted_cost * 1.5 + 1e-9);
}

TEST_F(OptimizerTest, IraStoppingConditionExposed) {
  // A set where popt is clearly optimal: the stopping condition holds.
  Arena arena;
  ParetoSet set;
  PlanNode* good = arena.New<PlanNode>();
  good->cost = CostVector(2);
  good->cost[0] = 2.0;
  good->cost[1] = 0.5;  // Weighted cost 2.5.
  set.Prune(good);
  WeightVector w = WeightVector::Uniform(2);
  BoundVector unbounded = BoundVector::Unbounded(2);
  // Only candidate is popt itself: CW/alpha = 2.5/1.3 > 2.5/1.5 = CW/alphaU,
  // so nothing disproves near-optimality.
  EXPECT_TRUE(IRAOptimizer::StoppingConditionMet(set, w, unbounded, good,
                                                 /*alpha=*/1.3,
                                                 /*alpha_u=*/1.5));
  // Add a tempting plan (0.1, 1.3) and bound dimension 1 by 1.0:
  //   - it violates the strict bound (1.3 > 1.0) so popt stays `good`;
  //   - it respects the 1.6-relaxed bound (1.3 <= 1.6);
  //   - its deflated cost 1.4/1.6 undercuts 2.5/1.5.
  // The IRA must therefore keep iterating (condition fails).
  PlanNode* tempting = arena.New<PlanNode>();
  tempting->cost = CostVector(2);
  tempting->cost[0] = 0.1;
  tempting->cost[1] = 1.3;
  set.Prune(tempting);
  BoundVector bounds(2);
  bounds[1] = 1.0;
  const PlanNode* popt = set.SelectBest(w, bounds);
  ASSERT_EQ(popt, good);
  EXPECT_FALSE(IRAOptimizer::StoppingConditionMet(set, w, bounds, popt,
                                                  /*alpha=*/1.6,
                                                  /*alpha_u=*/1.5));
  // With a coarse relaxation that the tempting plan's bound violation
  // survives (alpha = 1.2: 1.3 > 1.2), the condition holds again.
  EXPECT_TRUE(IRAOptimizer::StoppingConditionMet(set, w, bounds, popt,
                                                 /*alpha=*/1.2,
                                                 /*alpha_u=*/1.5));
}

TEST_F(OptimizerTest, IraStoppingConditionRejectsViolatingPopt) {
  // Regression for the Algorithm-3 gap (see ira.cc): when popt violates
  // the bounds it is the global weighted minimum, and the deflation test
  // alone would terminate immediately — returning an infinitely-bad plan
  // (Definition 3) although a bound-respecting plan may merely be hiding
  // behind the approximation. The strengthened condition keeps iterating
  // while any plan respects the relaxed bounds.
  Arena arena;
  ParetoSet set;
  PlanNode* cheap_violator = arena.New<PlanNode>();
  cheap_violator->cost = CostVector(2);
  cheap_violator->cost[0] = 1.0;
  cheap_violator->cost[1] = 5.0;  // Violates bound 2.0 below.
  set.Prune(cheap_violator);
  PlanNode* near_feasible = arena.New<PlanNode>();
  near_feasible->cost = CostVector(2);
  near_feasible->cost[0] = 10.0;
  near_feasible->cost[1] = 2.2;  // Within 1.15-relaxed bound 2.3.
  set.Prune(near_feasible);

  WeightVector w = WeightVector::Uniform(2);
  BoundVector bounds(2);
  bounds[1] = 2.0;
  const PlanNode* popt = set.SelectBest(w, bounds);
  ASSERT_EQ(popt, cheap_violator);  // Nothing respects B: weighted best.
  // near_feasible respects 1.15*B -> must keep refining.
  EXPECT_FALSE(IRAOptimizer::StoppingConditionMet(set, w, bounds, popt,
                                                  /*alpha=*/1.15,
                                                  /*alpha_u=*/1.5));
  // At alpha = 1.05 nothing respects the relaxed bounds (2.2 > 2.1):
  // infeasibility is certified, terminating with the weighted optimum.
  EXPECT_TRUE(IRAOptimizer::StoppingConditionMet(set, w, bounds, popt,
                                                 /*alpha=*/1.05,
                                                 /*alpha_u=*/1.5));
}

TEST_F(OptimizerTest, IraPrefersFeasiblePlanOverCheaperViolator) {
  // End-to-end version of the regression: whenever the EXA can find a
  // bound-respecting plan, the IRA's answer must respect the bounds too.
  Query query = testing::MakeStarQuery(&catalog_, 2);
  Xoshiro256 rng(99);
  int feasible_cases = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    MOQOProblem problem = MakeProblem(&query, 4, seed * 7);
    // Tight-ish bounds around a random exact Pareto vector.
    OptimizerResult exact =
        ExactMOQO(testing::SmallOptions()).Optimize(problem);
    const CostVector& anchor =
        exact.frontier()[rng.NextInt(uint64_t{exact.frontier().size()})];
    problem.bounds = BoundVector(4);
    for (int i = 0; i < 4; ++i) problem.bounds[i] = anchor[i];
    OptimizerResult exact_bounded =
        ExactMOQO(testing::SmallOptions()).Optimize(problem);
    if (!exact_bounded.respects_bounds) continue;
    ++feasible_cases;
    OptimizerResult ira =
        IRAOptimizer(testing::SmallOptions(1.5)).Optimize(problem);
    EXPECT_TRUE(ira.respects_bounds) << "seed " << seed;
  }
  EXPECT_GT(feasible_cases, 0);
}

TEST_F(OptimizerTest, SelingerMatchesExaOnSingleObjective) {
  Query query = testing::MakeStarQuery(&catalog_, 2);
  for (Objective objective :
       {Objective::kTotalTime, Objective::kEnergy, Objective::kIOLoad}) {
    // The one weight cannot change the plan, but it scales the weighted
    // cost, as it does for the EXA and for a cache hit's reselection.
    for (double weight : {1.0, 2.0}) {
      MOQOProblem problem;
      problem.query = &query;
      problem.objectives = ObjectiveSet::Only(objective);
      problem.weights = WeightVector(1);
      problem.weights[0] = weight;
      SelingerOptimizer selinger(testing::SmallOptions());
      ExactMOQO exa(testing::SmallOptions());
      OptimizerResult a = selinger.Optimize(problem);
      OptimizerResult b = exa.Optimize(problem);
      ASSERT_NE(a.plan, nullptr);
      EXPECT_NEAR(a.cost[0], b.cost[0], 1e-9) << ObjectiveName(objective);
      EXPECT_NEAR(a.weighted_cost, b.weighted_cost, 1e-9)
          << ObjectiveName(objective) << " weight " << weight;
      EXPECT_EQ(a.weighted_cost, problem.weights.WeightedCost(a.cost));
    }
  }
}

TEST_F(OptimizerTest, EveryKindReadsAMisSizedPreferenceAsResolved) {
  // ResolvePreference: empty or mis-sized weights read as uniform and
  // mis-sized bounds as none, so each kind answers such a problem as it
  // answers the resolved one, bounds respected.
  Query query = testing::MakeStarQuery(&catalog_, 3);
  for (int k = 0; k < kNumAlgorithmKinds; ++k) {
    const AlgorithmKind kind = static_cast<AlgorithmKind>(k);
    const int dims = kind == AlgorithmKind::kSelinger ? 1 : 3;
    MOQOProblem resolved = MakeProblem(&query, dims, 71);
    resolved.weights = WeightVector::Uniform(dims);
    resolved.bounds = BoundVector();
    const OptimizerResult want =
        MakeOptimizer(kind, testing::SmallOptions(1.5))->Optimize(resolved);
    ASSERT_NE(want.plan, nullptr) << AlgorithmName(kind);

    BoundVector two_zero_bounds(2);
    two_zero_bounds[0] = 0;
    two_zero_bounds[1] = 0;
    WeightVector two_weights(2);
    two_weights[0] = 5;
    two_weights[1] = 7;
    const std::vector<std::pair<WeightVector, BoundVector>> preferences = {
        {resolved.weights, two_zero_bounds},
        {WeightVector(), two_zero_bounds},
        {two_weights, BoundVector()},
    };
    for (size_t i = 0; i < preferences.size(); ++i) {
      MOQOProblem problem = resolved;
      problem.weights = preferences[i].first;
      problem.bounds = preferences[i].second;
      const OptimizerResult got =
          MakeOptimizer(kind, testing::SmallOptions(1.5))->Optimize(problem);
      ASSERT_NE(got.plan, nullptr) << AlgorithmName(kind) << " " << i;
      EXPECT_EQ(got.cost, want.cost) << AlgorithmName(kind) << " " << i;
      EXPECT_EQ(got.weighted_cost, want.weighted_cost)
          << AlgorithmName(kind) << " " << i;
      EXPECT_TRUE(got.respects_bounds) << AlgorithmName(kind) << " " << i;
    }
  }
}

TEST_F(OptimizerTest, SelingerMinimumCostIsLowerBound) {
  Query query = testing::MakeStarQuery(&catalog_, 2);
  const double min_time = SelingerOptimizer::MinimumCost(
      query, Objective::kTotalTime, testing::SmallOptions());
  EXPECT_GT(min_time, 0);
  // Any EXA plan optimized for weighted multi-objective cost pays at least
  // the single-objective minimum on that objective.
  MOQOProblem problem;
  problem.query = &query;
  problem.objectives =
      ObjectiveSet({Objective::kTotalTime, Objective::kBufferFootprint});
  problem.weights = WeightVector::Uniform(2);
  OptimizerResult result = ExactMOQO(testing::SmallOptions()).Optimize(problem);
  EXPECT_GE(result.cost[0], min_time - 1e-9);
}

TEST_F(OptimizerTest, WeightedSumHeuristicCanBeSuboptimal) {
  // Example 1's message: scalarized pruning offers no guarantee. We only
  // assert it never *beats* the exact optimum and returns a valid plan.
  Query query = testing::MakeStarQuery(&catalog_, 3);
  int suboptimal = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    MOQOProblem problem = MakeProblem(&query, 5, seed * 13);
    OptimizerResult heuristic =
        WeightedSumOptimizer(testing::SmallOptions()).Optimize(problem);
    OptimizerResult exact =
        ExactMOQO(testing::SmallOptions()).Optimize(problem);
    ASSERT_NE(heuristic.plan, nullptr);
    EXPECT_GE(heuristic.weighted_cost, exact.weighted_cost - 1e-9);
    if (heuristic.weighted_cost > exact.weighted_cost * 1.0001) {
      ++suboptimal;
    }
  }
  // Not asserted: how often it fails. Record that the comparison ran.
  SUCCEED() << suboptimal << "/10 cases suboptimal";
}

TEST_F(OptimizerTest, TimeoutProducesPlanQuickly) {
  Query query = testing::MakeStarQuery(&catalog_, 3);
  MOQOProblem problem = MakeProblem(&query, 9, 41);
  problem.objectives = ObjectiveSet::All();
  problem.weights = WeightVector::Uniform(9);
  problem.bounds = BoundVector::Unbounded(9);
  OptimizerOptions options = testing::SmallOptions();
  options.timeout_ms = 0;  // Expires immediately: pure quick mode.
  ExactMOQO exa(options);
  StopWatch watch;
  OptimizerResult result = exa.Optimize(problem);
  ASSERT_NE(result.plan, nullptr);  // Still returns a complete plan.
  EXPECT_EQ(result.plan->tables, query.AllTables());
  EXPECT_TRUE(result.metrics.timed_out);
  EXPECT_LT(watch.ElapsedMillis(), 2000);
}

TEST_F(OptimizerTest, LeftDeepRestrictionProducesLeftDeepPlans) {
  Query query = testing::MakeStarQuery(&catalog_, 3);
  MOQOProblem problem = MakeProblem(&query, 3, 51);
  OptimizerOptions options = testing::SmallOptions();
  options.bushy = false;
  ExactMOQO exa(options);
  OptimizerResult result = exa.Optimize(problem);
  ASSERT_NE(result.plan, nullptr);
  EXPECT_TRUE(result.plan->IsLeftDeep());
}

TEST_F(OptimizerTest, SingleTableQueryOptimization) {
  Query query(&catalog_, "single");
  query.AddTable("fact");
  MOQOProblem problem = MakeProblem(&query, 3, 61);
  OptimizerResult result = ExactMOQO(testing::SmallOptions()).Optimize(problem);
  ASSERT_NE(result.plan, nullptr);
  EXPECT_TRUE(result.plan->IsScan());
}

}  // namespace
}  // namespace moqo
