// Tests for the Section-8 workload generator and the experiment runner.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>

#include "harness/experiment.h"
#include "harness/table_printer.h"
#include "harness/workload.h"

namespace moqo {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  WorkloadTest() : catalog_(Catalog::TpcH(0.01)) {
    options_.timeout_ms = 2000;
    options_.operators.sampling_rates = {0.05};
    options_.operators.dops = {1, 2};
  }

  Catalog catalog_;
  OptimizerOptions options_;
};

TEST_F(WorkloadTest, WeightedCaseShape) {
  WorkloadGenerator generator(&catalog_, options_);
  const TestCase tc = generator.WeightedCase(5, 6, 42);
  EXPECT_EQ(tc.query_number, 5);
  EXPECT_EQ(tc.objectives.size(), 6);
  // Objectives are distinct.
  std::set<Objective> unique(tc.objectives.begin(), tc.objectives.end());
  EXPECT_EQ(unique.size(), 6u);
  // Weights in [0, 1].
  for (int i = 0; i < 6; ++i) {
    EXPECT_GE(tc.weights[i], 0.0);
    EXPECT_LE(tc.weights[i], 1.0);
  }
  EXPECT_TRUE(tc.bounds.AllUnbounded());
}

TEST_F(WorkloadTest, WeightedCaseDeterministicPerSeed) {
  WorkloadGenerator generator(&catalog_, options_);
  const TestCase a = generator.WeightedCase(3, 3, 7);
  const TestCase b = generator.WeightedCase(3, 3, 7);
  EXPECT_EQ(a.objectives, b.objectives);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(a.weights[i], b.weights[i]);
  const TestCase c = generator.WeightedCase(3, 3, 8);
  const bool same_weights = a.weights[0] == c.weights[0] &&
                            a.weights[1] == c.weights[1];
  EXPECT_FALSE(same_weights && a.objectives == c.objectives);
}

TEST_F(WorkloadTest, BoundedCaseUsesAllNineObjectives) {
  WorkloadGenerator generator(&catalog_, options_);
  const TestCase tc = generator.BoundedCase(3, 6, 11);
  EXPECT_EQ(tc.objectives.size(), kNumObjectives);
  EXPECT_EQ(tc.bounds.NumFinite(), 6);
}

TEST_F(WorkloadTest, BoundsScaleFromObjectiveMinima) {
  WorkloadGenerator generator(&catalog_, options_);
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const TestCase tc = generator.BoundedCase(3, 9, seed);
    for (int i = 0; i < tc.objectives.size(); ++i) {
      if (tc.bounds.IsUnbounded(i)) continue;
      const Objective objective = tc.objectives.at(i);
      if (GetObjectiveInfo(objective).bounded_domain) {
        EXPECT_GE(tc.bounds[i], 0.0);
        EXPECT_LE(tc.bounds[i], 1.0);
      } else {
        const double minimum = generator.ObjectiveMinimum(3, objective);
        // Bound = minimum * U[1,2].
        EXPECT_GE(tc.bounds[i], minimum - 1e-9);
        EXPECT_LE(tc.bounds[i], 2 * minimum + 1e-9);
      }
    }
  }
}

TEST_F(WorkloadTest, ObjectiveMinimumIsCachedAndPositive) {
  WorkloadGenerator generator(&catalog_, options_);
  const double a = generator.ObjectiveMinimum(3, Objective::kTotalTime);
  const double b = generator.ObjectiveMinimum(3, Objective::kTotalTime);
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 0);
  // Tuple loss minimum is 0 (full scans everywhere).
  EXPECT_DOUBLE_EQ(generator.ObjectiveMinimum(3, Objective::kTupleLoss), 0);
}

TEST_F(WorkloadTest, RunCaseProducesOutcomeForEveryAlgorithm) {
  WorkloadGenerator generator(&catalog_, options_);
  const TestCase tc = generator.WeightedCase(12, 3, 5);
  for (AlgorithmKind kind : {AlgorithmKind::kExa, AlgorithmKind::kRta,
                             AlgorithmKind::kIra,
                             AlgorithmKind::kWeightedSum}) {
    OptimizerOptions options = options_;
    options.alpha = 1.5;
    const RunOutcome outcome = RunCase(kind, catalog_, tc, options);
    EXPECT_TRUE(outcome.has_plan) << AlgorithmName(kind);
    EXPECT_GT(outcome.weighted_cost, 0) << AlgorithmName(kind);
    EXPECT_GT(outcome.metrics.optimization_ms, 0) << AlgorithmName(kind);
  }
}

TEST_F(WorkloadTest, AggregateComputesMeansAndPercentages) {
  RunOutcome fast;
  fast.weighted_cost = 10;
  fast.has_plan = true;
  fast.metrics.optimization_ms = 100;
  fast.metrics.memory_bytes = 1024 * 10;
  fast.metrics.last_complete_pareto_count = 4;
  RunOutcome slow = fast;
  slow.weighted_cost = 20;
  slow.metrics.optimization_ms = 300;
  slow.metrics.timed_out = true;

  const std::vector<RunOutcome> outcomes = {fast, slow};
  const std::vector<double> best = {10, 10};
  const CellStats stats = Aggregate(outcomes, best);
  EXPECT_EQ(stats.cases, 2);
  EXPECT_DOUBLE_EQ(stats.timeout_pct, 50);
  EXPECT_DOUBLE_EQ(stats.mean_time_ms, 200);
  EXPECT_DOUBLE_EQ(stats.mean_memory_kb, 10);
  EXPECT_DOUBLE_EQ(stats.mean_pareto_plans, 4);
  EXPECT_DOUBLE_EQ(stats.mean_weighted_cost_pct, (100 + 200) / 2.0);
}

TEST_F(WorkloadTest, BestWeightedPrefersBoundRespectingPlans) {
  RunOutcome violator;
  violator.weighted_cost = 1;  // Cheapest but violates bounds.
  violator.has_plan = true;
  violator.respects_bounds = false;
  RunOutcome respecter = violator;
  respecter.weighted_cost = 5;
  respecter.respects_bounds = true;
  const std::vector<std::vector<RunOutcome>> matrix = {{violator},
                                                       {respecter}};
  const auto best = BestWeightedPerCase(matrix);
  ASSERT_EQ(best.size(), 1u);
  EXPECT_DOUBLE_EQ(best[0], 5);  // The bound-respecting plan is reference.
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter printer({"algo", "time"});
  printer.AddRow({"EXA", "123456.78"});
  printer.AddRow({"RTA(1.15)", "1.00"});
  const std::string table = printer.Render();
  EXPECT_NE(table.find("algo"), std::string::npos);
  EXPECT_NE(table.find("-----"), std::string::npos);
  EXPECT_NE(table.find("RTA(1.15)"), std::string::npos);
  // All lines equal length apart from trailing spaces.
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatSci(12345.0), "1.23e+04");
}

TEST(EnvTest, DefaultsWhenUnset) {
  EXPECT_EQ(EnvInt("MOQO_SURELY_UNSET_VAR", 7), 7);
  EXPECT_DOUBLE_EQ(EnvDouble("MOQO_SURELY_UNSET_VAR", 2.5), 2.5);
}

TEST(EnvTest, ParsesWholeValues) {
  ::setenv("MOQO_TEST_ENV_VALUE", "-12", 1);
  EXPECT_EQ(EnvInt("MOQO_TEST_ENV_VALUE", 7), -12);
  ::setenv("MOQO_TEST_ENV_VALUE", "0.25", 1);
  EXPECT_DOUBLE_EQ(EnvDouble("MOQO_TEST_ENV_VALUE", 2.5), 0.25);
  ::unsetenv("MOQO_TEST_ENV_VALUE");
}

TEST(EnvTest, MalformedValuesExitWithStatusTwo) {
  // Each used to parse as 0 (or a prefix) and run a silently wrong
  // workload; now the variable and its value are reported instead.
  for (const char* value : {"abc", "", "12abc", "99999999999"}) {
    ::setenv("MOQO_TEST_ENV_VALUE", value, 1);
    EXPECT_EXIT(EnvInt("MOQO_TEST_ENV_VALUE", 7),
                ::testing::ExitedWithCode(2), "MOQO_TEST_ENV_VALUE")
        << value;
  }
  for (const char* value : {"abc", "", "0.5x", "1e999"}) {
    ::setenv("MOQO_TEST_ENV_VALUE", value, 1);
    EXPECT_EXIT(EnvDouble("MOQO_TEST_ENV_VALUE", 2.5),
                ::testing::ExitedWithCode(2), "MOQO_TEST_ENV_VALUE")
        << value;
  }
  ::unsetenv("MOQO_TEST_ENV_VALUE");
}

}  // namespace
}  // namespace moqo
