// Copyright (c) 2026 moqo authors. MIT license.
//
// Experiment runner: executes algorithms on generated test cases and
// aggregates the five per-cell metrics of Figures 5, 9 and 10 (timeout
// percentage, mean optimization time, mean memory, mean #Pareto plans /
// #iterations, weighted cost as percentage of the per-case best).

#ifndef MOQO_HARNESS_EXPERIMENT_H_
#define MOQO_HARNESS_EXPERIMENT_H_

#include <string>
#include <vector>

#include "core/algorithm.h"
#include "harness/workload.h"

namespace moqo {

/// Plan-free record of one optimization run (plans die with the optimizer;
/// experiments only need costs and counters).
struct RunOutcome {
  double weighted_cost = 0;
  bool respects_bounds = true;
  bool has_plan = false;
  OptimizerMetrics metrics;
};

/// Runs `kind` on one test case; `catalog` must back the TPC-H queries.
RunOutcome RunCase(AlgorithmKind kind, const Catalog& catalog,
                   const TestCase& test_case,
                   const OptimizerOptions& options);

/// Aggregated metrics over the test cases of one figure cell.
struct CellStats {
  int cases = 0;
  double timeout_pct = 0;
  double mean_time_ms = 0;
  double mean_memory_kb = 0;
  double mean_pareto_plans = 0;
  double mean_iterations = 0;
  /// Mean weighted cost as percentage of the per-case best over all
  /// compared algorithms (>= 100).
  double mean_weighted_cost_pct = 0;
};

/// Aggregates outcomes; `best_weighted` holds the per-case reference cost
/// (minimum over all algorithms on the same test case, preferring
/// bound-respecting plans).
CellStats Aggregate(const std::vector<RunOutcome>& outcomes,
                    const std::vector<double>& best_weighted);

/// Per-case reference costs for a matrix outcomes[algorithm][case]:
/// minimum weighted cost over algorithms, restricted to bound-respecting
/// plans when at least one algorithm produced one.
std::vector<double> BestWeightedPerCase(
    const std::vector<std::vector<RunOutcome>>& outcomes_by_algorithm);

/// Reads integer/double configuration from the environment with defaults
/// (MOQO_CASES, MOQO_TIMEOUT_MS, ... — see DESIGN.md deviation ledger). A
/// set value that is not wholly a number in range (finite, for doubles)
/// prints the variable and its value and exits with status 2.
int EnvInt(const char* name, int default_value);
double EnvDouble(const char* name, double default_value);

}  // namespace moqo

#endif  // MOQO_HARNESS_EXPERIMENT_H_
