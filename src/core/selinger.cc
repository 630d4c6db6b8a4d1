#include "core/selinger.h"

#include <cassert>

namespace moqo {

OptimizerResult SelingerOptimizer::Optimize(const MOQOProblem& problem) {
  assert(problem.objectives.size() == 1 &&
         "SelingerOptimizer is single-objective");
  // One dimension: exact dominance pruning keeps exactly one plan per set.
  return RunOnce(problem, /*internal_alpha=*/1.0);
}

double SelingerOptimizer::MinimumCost(const Query& query, Objective objective,
                                      const OptimizerOptions& options) {
  SelingerOptimizer optimizer(options);
  MOQOProblem problem;
  problem.query = &query;
  problem.objectives = ObjectiveSet::Only(objective);
  OptimizerResult result = optimizer.Optimize(problem);
  return result.plan != nullptr ? result.cost[0] : 0.0;
}

OptimizerResult WeightedSumOptimizer::Optimize(const MOQOProblem& problem) {
  // Prune every table set down to argmin C_W.
  return RunOnce(problem, /*internal_alpha=*/1.0, /*single_plan=*/true);
}

}  // namespace moqo
