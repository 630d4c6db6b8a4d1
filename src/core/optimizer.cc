#include "core/optimizer.h"

#include <cmath>

namespace moqo {

const std::vector<CostVector>& OptimizerResult::frontier() const {
  static const std::vector<CostVector> kEmpty;
  return plan_set ? plan_set->costs() : kEmpty;
}

void OptimizerResult::Select(const WeightVector& weights,
                             const BoundVector& bounds) {
  const PlanSelection selection = SelectPlan(*plan_set, weights, bounds);
  if (selection.plan == nullptr) return;
  plan = selection.plan;
  cost = selection.cost;
  weighted_cost = selection.weighted_cost;
  respects_bounds = bounds.size() == 0 || bounds.Respects(cost);
}

OptimizerResult OptimizerBase::FinishResult(const MOQOProblem& problem,
                                            const DPPlanGenerator& generator,
                                            const ParetoSet& final_set,
                                            const BoundVector& select_bounds,
                                            double elapsed_ms) const {
  OptimizerResult result;
  result.plan_set = PlanSet::FromParetoSet(final_set);
  result.Select(problem.weights, select_bounds);
  // Feasibility is judged against the problem's bounds, whatever bounds
  // the selection ran under.
  if (result.plan != nullptr) {
    result.respects_bounds = problem.bounds.size() == 0 ||
                             problem.bounds.Respects(result.cost);
  }
  result.metrics.optimization_ms = elapsed_ms;
  result.metrics.memory_bytes =
      generator.MemoryBytes() + result.plan_set->MemoryBytes();
  result.metrics.timed_out = generator.stats().timed_out;
  result.metrics.considered_plans = generator.stats().considered_plans;
  result.metrics.last_complete_pareto_count =
      generator.stats().last_complete_pareto_count;
  return result;
}

double RTAInternalPrecision(double alpha_u, int num_tables) {
  if (num_tables <= 1) return alpha_u;
  return std::pow(alpha_u, 1.0 / num_tables);
}

double IRAIterationPrecision(double alpha_u, int iteration,
                             int num_objectives) {
  const double denom =
      num_objectives >= 2 ? 3.0 * num_objectives - 3.0 : 1.0;
  const double exponent = std::pow(2.0, -static_cast<double>(iteration) / denom);
  return std::pow(alpha_u, exponent);
}

}  // namespace moqo
