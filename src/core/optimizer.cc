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
  respects_bounds = bounds.Respects(cost);
}

void ResolvePreference(int dims, WeightVector* weights, BoundVector* bounds) {
  if (weights->size() != dims) *weights = WeightVector::Uniform(dims);
  if (bounds->size() != dims) *bounds = BoundVector();
}

OptimizerResult OptimizerBase::RunOnce(const MOQOProblem& problem,
                                       double internal_alpha,
                                       bool single_plan) {
  StopWatch watch;
  arena_.Reset();
  CostModel model(problem.query, &registry_, problem.objectives);
  DPPlanGenerator generator(&model, &registry_, &arena_);
  DPOptions dp = MakeDPOptions(problem, internal_alpha, MakeDeadline());
  dp.single_plan_mode = single_plan;
  const ParetoSet& pareto = generator.Run(*problem.query, dp);
  return FinishResult(problem, generator, pareto, watch.ElapsedMillis());
}

OptimizerResult OptimizerBase::FinishResult(const MOQOProblem& problem,
                                            const DPPlanGenerator& generator,
                                            const ParetoSet& final_set,
                                            double elapsed_ms) const {
  WeightVector weights = problem.weights;
  BoundVector bounds = problem.bounds;
  ResolvePreference(problem.objectives.size(), &weights, &bounds);
  OptimizerResult result;
  result.plan_set = PlanSet::FromParetoSet(final_set);
  result.Select(weights, bounds);
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
