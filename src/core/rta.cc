#include "core/rta.h"

namespace moqo {

OptimizerResult RTAOptimizer::Optimize(const MOQOProblem& problem) {
  StopWatch watch;
  arena_.Reset();
  CostModel model(problem.query, &registry_, problem.objectives);
  DPPlanGenerator generator(&model, &registry_, &arena_);

  // Algorithm 2: derive the internal pruning precision from the user
  // precision alpha_U.
  DPOptions dp = MakeDPOptions(
      problem,
      RTAInternalPrecision(options_.alpha, problem.query->num_tables()),
      MakeDeadline());
  const ParetoSet& pareto = generator.Run(*problem.query, dp);

  // Bounds are honored at selection time over the finished frontier — the
  // same bounded SelectBest the service applies on frontier hits, so cold
  // misses and cache hits agree. Mis-sized bounds mean "unbounded".
  const BoundVector select_bounds =
      problem.bounds.size() == problem.objectives.size() ? problem.bounds
                                                         : BoundVector();
  return FinishResult(problem, generator, pareto, select_bounds,
                      watch.ElapsedMillis());
}

}  // namespace moqo
