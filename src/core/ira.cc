#include "core/ira.h"

#include <cmath>

namespace moqo {

bool IRAOptimizer::StoppingConditionMet(const ParetoSet& set,
                                        const WeightVector& weights,
                                        const BoundVector& bounds,
                                        const PlanNode* popt, double alpha,
                                        double alpha_u) {
  if (popt == nullptr) return true;

  // Guard strengthening Algorithm 3 (see DESIGN.md "paper-gap note"): when
  // popt violates the bounds, it is the *global* weighted minimum of P, so
  // the deflation test below is vacuously satisfied — the literal
  // pseudo-code would terminate and return a bound-violating plan even
  // when bound-respecting plans exist (relative cost infinity under
  // Definition 3). Theorem 6's proof implicitly assumes popt respects B
  // whenever the optimum does; we therefore only accept a violating popt
  // once NO plan respects even the relaxed bounds alpha*B — which
  // certifies that no plan at all respects B (any B-respecting plan p* has
  // an alpha-representative within alpha*B). Theorem 8's argument still
  // guarantees termination: below some alpha > 1, "respects alpha*B"
  // coincides with "respects B".
  if (!bounds.Respects(popt->cost)) {
    for (const PlanNode* p : set.plans()) {
      if (bounds.RespectsRelaxed(p->cost, alpha)) return false;
    }
    return true;
  }

  const double popt_threshold = weights.WeightedCost(popt->cost) / alpha_u;
  for (const PlanNode* p : set.plans()) {
    // A plan respecting the *relaxed* bounds alpha*B whose deflated
    // weighted cost undercuts popt's certified cost disproves optimality.
    if (bounds.RespectsRelaxed(p->cost, alpha) &&
        weights.WeightedCost(p->cost) / alpha < popt_threshold) {
      return false;
    }
  }
  return true;
}

OptimizerResult IRAOptimizer::Optimize(const MOQOProblem& problem) {
  StopWatch watch;
  const int l = problem.objectives.size();
  const int n = problem.query->num_tables();
  WeightVector weights = problem.weights;
  BoundVector bounds = problem.bounds;
  ResolvePreference(l, &weights, &bounds);
  const Deadline deadline = MakeDeadline();

  CostModel model(problem.query, &registry_, problem.objectives);
  OptimizerResult result;
  int iteration = 0;
  while (true) {
    ++iteration;
    const double alpha = iteration >= kIraMaxIterations
                             ? 1.0  // Safety net: exact final iteration.
                             : IRAIterationPrecision(options_.alpha,
                                                     iteration, l);

    // Memory is reused across iterations (Section 7.2, footnote 5): each
    // iteration starts from a fresh arena and memo.
    arena_.Reset();
    DPPlanGenerator generator(&model, &registry_, &arena_);
    // FindParetoPlans(Q, alpha): the DP prunes with the |Q|-th root.
    DPOptions dp =
        MakeDPOptions(problem, RTAInternalPrecision(alpha, n), deadline);
    const ParetoSet& pareto = generator.Run(*problem.query, dp);
    const PlanNode* popt = pareto.SelectBest(weights, bounds);

    // Converged: the alpha_U guarantee of Theorem 6 holds (the exact
    // alpha <= 1 iteration trivially satisfies it).
    const bool converged =
        StoppingConditionMet(pareto, weights, bounds, popt, alpha,
                             options_.alpha) ||
        alpha <= 1.0;
    const bool out_of_time =
        generator.stats().timed_out || deadline.Expired();

    // No kIraMaxIterations disjunct needed: at that iteration alpha is
    // forced to 1.0 above, which makes `converged` true.
    if (converged || out_of_time) {
      // FinishResult's SelectPlan runs SelectBest's scan over the PlanSet
      // copy under the same resolved preference, so it returns popt.
      result = FinishResult(problem, generator, pareto,
                            watch.ElapsedMillis());
      result.metrics.iterations = iteration;
      // A deadline exit between iterations truncates refinement without
      // the DP itself timing out; the result then carries no alpha_U
      // guarantee and must be reported (and treated by caches) as
      // timed out.
      if (!converged && out_of_time) result.metrics.timed_out = true;
      return result;
    }
  }
}

}  // namespace moqo
