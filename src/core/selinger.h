// Copyright (c) 2026 moqo authors. MIT license.
//
// Single-objective baselines.
//
// SelingerOptimizer: classic single-objective dynamic programming
// (Selinger et al. 1979, generalized to bushy plans per Vance & Maier).
// With one cost dimension, multi-objective dominance degenerates to a total
// order and every memo entry keeps exactly one plan — this is the
// "1 objective" configuration of Figure 5 and the "Selinger" curve of
// Figure 7. Also provides the per-objective minima the Section-8 workload
// generator needs to draw bounds ("multiplying the minimal possible value
// for the given objective and query by a factor from [1,2]").
//
// WeightedSumOptimizer: prunes by the *weighted sum* of multiple
// objectives — the single-objective principle of optimality does NOT hold
// for this metric (Example 1), so this is a heuristic without guarantees;
// it serves as an ablation baseline quantifying how suboptimal naive
// scalarization gets.

#ifndef MOQO_CORE_SELINGER_H_
#define MOQO_CORE_SELINGER_H_

#include "core/optimizer.h"

namespace moqo {

/// Exact single-objective optimizer (the problem.objectives selection must
/// contain exactly one objective). The one weight scales the reported
/// weighted cost, as a cache hit's reselection does; it cannot change the
/// plan.
class SelingerOptimizer : public OptimizerBase {
 public:
  explicit SelingerOptimizer(const OptimizerOptions& options)
      : OptimizerBase(options) {}

  OptimizerResult Optimize(const MOQOProblem& problem) override;

  /// Minimal achievable cost for `objective` on `query` given the options.
  /// Used by the workload generator to scale bounds.
  static double MinimumCost(const Query& query, Objective objective,
                            const OptimizerOptions& options);
};

/// Scalarization heuristic: Selinger-style DP pruning on C_W. No
/// near-optimality guarantee (kept as an ablation baseline).
class WeightedSumOptimizer : public OptimizerBase {
 public:
  explicit WeightedSumOptimizer(const OptimizerOptions& options)
      : OptimizerBase(options) {}

  OptimizerResult Optimize(const MOQOProblem& problem) override;
};

}  // namespace moqo

#endif  // MOQO_CORE_SELINGER_H_
