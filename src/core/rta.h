// Copyright (c) 2026 moqo authors. MIT license.
//
// RTAOptimizer: the Representative-Tradeoffs Algorithm (Section 6,
// Algorithm 2) — an approximation scheme for *weighted* MOQO.
//
// The RTA generates an alpha_U-approximate Pareto set using approximate-
// dominance pruning with internal precision alpha_i = |Q|-th root of
// alpha_U; by Theorem 3 / Corollary 1 the selected plan's weighted cost is
// within factor alpha_U of the optimum for any weights. Algorithm 2 calls
// SelectBest with infinite bounds; this one applies the problem's bounds
// when it selects from the finished frontier, as a cache hit does, but
// without a guarantee for them — use the IRA for bounded-weighted MOQO.

#ifndef MOQO_CORE_RTA_H_
#define MOQO_CORE_RTA_H_

#include "core/optimizer.h"

namespace moqo {

/// Approximation scheme for weighted MOQO (Definition 4).
class RTAOptimizer : public OptimizerBase {
 public:
  explicit RTAOptimizer(const OptimizerOptions& options)
      : OptimizerBase(options) {}

  OptimizerResult Optimize(const MOQOProblem& problem) override;
};

}  // namespace moqo

#endif  // MOQO_CORE_RTA_H_
