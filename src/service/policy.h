// Copyright (c) 2026 moqo authors. MIT license.
//
// AlgorithmPolicy: per-spec algorithm auto-selection.
//
// The paper's experiments (Sections 5-8) fix the trade-off the policy
// automates: the EXA is exact but its Pareto sets explode with query size
// and objective count (Figure 5); the RTA trades a bounded approximation
// factor alpha_U for orders-of-magnitude speedups (Figure 9). The policy
// routes by *problem spec* shape only — single-objective specs to the
// Selinger baseline, small weighted instances to the EXA, everything else
// to the RTA — and coarsens alpha under tight deadlines, where a looser
// precision keeps even large queries inside the budget (Figure 9 shows
// alpha >= 2 rarely times out).
//
// Preferences (weights and bounds) deliberately do NOT influence routing:
// the frontier a frontier-producing algorithm computes is
// preference-independent, so routing by spec keeps the cache key
// weight-free and lets any preference change resolve by SelectPlan over
// the cached PlanSet. Bounds are honored at selection time (the bounded
// variant of SelectBest, Algorithm 1); callers who want the IRA's
// strict-bounds iterative refinement (Algorithm 3) request it explicitly
// via ProblemSpec::algorithm — its cache entries are then
// preference-specific (see service/signature.h).

#ifndef MOQO_SERVICE_POLICY_H_
#define MOQO_SERVICE_POLICY_H_

#include <cstdint>

#include "core/optimizer.h"
#include "core/algorithm.h"

namespace moqo {

struct PolicyOptions {
  /// Cap on intra-query DP threads (the optimizing worker counts as one),
  /// given to every spec; the DP itself fans out only the levels with
  /// enough work (core/dp_driver.h). 0 = hardware concurrency, 1 =
  /// parallelism off. The frontier is identical for every value, so this
  /// never enters the cache key.
  int max_parallelism = 0;
};

/// The policy's resolved choice for one spec.
struct PolicyDecision {
  AlgorithmKind algorithm = AlgorithmKind::kRta;
  /// Effective user precision (1.0 for exact algorithms).
  double alpha = 1.0;
  /// Intra-query DP threads for this spec (1 = serial).
  int parallelism = 1;
};

/// Picks the algorithm and precision for optimizing `query` over
/// `objectives` under a total budget of `deadline_ms` (< 0 = unbounded).
/// Deterministic: equal inputs yield equal decisions, which the cache
/// signature relies on.
PolicyDecision ChooseAlgorithm(const Query& query,
                               const ObjectiveSet& objectives,
                               int64_t deadline_ms,
                               const PolicyOptions& options = {});

}  // namespace moqo

#endif  // MOQO_SERVICE_POLICY_H_
