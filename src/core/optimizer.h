// Copyright (c) 2026 moqo authors. MIT license.
//
// The public optimizer API: problem/option/result types shared by the
// exact algorithm (EXA), the representative-tradeoffs algorithm (RTA), the
// iterative-refinement algorithm (IRA), and the baselines.

#ifndef MOQO_CORE_OPTIMIZER_H_
#define MOQO_CORE_OPTIMIZER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/dp_driver.h"
#include "core/plan_set.h"
#include "cost/cost_vector.h"
#include "cost/objective.h"
#include "plan/operators.h"
#include "plan/plan_node.h"
#include "query/query.h"
#include "util/arena.h"

namespace moqo {

/// A bounded-weighted MOQO problem instance I = <Q, W, B> (Definition 2).
/// Leave `bounds` default-constructed (size 0) or all-infinite for the
/// weighted MOQO problem I = <Q, W> (Definition 1). The preference rule
/// (ResolvePreference): weights that are empty or mis-sized (not one per
/// objective) read as uniform, and mis-sized bounds read as no bounds.
struct MOQOProblem {
  const Query* query = nullptr;
  ObjectiveSet objectives;
  WeightVector weights;
  BoundVector bounds;
};

/// Applies the preference rule over `dims` objectives, for every optimizer,
/// the DP's quick mode and the service. No bounds stay an empty vector, not
/// Unbounded(dims): plan-cache payloads store the resolved bounds' size.
void ResolvePreference(int dims, WeightVector* weights, BoundVector* bounds);

/// IRA: hard cap on refinement iterations (safety net; Theorem 8
/// guarantees termination well before this in practice).
inline constexpr int kIraMaxIterations = 64;

/// Optimizer configuration shared by all algorithms.
struct OptimizerOptions {
  /// User precision alpha_U for the approximation schemes (>= 1). The EXA
  /// ignores it (always exact).
  double alpha = 1.0;
  /// Wall-clock budget in milliseconds; < 0 means no timeout. On expiry
  /// the optimizer finishes quickly per Section 5.1.
  int64_t timeout_ms = -1;
  /// Physical operator space (sampling scans, DOP variants, ...).
  OperatorRegistry::Options operators;
  /// Plan-space switches (see DPOptions).
  bool bushy = true;
  bool cartesian_heuristic = true;
  /// Ablation only: guarantee-destroying aggressive pruning (Section 6.2).
  bool aggressive_delete = false;
  /// Intra-query parallelism: threads cooperating on each DP level
  /// (1 = serial; the calling thread counts as one). Requires `dp_pool`.
  /// Frontiers are identical for every value (see dp_driver.h).
  int parallelism = 1;
  /// Shared pool the DP borrows helper threads from; not owned, must
  /// outlive the optimizer. Null = serial regardless of `parallelism`.
  ThreadPool* dp_pool = nullptr;
  /// Cross-query memo of table-set-level Pareto frontiers, shared between
  /// optimizer runs; not owned, must outlive the optimizer. Null = no
  /// cross-query reuse. Frontiers are byte-identical with the memo on or
  /// off; only the work to build them is shared (see memo/subplan_memo.h).
  SubplanMemo* subplan_memo = nullptr;
  /// External cancellation flag, polled wherever the deadline is (see
  /// Deadline::WithCancel); not owned, must outlive the run. Cancellation
  /// behaves like deadline expiry: the run degrades to a quick finish and
  /// reports timed_out.
  const std::atomic<bool>* cancel = nullptr;
  /// Observability (PR 6): span recorder handed through to the DP
  /// (per-level/per-set/memo spans); not owned, null = no tracing.
  /// `trace_id` is the request/session correlation id stamped on every
  /// span of this run. NOT part of the problem identity — cache
  /// signatures ignore both fields.
  Tracer* tracer = nullptr;
  uint64_t trace_id = 0;
};

/// Measurements reported for Figures 5, 9 and 10. Frontier cardinality is
/// NOT tracked here: it is derived from the result's PlanSet (the single
/// source of truth) via OptimizerResult::frontier_size().
struct OptimizerMetrics {
  double optimization_ms = 0;
  size_t memory_bytes = 0;     ///< Arena + plan-set footprint (last iter).
  bool timed_out = false;
  long considered_plans = 0;
  /// #Pareto plans of the last completely treated table set (Figure 5/9).
  int last_complete_pareto_count = 0;
  /// Refinement iterations executed (1 for EXA/RTA; Figure 10 for IRA).
  int iterations = 1;
};

/// The outcome of one optimization: the full approximate Pareto set
/// (`plan_set`, the real product per Figure 4) plus the scalarization the
/// request's weights/bounds picked from it (SelectPlan). `plan` points into
/// `plan_set`'s arena, which is shared — results are cheap to copy and
/// safely outlive the optimizer, and any later preference can be answered
/// by re-running SelectPlan over the same `plan_set` without a new DP run.
struct OptimizerResult {
  /// The approximate Pareto set with plans. Never null after Optimize()
  /// (empty for degenerate queries); null only in default-constructed
  /// results.
  std::shared_ptr<const PlanSet> plan_set;
  /// The selected plan; never null for queries with at least one table.
  const PlanNode* plan = nullptr;
  CostVector cost;
  double weighted_cost = 0;
  bool respects_bounds = true;
  OptimizerMetrics metrics;

  /// Cost vectors of the final (approximate) Pareto set for Q — the
  /// "byproduct of optimization" visualized in Figure 4. Derived from
  /// `plan_set`; empty when `plan_set` is null.
  const std::vector<CostVector>& frontier() const;
  int frontier_size() const { return plan_set ? plan_set->size() : 0; }

  /// Sets plan/cost/weighted_cost to the plan SelectPlan picks from
  /// `plan_set` (non-null) for the preference, and respects_bounds to
  /// whether its cost respects `bounds`. An empty set leaves them as is.
  void Select(const WeightVector& weights, const BoundVector& bounds);
};

/// Shared implementation scaffolding: owns the arena, the operator
/// registry, and the translation from OptimizerOptions to DPOptions.
class OptimizerBase {
 public:
  explicit OptimizerBase(const OptimizerOptions& options)
      : options_(options), registry_(options.operators) {}
  virtual ~OptimizerBase() = default;

  /// Solves the instance. Implementations never return a null plan for
  /// queries with at least one table.
  virtual OptimizerResult Optimize(const MOQOProblem& problem) = 0;

  const OperatorRegistry& registry() const { return registry_; }
  const OptimizerOptions& options() const { return options_; }

 protected:
  Deadline MakeDeadline() const {
    const Deadline base = options_.timeout_ms < 0
                              ? Deadline::Infinite()
                              : Deadline::AfterMillis(options_.timeout_ms);
    return base.WithCancel(options_.cancel);
  }

  DPOptions MakeDPOptions(const MOQOProblem& problem, double internal_alpha,
                          Deadline deadline) const {
    DPOptions dp;
    dp.alpha = internal_alpha;
    dp.aggressive_delete = options_.aggressive_delete;
    dp.bushy = options_.bushy;
    dp.cartesian_heuristic = options_.cartesian_heuristic;
    dp.deadline = deadline;
    dp.quick_mode_weights = problem.weights;
    dp.parallelism = options_.parallelism;
    dp.pool = options_.dp_pool;
    dp.subplan_memo = options_.subplan_memo;
    dp.tracer = options_.tracer;
    dp.trace_id = options_.trace_id;
    return dp;
  }

  /// One run of FindParetoPlans, the DP of Algorithm 1 pruning at
  /// `internal_alpha` (1 = exact; each table set cut to its weighted-best
  /// plan when `single_plan`), then FinishResult. EXA and Selinger pass 1,
  /// the RTA its Algorithm-2 precision (RTAInternalPrecision).
  OptimizerResult RunOnce(const MOQOProblem& problem, double internal_alpha,
                          bool single_plan = false);

  /// Packages the generator state into a result: snapshots `final_set`
  /// into a shared PlanSet, resolves the problem's preference
  /// (ResolvePreference), selects with it, and judges `respects_bounds`
  /// against the same resolved bounds.
  OptimizerResult FinishResult(const MOQOProblem& problem,
                               const DPPlanGenerator& generator,
                               const ParetoSet& final_set,
                               double elapsed_ms) const;

  OptimizerOptions options_;
  OperatorRegistry registry_;
  Arena arena_;
};

/// Internal pruning precision of the RTA (Algorithm 2): the |Q|-th root of
/// the target precision, so that Theorem 3 yields an alpha_U-approximate
/// Pareto set after |Q| induction steps.
double RTAInternalPrecision(double alpha_u, int num_tables);

/// IRA precision-refinement policy (Algorithm 3, line 8):
/// alpha(i) = alpha_U ^ (2^(-i/(3l-3))), strictly decreasing in the
/// iteration counter i >= 1 and chosen so the i-th iteration's worst-case
/// time doubles per iteration (Theorem 7), making redundant work across
/// iterations negligible. For l = 1 the policy degenerates to halving the
/// exponent each iteration.
double IRAIterationPrecision(double alpha_u, int iteration,
                             int num_objectives);

}  // namespace moqo

#endif  // MOQO_CORE_OPTIMIZER_H_
