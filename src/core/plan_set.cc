// Copyright (c) 2026 moqo authors. MIT license.

#include "core/plan_set.h"

#include <limits>
#include <unordered_map>

#include "rt/failpoint.h"

namespace moqo {

std::shared_ptr<const PlanSet> PlanSet::FromParetoSet(const ParetoSet& set) {
  if (set.empty()) return Empty();
  // Frontier snapshots deep-copy into a fresh arena; arm with `oom` to
  // fail the copy before any allocation happens.
  MOQO_FAILPOINT("planset.snapshot");
  // make_shared needs a public constructor; the private one is reached
  // through this local subclass trampoline.
  struct Constructible : PlanSet {};
  auto result = std::make_shared<Constructible>();
  // One map across all roots: every distinct source node is copied once.
  std::unordered_map<const PlanNode*, const PlanNode*> copied;
  copied.reserve(static_cast<size_t>(set.size()) * 2);
  const std::vector<const PlanNode*> plans = set.plans();
  result->plans_.reserve(plans.size());
  result->costs_.reserve(plans.size());
  for (const PlanNode* plan : plans) {
    result->plans_.push_back(DeepCopyPlan(plan, &result->arena_, &copied));
    result->costs_.push_back(plan->cost);
  }
  return result;
}

std::shared_ptr<const PlanSet> PlanSet::Empty() {
  struct Constructible : PlanSet {};
  static const std::shared_ptr<const PlanSet> empty =
      std::make_shared<Constructible>();
  return empty;
}

PlanSelection SelectPlan(const PlanSet& set, const WeightVector& weights,
                         const BoundVector& bounds) {
  PlanSelection best_bounded;
  double best_bounded_cost = std::numeric_limits<double>::infinity();
  PlanSelection best_any;
  double best_any_cost = std::numeric_limits<double>::infinity();
  const bool use_bounds = bounds.size() > 0 && !bounds.AllUnbounded();
  for (int i = 0; i < set.size(); ++i) {
    const CostVector& cost = set.cost(i);
    const double weighted = weights.WeightedCost(cost);
    if (weighted < best_any_cost) {
      best_any_cost = weighted;
      best_any = PlanSelection{set.plan(i), i, cost, weighted};
    }
    if (use_bounds && weighted < best_bounded_cost && bounds.Respects(cost)) {
      best_bounded_cost = weighted;
      best_bounded = PlanSelection{set.plan(i), i, cost, weighted};
    }
  }
  if (use_bounds && best_bounded.plan != nullptr) return best_bounded;
  return best_any;
}

}  // namespace moqo
