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

std::shared_ptr<const PlanSet> PlanSet::FromIndices(
    const PlanSet& source, const std::vector<int>& indices) {
  if (indices.empty()) return Empty();
  struct Constructible : PlanSet {};
  auto result = std::make_shared<Constructible>();
  std::unordered_map<const PlanNode*, const PlanNode*> copied;
  copied.reserve(indices.size() * 2);
  result->plans_.reserve(indices.size());
  result->costs_.reserve(indices.size());
  for (int i : indices) {
    result->plans_.push_back(
        DeepCopyPlan(source.plan(i), &result->arena_, &copied));
    result->costs_.push_back(source.cost(i));
  }
  return result;
}

std::shared_ptr<const PlanSet> CompactPlanSet(
    std::shared_ptr<const PlanSet> set, double epsilon, int max_size) {
  if (set == nullptr || set->size() <= 1) return set;
  if (epsilon < 0) epsilon = 0;

  // Greedy cover in stored order: keep a plan unless an already-kept one
  // (1+eps)-dominates it. Every dropped plan is covered by construction;
  // doubling eps shrinks the cover monotonically toward 1 (any plan covers
  // everything for large enough eps, costs being finite and positive), so
  // a max_size of >= 1 is always reachable.
  std::vector<int> kept;
  for (double eps = epsilon;; eps = eps > 0 ? eps * 2 : 0.01) {
    kept.clear();
    const double factor = 1.0 + eps;
    for (int i = 0; i < set->size(); ++i) {
      bool covered = false;
      for (int k : kept) {
        if (ApproxDominates(set->cost(k), set->cost(i), factor)) {
          covered = true;
          break;
        }
      }
      if (!covered) kept.push_back(i);
      // Over the cap already: this pass's result is discarded, so don't
      // finish the O(n * kept) scan — double eps and retry (huge
      // frontiers are exactly the case this function exists for).
      if (max_size > 0 && static_cast<int>(kept.size()) > max_size) break;
    }
    if (max_size <= 0 || static_cast<int>(kept.size()) <= max_size) break;
    // Zero-component corner case: a dimension where some cost is 0 can
    // keep plans mutually uncoverable at any eps; cap by truncation then
    // (stored order, so the earliest — typically cheapest-found — stay).
    if (eps > 1e12) {
      kept.resize(max_size);
      break;
    }
  }
  if (static_cast<int>(kept.size()) == set->size()) return set;
  return PlanSet::FromIndices(*set, kept);
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
