// Copyright (c) 2026 moqo authors. MIT license.
//
// PlanSet: the immutable, shareable product of one optimization run — the
// full (approximate) Pareto set *with plans*, not just cost vectors.
//
// The paper frames the approximate Pareto set as the real output of
// many-objective optimization: the single returned plan is one
// scalarization of it ("users cannot make optimal choices for bounds and
// weights if they are not aware of the possible tradeoffs", Section 4,
// Figure 4). A PlanSet snapshots the optimizer's final ParetoSet — plans
// deep-copied into a private arena with DAG sharing preserved — so callers,
// caches, and service responses can alias one frontier via
// shared_ptr<const PlanSet> and answer any later preference (weights +
// bounds) by an O(|frontier|) SelectPlan scan instead of a new DP run.

#ifndef MOQO_CORE_PLAN_SET_H_
#define MOQO_CORE_PLAN_SET_H_

#include <memory>
#include <vector>

#include "core/pareto_set.h"
#include "cost/cost_vector.h"
#include "plan/plan_node.h"
#include "util/arena.h"

namespace moqo {

namespace persist {
class PlanSetCodec;
}  // namespace persist

/// An immutable set of mutually non-dominated plans for one query, owning
/// the storage of every plan it exposes. Thread-safe to share: all access
/// is const after construction.
class PlanSet {
 public:
  /// Snapshots the live plans of `set` (sealed or not). Sub-plans shared
  /// between frontier plans stay shared in the copy, so the footprint is
  /// proportional to the number of distinct nodes, not to
  /// |frontier| * plan size.
  static std::shared_ptr<const PlanSet> FromParetoSet(const ParetoSet& set);

  /// Shared empty singleton (no arena blocks).
  static std::shared_ptr<const PlanSet> Empty();

  int size() const { return static_cast<int>(plans_.size()); }
  bool empty() const { return plans_.empty(); }

  const PlanNode* plan(int i) const { return plans_[i]; }
  const CostVector& cost(int i) const { return costs_[i]; }

  /// All cost vectors, index-aligned with plan(i) — the (approximate)
  /// Pareto frontier of Figure 4.
  const std::vector<CostVector>& costs() const { return costs_; }

  /// Arena + container footprint in bytes: what one cached entry costs
  /// the byte-budget PlanCache. O(1): the arena tracks its reservation.
  size_t MemoryBytes() const {
    return arena_.reserved_bytes() + plans_.capacity() * sizeof(plans_[0]) +
           costs_.capacity() * sizeof(costs_[0]) + sizeof(*this);
  }

  PlanSet(const PlanSet&) = delete;
  PlanSet& operator=(const PlanSet&) = delete;

 private:
  PlanSet() = default;

  /// The on-disk codec (src/persist/plan_set_codec.h) materializes decoded
  /// snapshots directly into a fresh set's arena — the only writer besides
  /// the factory functions above.
  friend class persist::PlanSetCodec;

  /// First block sized for a handful of nodes, doubling up to the default
  /// block size: snapshots live as long as a cache entry references them,
  /// and most frontiers are far smaller than one 64 KiB block — pinning
  /// one per entry would waste most of a byte-budgeted cache's capacity on
  /// slack (the MemoryBytes the cache accounts is reserved, not allocated,
  /// bytes).
  Arena arena_{size_t{1} << 10, Arena::kDefaultBlockBytes};
  std::vector<const PlanNode*> plans_;
  std::vector<CostVector> costs_;
};

/// One scalarization of a PlanSet: the plan a preference picks, plus its
/// derived quantities. `plan` points into the PlanSet's arena — keep the
/// set alive for as long as the selection is used.
struct PlanSelection {
  const PlanNode* plan = nullptr;  ///< Null iff the set is empty.
  int index = -1;                  ///< Position within the set; -1 if null.
  CostVector cost;
  double weighted_cost = 0;
};

/// SelectBest of Algorithm 1, applied at request time over a finished
/// frontier: the plan minimizing weighted cost among plans respecting
/// `bounds`; if none respects them (or `bounds` is empty / all-infinite),
/// the plan minimizing weighted cost overall. O(|set|) — the step that
/// turns a cached frontier into an answer for a fresh preference.
PlanSelection SelectPlan(const PlanSet& set, const WeightVector& weights,
                         const BoundVector& bounds = BoundVector());

}  // namespace moqo

#endif  // MOQO_CORE_PLAN_SET_H_
