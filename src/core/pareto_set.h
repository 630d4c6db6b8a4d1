// Copyright (c) 2026 moqo authors. MIT license.
//
// ParetoSet: the per-table-set plan container with the pruning procedure of
// Algorithm 1 (exact) and Algorithm 2 (approximate).
//
// Exact pruning (EXA, Algorithm 1, Prune):
//   insert pN iff no stored p has c(p) "dominating" c(pN); then delete every
//   stored p whose cost the new plan dominates.
//
// Approximate pruning (RTA, Algorithm 2, Prune with precision alpha_i):
//   insert pN iff no stored p approximately dominates it, i.e.
//   ¬∃p: c(p) ⪯_alpha c(pN). Deletion still uses *plain* dominance: the
//   paper explicitly warns (Section 6.2) that also deleting approximately
//   dominated plans lets stored vectors drift arbitrarily far from the real
//   Pareto frontier, destroying the near-optimality guarantee. The
//   guarantee-destroying variant is available behind an explicit flag for
//   the ablation bench only.
//
// Performance: dominance checks are the optimizer's innermost loop — every
// candidate is compared against every stored plan, and sets grow into the
// tens of thousands for many-objective instances (Section 5.1). Storage is
// struct-of-arrays: one contiguous row-major double matrix of cost
// components plus a parallel plan-pointer array, so the dominance scans
// stream over dense doubles without dragging plan pointers through the
// cache. Four further optimizations keep the scans tractable without
// changing semantics:
//
//  * One scan body per call. Each call picks its body once (ScanBody):
//    the AVX-512F body holds the candidate's threshold (or the new row) in
//    registers and tests each stored row with one masked compare; the
//    scalar body inlines the component loop. Both run the same predicate
//    (core/dominance_kernel.h), so they keep identical sets.
//  * Hoisted precision. The alpha multiply of approximate dominance is
//    applied once per candidate (scaling it into a stack-local threshold
//    row), not once per stored-plan comparison.
//  * Block summaries. Rows are grouped into blocks of kBlockSize; each
//    block keeps the component-wise min and max of its live cost rows
//    (+inf/-inf when the block has none). A block can contain a dominator
//    of candidate c only if block_min <= alpha*c component-wise, and the
//    new plan can dominate a block member only if c <= block_max
//    component-wise — one row comparison skips up to kBlockSize rows.
//  * Tombstone deletion. Dominated rows are unlinked lazily
//    (plan = nullptr) instead of compacting the matrix on every insert;
//    compaction runs when tombstones exceed half the rows, and the DP
//    driver Seal()s a set once its table set is fully processed.
//
// One growth protocol. A kept plan is Appended, then runs its deletion
// pass through DeleteDominatedSince: Insert is those two calls for one
// plan, and Prune is WouldInsert, then Insert. The DP driver prices each
// candidate on the stack, checks it once (WouldInsert, through a Rejecters
// cache the driver owns) and allocates and Inserts only a kept one.
//
// Rounds (the DP's one-set levels) use the same calls. Several threads
// check candidates against the set as it stands at a round start, each
// through its own Rejecters cache; one thread then re-checks the
// survivors, in candidate order, only against the rows appended since the
// round's mark (WouldInsert from that row on), Appends the kept ones, and
// runs every deferred deletion pass at once (DeleteDominatedSince). A
// plainly dominated row that stays until then rejects nothing its
// dominator does not, so the set ends exactly as Insert-ing the same plans
// would leave it.
//
// Thread-safety: none while mutating; every const member is read-only.
// The parallel DP driver shares sealed sets across threads freely, and
// checks one unsealed set from several threads, each through its own
// Rejecters.

#ifndef MOQO_CORE_PARETO_SET_H_
#define MOQO_CORE_PARETO_SET_H_

#include <algorithm>
#include <array>
#include <limits>
#include <vector>

#include "cost/cost_vector.h"
#include "plan/plan_node.h"

namespace moqo {

/// A set of mutually non-dominated plans for one table set.
class ParetoSet {
 public:
  ParetoSet() = default;

  /// Pruning precision: 1.0 reproduces the exact EXA behaviour; > 1.0 the
  /// RTA behaviour. `aggressive_delete` enables the guarantee-destroying
  /// deletion rule for the ablation study; never set it in production code.
  struct PruneOptions {
    double alpha = 1.0;
    bool aggressive_delete = false;
  };

  /// The two bodies every dominance scan of a call is compiled in: the
  /// inlined scalar row test, or one masked AVX-512F compare per row (see
  /// core/dominance_kernel.h). Both keep identical sets.
  enum class ScanBody { kScalar, kAvx512 };

  /// kAvx512 iff Avx512Available(), else kScalar; resolved once at
  /// startup. Every call that names no body runs this one; tests name each
  /// body in turn, and name kAvx512 only where Avx512Available().
  static const ScanBody kBestScanBody;

  /// Move-to-front cache of recently rejecting cost rows: consecutive
  /// candidates usually come from the same split and are rejected by the
  /// same stored plan. Purely an accelerator; stale copies are harmless
  /// because every cached row belonged to a stored plan whose dominance
  /// already implied rejection (tombstoning only ever happens to plans
  /// dominated by a *kept* plan, which then dominates the same
  /// candidates). Owned by the caller; valid for one set and one `first`
  /// of WouldInsert.
  struct Rejecters {
    static constexpr int kSlots = 4;
    std::array<double, kSlots * kNumObjectives> rows{};
    int used = 0;
    int next = 0;
  };

  /// Insertion check: would a plan with cost `cost` survive pruning
  /// against the stored rows at index >= `first` (0 = the whole set)?
  /// Lets the DP driver price candidates on the stack and arena-allocate
  /// only survivors. `hot`, if not null, is checked first and takes the
  /// rejecting row; aggressive_delete bypasses it. The answer depends only
  /// on which of those rows are live, never on row layout or `hot`.
  bool WouldInsert(const CostVector& cost, const PruneOptions& options,
                   Rejecters* hot = nullptr, int first = 0,
                   ScanBody body = kBestScanBody) const;

  /// Appends `plan`, which WouldInsert accepted against the set as it
  /// stands, without its deletion pass: DeleteDominatedSince owes it.
  void Append(const PlanNode* plan);

  /// Rows stored, live or tombstoned: a round's mark. It stays valid
  /// through Append and until DeleteDominatedSince.
  int row_count() const { return rows(); }

  /// The deletion passes owed by the plans appended since `mark`, in
  /// order: each tombstones every earlier live row it dominates (plainly,
  /// or within alpha under aggressive_delete); then the set compacts if
  /// tombstones dominate the storage. The set then holds what Insert-ing
  /// the appended plans in order would have left — with several appended
  /// plans, under plain deletion only (see the rounds note above).
  void DeleteDominatedSince(int mark, const PruneOptions& options,
                            ScanBody body = kBestScanBody);

  /// Inserts `plan`, which WouldInsert accepted with the same options:
  /// Append, then its deletion pass.
  void Insert(const PlanNode* plan, const PruneOptions& options,
              ScanBody body = kBestScanBody);

  /// WouldInsert (without a cache), then Insert; returns true iff the
  /// plan was kept.
  /// Postcondition: no stored live plan strictly dominates another.
  bool Prune(const PlanNode* plan, const PruneOptions& options,
             ScanBody body = kBestScanBody);

  /// Convenience overload with exact pruning.
  bool Prune(const PlanNode* plan) { return Prune(plan, PruneOptions()); }

  /// Number of live (non-deleted) plans.
  int size() const { return live_; }
  bool empty() const { return live_ == 0; }

  /// Dense access; valid only after Seal() (the DP driver seals every
  /// completed table set; freshly built sets must be sealed before
  /// iteration).
  const PlanNode* at(int i) const { return plans_[i]; }
  /// Gathers row `i` of the cost matrix into a value-type vector.
  CostVector cost_at(int i) const;

  /// Compacts tombstones and rebuilds block summaries; afterwards
  /// entries 0..size()-1 are exactly the live plans.
  void Seal();

  /// Replaces the contents with `plans` (all non-null, each carrying its
  /// cost), already known to be a valid sealed frontier in its original
  /// insertion order, and seals. No dominance checks run: this is the
  /// cross-query subplan memo's hit path — re-running Prune over a frontier
  /// that survived pruning once reproduces the identical set (no final plan
  /// plainly dominates another, and no final plan is alpha-dominated by an
  /// earlier one), so the scans are skipped outright. The resulting sealed
  /// state is byte-identical to re-building: same rows, same order, same
  /// block summaries.
  void LoadSealed(const std::vector<const PlanNode*>& plans);

  /// Stored live plans, oldest first.
  std::vector<const PlanNode*> plans() const;

  void clear();

  /// Bytes used by this container (for the memory metric of Figs. 5/9/10).
  size_t MemoryBytes() const {
    return plans_.capacity() * sizeof(const PlanNode*) +
           (costs_.capacity() + block_min_.capacity() +
            block_max_.capacity()) *
               sizeof(double) +
           sizeof(*this);
  }

  /// SelectBest of Algorithm 1 over the live plans (SelectBestRow): the
  /// plan minimizing weighted cost among plans respecting `bounds`; if none
  /// respects them, the plan minimizing weighted cost overall. Returns
  /// nullptr iff the set is empty.
  const PlanNode* SelectBest(const WeightVector& weights,
                             const BoundVector& bounds) const;

  /// The plan minimizing weighted cost (no bounds). Null iff empty.
  const PlanNode* SelectBestWeighted(const WeightVector& weights) const;

  /// Cost vectors of all live plans (the (approximate) Pareto frontier).
  std::vector<CostVector> Frontier() const;

 private:
  static constexpr int kBlockSize = 32;

  int rows() const { return static_cast<int>(plans_.size()); }

  int NumBlocks() const {
    return (rows() + kBlockSize - 1) / kBlockSize;
  }

  /// WouldInsert's scans — cached rejecters, then block minima and rows
  /// at index >= `first`, newest first — with the kernel `threshold`
  /// (Below(r) <=> r <= the candidate's threshold). True iff a stored row
  /// rejects the candidate; that row enters `hot` unless it is null.
  template <class Row>
  bool HasDominator(const Row& threshold, Rejecters* hot, int first) const;

  /// One plan's deletion pass — block maxima, then rows below index
  /// `end` — with the kernel `row` (Above(r) <=> the new row dominates r:
  /// plainly, or within alpha in the ablation): tombstones every live row
  /// the new row dominates.
  template <class Row>
  void DeleteDominated(const Row& row, int end);

  /// The two passes above compiled for AVX-512F.
  bool HasDominatorAvx512(const double* threshold, int dims, Rejecters* hot,
                          int first) const;
  void DeleteDominatedAvx512(const double* row, int dims, int end);

  /// Records a rejecting stored row in `hot`.
  void RememberRejecter(const double* row, Rejecters* hot) const;

  /// Recomputes min/max summaries of block `b` from its live rows.
  void RebuildBlock(int b);

  /// Drops tombstones and rebuilds all blocks.
  void Compact();

  /// Active cost dimensions; fixed by the first insert.
  int dims_ = 0;
  int live_ = 0;
  /// Row i's plan; nullptr = tombstone. Parallel to costs_ rows.
  std::vector<const PlanNode*> plans_;
  /// Row-major rows() x dims_ matrix of cost components (tombstoned rows
  /// keep their stale values; plans_ is the liveness authority).
  std::vector<double> costs_;
  /// Component-wise min/max over live rows per block, NumBlocks() x dims_;
  /// +inf / -inf for blocks with no live rows.
  std::vector<double> block_min_;
  std::vector<double> block_max_;
};

/// SelectBest of Algorithm 1 as one scan, run by both ParetoSet::SelectBest
/// and SelectPlan: over `rows` rows of `dims` costs, where `row_at(i)` is
/// row i or null to skip it, the index of the first row minimizing weighted
/// cost among rows respecting `bounds`, else (none does, or no bound is
/// finite) among all rows; -1 iff no weighted cost is below +inf. Stores the
/// picked row's weighted cost in `*weighted_cost`.
template <class RowAt>
inline int SelectBestRow(int rows, int dims, const WeightVector& weights,
                         const BoundVector& bounds, RowAt row_at,
                         double* weighted_cost) {
  const int bound_dims =
      bounds.AllUnbounded() ? 0 : std::min(dims, bounds.size());
  int best_bounded = -1;
  double best_bounded_cost = std::numeric_limits<double>::infinity();
  int best_any = -1;
  double best_any_cost = std::numeric_limits<double>::infinity();
  for (int i = 0; i < rows; ++i) {
    const double* row = row_at(i);
    if (row == nullptr) continue;
    double weighted = 0;
    for (int d = 0; d < dims; ++d) weighted += weights[d] * row[d];
    if (weighted < best_any_cost) {
      best_any_cost = weighted;
      best_any = i;
    }
    if (weighted < best_bounded_cost) {
      int d = 0;  // As BoundVector::Respects: only c > B exceeds B.
      while (d < bound_dims && !(row[d] > bounds[d])) ++d;
      if (d == bound_dims) {
        best_bounded_cost = weighted;
        best_bounded = i;
      }
    }
  }
  if (best_bounded >= 0) {
    *weighted_cost = best_bounded_cost;
    return best_bounded;
  }
  if (best_any >= 0) *weighted_cost = best_any_cost;
  return best_any;
}

}  // namespace moqo

#endif  // MOQO_CORE_PARETO_SET_H_
