// Copyright (c) 2026 moqo authors. MIT license.
//
// The nine-objective cost model (Section 4).
//
// Structure: every objective's plan cost is computed recursively from the
// costs of the two sub-plans plus an operator-local term, using only the
// PONO-preserving building blocks of Section 6.1:
//
//   * sum, max, min of child cost components,
//   * multiplication by values that are CONSTANT GIVEN THE OPERANDS'
//     CARDINALITIES (cardinalities are plan properties, not costs, so
//     scaling child costs by e.g. the number of inner rescans of a
//     block-nested-loop join is "multiplication by a constant" in the sense
//     of the paper's structural-induction proof),
//   * the tuple-loss composition 1 - (1-a)(1-b).
//
// tests/model/pono_test.cc verifies the principle of near-optimality
// (Definition 7) for every objective x operator combination.
//
// CombineJoinCost is the one body of the join-cost formulas. Its inputs
// split in two: the operator config, and JoinOperands — everything it
// reads about the (left, right) operand pair. The DP builds JoinOperands
// once per pair and prices the pair's join configs (~8) from it, and
// builds a PlanNode only for a candidate it keeps; the JoinNode and
// MakeJoin overloads are thin wrappers over the same two steps.
//
// The absolute constants (fixed, in cost_model.cc) are synthetic but
// Postgres-flavoured; DESIGN.md's substitution table explains why only the
// formula structure, not the constants, matters for reproducing the paper.

#ifndef MOQO_MODEL_COST_MODEL_H_
#define MOQO_MODEL_COST_MODEL_H_

#include "cost/cost_vector.h"
#include "cost/objective.h"
#include "model/cardinality.h"
#include "plan/operators.h"
#include "plan/plan_node.h"
#include "query/query.h"

namespace moqo {

/// Version stamp of the cost-model formulas + constants. Bumped whenever a
/// change would make previously computed plan costs stale; persisted
/// snapshots (src/persist/) embed it and refuse to restore across a
/// mismatch, since cached frontiers are only valid under the model that
/// priced them.
inline constexpr uint64_t kCostModelVersion = 1;

/// Derived statistics of one operand (plan output) that the operator-local
/// cost terms consume. These are plan *properties*, not costs.
struct OperandStats {
  double rows = 0;     ///< Estimated output cardinality.
  double width = 0;    ///< Average row width, bytes.

  double bytes() const { return rows * width; }
  double pages(double page_bytes) const {
    return std::max(1.0, bytes() / page_bytes);
  }
};

/// The cost model facade used by all optimizers. One instance per
/// (query, objective selection) pair; stateless and cheap to copy.
class CostModel {
 public:
  CostModel(const Query* query, const OperatorRegistry* registry,
            ObjectiveSet objectives)
      : query_(query),
        registry_(registry),
        objectives_(std::move(objectives)),
        estimator_(query) {
    for (int i = 0; i < kNumObjectives; ++i) {
      dimension_[i] = objectives_.IndexOf(static_cast<Objective>(i));
    }
  }

  const ObjectiveSet& objectives() const { return objectives_; }
  const CardinalityEstimator& estimator() const { return estimator_; }

  /// True iff scan config `config_id` may be used on `local_table`
  /// (IndexScan requires an index on some filter or join column).
  bool ScanApplicable(int config_id, int local_table) const;

  /// True iff join config `config_id` may combine `left` and `right`
  /// (IndexNLJoin requires the inner/right operand to be a base-table scan
  /// with an index on the join column of an applicable join predicate).
  bool JoinApplicable(int config_id, const PlanNode& left,
                      const PlanNode& right) const;

  /// Builds a scan node value for `local_table` with scan config
  /// `config_id` (cost, cardinality and width filled in). The DP driver
  /// cost-evaluates candidates on the stack and copies survivors into its
  /// arena, so pruned candidates never allocate.
  PlanNode ScanNode(int config_id, int local_table) const;

  /// Builds the join of `left` and `right` with join config `config_id`.
  /// The child pointers must outlive the returned value's use.
  PlanNode JoinNode(int config_id, const PlanNode* left,
                    const PlanNode* right) const;

  /// Arena-allocating conveniences for examples and tests.
  PlanNode* MakeScan(int config_id, int local_table, Arena* arena) const {
    return arena->New<PlanNode>(ScanNode(config_id, local_table));
  }
  PlanNode* MakeJoin(int config_id, const PlanNode* left,
                     const PlanNode* right, Arena* arena) const {
    return arena->New<PlanNode>(JoinNode(config_id, left, right));
  }

  /// Precomputed, plan-independent facts about one split (q1, q2): the
  /// product of applicable join-predicate selectivities and whether an
  /// index-nested-loop join can probe the inner side. Computed once per
  /// split by the DP driver instead of once per candidate plan.
  struct SplitInfo {
    double selectivity = 1.0;      ///< Product over connecting predicates.
    bool has_predicate = false;    ///< False = Cartesian product split.
    bool index_nl_applicable = false;  ///< Inner singleton with usable index.
  };

  /// Analyzes the split (left_set, right_set); right is the inner side.
  SplitInfo AnalyzeSplit(TableSet left_set, TableSet right_set) const;

  /// Everything CombineJoinCost reads about one (left, right) operand
  /// pair, whatever the join config: clamped cardinalities, bytes and
  /// pages, Log2Ceil of both sides, the output rows and width, and the
  /// child cost components indexed by Objective (0 for inactive ones).
  struct JoinOperands {
    double rows_left = 0;    ///< max(left rows, 1).
    double rows_right = 0;   ///< max(right rows, 1).
    double bytes_left = 0;   ///< max(left bytes, 1).
    double bytes_right = 0;  ///< max(right bytes, 1).
    double pages_left = 0;
    double pages_right = 0;
    double log_left = 0;     ///< Log2Ceil(rows_left).
    double log_right = 0;    ///< Log2Ceil(rows_right).
    double output_rows = 0;
    double output_width = 0;
    double left_cost[kNumObjectives] = {};
    double right_cost[kNumObjectives] = {};

    double Left(Objective o) const { return left_cost[static_cast<int>(o)]; }
    double Right(Objective o) const {
      return right_cost[static_cast<int>(o)];
    }
  };

  /// The operand terms of joining plans `left` and `right` across a split
  /// described by `split` (see AnalyzeSplit).
  JoinOperands Operands(const PlanNode& left, const PlanNode& right,
                        const SplitInfo& split) const;

  /// Core recursive step: the cost of join config `op` over `operands`.
  /// The only body of the join-cost formulas.
  CostVector CombineJoinCost(const OperatorConfig& op,
                             const JoinOperands& operands) const;

  /// The same step from child statistics and costs, exposed for property
  /// tests. (The output width enters no cost term.)
  CostVector CombineJoinCost(const OperatorConfig& op,
                             const OperandStats& left_stats,
                             const CostVector& left_cost,
                             const OperandStats& right_stats,
                             const CostVector& right_cost,
                             double output_rows) const {
    return CombineJoinCost(op, Operands(left_stats, left_cost, right_stats,
                                        right_cost, output_rows, 0.0));
  }

  /// Scan cost vector for the given table/config (also used by tests).
  CostVector ScanCost(const OperatorConfig& op, int local_table,
                      double output_rows) const;

  /// Fast-path join construction using a precomputed SplitInfo. Both
  /// overloads produce identical nodes; JoinNode recomputes the SplitInfo.
  PlanNode JoinNode(int config_id, const PlanNode* left,
                    const PlanNode* right, const SplitInfo& split) const;

  /// The join node of `left` and `right` under config `config_id`, whose
  /// cost CombineJoinCost already priced from `operands`
  /// (= Operands(*left, *right, split)). Every JoinNode overload ends here.
  PlanNode JoinNode(int config_id, const PlanNode* left,
                    const PlanNode* right, const JoinOperands& operands,
                    const CostVector& cost) const;

  /// Fast applicability check against a precomputed SplitInfo.
  bool JoinApplicableFast(const OperatorConfig& op,
                          const SplitInfo& split) const {
    return op.type != OperatorType::kIndexNLJoin || split.index_nl_applicable;
  }

 private:
  /// The operand terms of children with statistics `left_stats` /
  /// `right_stats` and costs `left_cost` / `right_cost`, joined into
  /// `output_rows` rows of width `output_width`.
  JoinOperands Operands(const OperandStats& left_stats,
                        const CostVector& left_cost,
                        const OperandStats& right_stats,
                        const CostVector& right_cost, double output_rows,
                        double output_width) const;

  /// Sets dimension for `objective` if active.
  void Set(CostVector* cost, Objective objective, double value) const {
    const int index = dimension_[static_cast<int>(objective)];
    if (index >= 0) (*cost)[index] = value;
  }

  const Query* query_;
  const OperatorRegistry* registry_;
  ObjectiveSet objectives_;
  CardinalityEstimator estimator_;
  /// dimension_[o] = active index of objective o, or -1.
  int dimension_[kNumObjectives];
};

}  // namespace moqo

#endif  // MOQO_MODEL_COST_MODEL_H_
