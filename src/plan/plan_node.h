// Copyright (c) 2026 moqo authors. MIT license.
//
// PlanNode: the immutable, arena-allocated query plan representation.
//
// Matching the space model of Theorem 1: "A scan plan is represented by an
// operator ID and a table ID. All other plans are represented by the
// operator ID of the last join and pointers to the two sub-plans generating
// its operands. Therefore, each stored plan needs only O(1) space."
// We additionally cache the cost vector and derived properties (cardinality,
// row width) that the recursive cost formulas consume.

#ifndef MOQO_PLAN_PLAN_NODE_H_
#define MOQO_PLAN_PLAN_NODE_H_

#include <cstdint>
#include <unordered_map>

#include "cost/cost_vector.h"
#include "util/arena.h"
#include "util/table_set.h"

namespace moqo {

/// One node of a (bushy) physical plan. Nodes are immutable after
/// construction and allocated from an Arena owned by the optimizer run;
/// they are freely shared between alternative plans (DAG memoization).
struct PlanNode {
  /// Dense id into the run's OperatorRegistry.
  int32_t op_config = -1;
  /// Scan nodes: query-local table index. Join nodes: -1.
  int32_t table = -1;
  /// Join operands; null for scans. `left` is the outer/build side.
  const PlanNode* left = nullptr;
  const PlanNode* right = nullptr;

  /// Set of query-local tables this plan joins.
  TableSet tables;
  /// Estimated multi-dimensional cost over the active objectives.
  CostVector cost;
  /// Estimated output cardinality (after sampling loss).
  double cardinality = 0;
  /// Average output row width in bytes.
  double row_width = 0;

  bool IsScan() const { return left == nullptr; }

  /// Number of operator nodes in the tree.
  int NodeCount() const {
    return IsScan() ? 1 : 1 + left->NodeCount() + right->NodeCount();
  }

  /// Height of the tree (scan = 1).
  int Height() const;

  /// True iff every join's right operand is a base-table scan (left-deep).
  bool IsLeftDeep() const;
};

static_assert(std::is_trivially_destructible_v<PlanNode>,
              "PlanNode must be arena-compatible");

/// DAG-sharing deep copy of `plan` into `arena`. `copied` carries the
/// source-node -> copy mapping, so copies of several roots through one map
/// preserve sub-plan sharing among them.
const PlanNode* DeepCopyPlan(
    const PlanNode* plan, Arena* arena,
    std::unordered_map<const PlanNode*, const PlanNode*>* copied);

/// Structural equality of two plans (same operators, tables, and shape).
bool PlansEqual(const PlanNode* a, const PlanNode* b);

/// Order-insensitive structural hash, for deduplication diagnostics.
uint64_t PlanHash(const PlanNode* plan);

}  // namespace moqo

#endif  // MOQO_PLAN_PLAN_NODE_H_
