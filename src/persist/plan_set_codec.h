// Copyright (c) 2026 moqo authors. MIT license.
//
// PlanSetCodec: the relocatable on-disk encoding of a sealed PlanSet.
//
// A PlanSet is already the ideal persistence unit — immutable, arena-
// backed, DAG-shared — except that its plan references are pointers into
// its own arena. The codec rewrites them as *offsets*: every distinct
// PlanNode reachable from the frontier is emitted exactly once into a
// flat node table in children-before-parents order, and plan roots /
// child links become u32 indices into that table. The result is fully
// relocatable: it can be parsed straight out of an mmap'ed region with no
// fixups, and decoding materializes nodes back into a fresh PlanSet arena
// in one forward pass (a child index always refers to an already-built
// node).
//
// Block layout (all little-endian, doubles as IEEE-754 bit patterns —
// see format.h):
//
//   u32 num_plans        frontier size
//   u32 num_nodes        distinct DAG nodes
//   u32 dims             active objectives (all cost vectors agree)
//   u32 reserved         0
//   f64 costs[num_plans * dims]      SoA frontier cost matrix, plan-major
//   u32 roots[num_plans]             node-table index of each plan's root
//   node table, num_nodes records of:
//     i32 op_config, i32 table
//     u32 left, u32 right            node-table indices; kNoChild = none
//     u64 tables_mask
//     f64 cardinality, f64 row_width
//     f64 cost[dims]
//
// Round-trip is bit-exact: the decoded set's cost matrix and per-node
// fields reproduce the original's bit patterns, so SelectPlan over a
// restored frontier picks the same plan index for any preference (its
// scan is deterministic over bit-identical costs) — the property the
// warm-restore path relies on to rebuild cached OptimizerResults.

#ifndef MOQO_PERSIST_PLAN_SET_CODEC_H_
#define MOQO_PERSIST_PLAN_SET_CODEC_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/plan_set.h"

namespace moqo {
namespace persist {

class PlanSetCodec {
 public:
  /// Appends the encoded block for `set` to `out`. Any sealed set encodes,
  /// including the empty singleton (num_plans = 0).
  static void Append(const PlanSet& set, std::string* out);

  /// Decodes one block from the front of [data, data+size). On success
  /// returns the materialized set and writes the block's byte length to
  /// `consumed` (trailing bytes are the caller's — payloads may carry a
  /// preference block first). Malformed input returns nullptr: truncation,
  /// out-of-range indices, impossible sizes, a node whose table fields
  /// contradict its shape (a scan's `tables` must be {table} with table in
  /// [0, TableSet::kMaxTables); a join's `table` must be -1 and its
  /// `tables` the union of its disjoint children's), or roots over
  /// different table sets. Never throws, never reads out of bounds.
  static std::shared_ptr<const PlanSet> Decode(const void* data, size_t size,
                                               size_t* consumed);
};

}  // namespace persist
}  // namespace moqo

#endif  // MOQO_PERSIST_PLAN_SET_CODEC_H_
