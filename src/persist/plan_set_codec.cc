// Copyright (c) 2026 moqo authors. MIT license.

#include "persist/plan_set_codec.h"

#include <cassert>
#include <unordered_map>
#include <vector>

#include "cost/objective.h"
#include "persist/format.h"
#include "plan/plan_node.h"
#include "util/table_set.h"

namespace moqo {
namespace persist {

namespace {

/// Children-before-parents node enumeration with DAG dedup: every distinct
/// node gets exactly one index, child indices are always smaller than the
/// parent's. Mirrors DeepCopyPlan (plan/plan_node.h), but flattening
/// instead of copying.
void EnumerateNodes(const PlanNode* node,
                    std::unordered_map<const PlanNode*, uint32_t>* index,
                    std::vector<const PlanNode*>* nodes) {
  if (node == nullptr || index->count(node) != 0) return;
  EnumerateNodes(node->left, index, nodes);
  EnumerateNodes(node->right, index, nodes);
  (*index)[node] = static_cast<uint32_t>(nodes->size());
  nodes->push_back(node);
}

}  // namespace

void PlanSetCodec::Append(const PlanSet& set, std::string* out) {
  std::unordered_map<const PlanNode*, uint32_t> index;
  std::vector<const PlanNode*> nodes;
  index.reserve(static_cast<size_t>(set.size()) * 2);
  for (int i = 0; i < set.size(); ++i) {
    EnumerateNodes(set.plan(i), &index, &nodes);
  }
  const uint32_t dims =
      set.empty() ? 0 : static_cast<uint32_t>(set.cost(0).size());

  PutU32(out, static_cast<uint32_t>(set.size()));
  PutU32(out, static_cast<uint32_t>(nodes.size()));
  PutU32(out, dims);
  PutU32(out, 0);  // reserved
  for (int i = 0; i < set.size(); ++i) {
    const CostVector& cost = set.cost(i);
    assert(cost.size() == static_cast<int>(dims));
    for (uint32_t d = 0; d < dims; ++d) PutDouble(out, cost[d]);
  }
  for (int i = 0; i < set.size(); ++i) {
    PutU32(out, index.at(set.plan(i)));
  }
  for (const PlanNode* node : nodes) {
    PutI32(out, node->op_config);
    PutI32(out, node->table);
    PutU32(out, node->left == nullptr ? kNoChild : index.at(node->left));
    PutU32(out, node->right == nullptr ? kNoChild : index.at(node->right));
    PutU64(out, node->tables.mask());
    PutDouble(out, node->cardinality);
    PutDouble(out, node->row_width);
    assert(node->cost.size() == static_cast<int>(dims));
    for (uint32_t d = 0; d < dims; ++d) PutDouble(out, node->cost[d]);
  }
}

std::shared_ptr<const PlanSet> PlanSetCodec::Decode(const void* data,
                                                    size_t size,
                                                    size_t* consumed) try {
  ByteReader reader(data, size);
  uint32_t num_plans, num_nodes, dims, reserved;
  if (!reader.GetU32(&num_plans) || !reader.GetU32(&num_nodes) ||
      !reader.GetU32(&dims) || !reader.GetU32(&reserved)) {
    return nullptr;
  }
  if (dims > static_cast<uint32_t>(kNumObjectives)) return nullptr;
  // Up-front size check: a lying header must fail here, not mid-parse.
  const uint64_t node_bytes = 4u + 4u + 4u + 4u + 8u + 8u + 8u +
                              static_cast<uint64_t>(dims) * 8u;
  const uint64_t need =
      static_cast<uint64_t>(num_plans) * dims * 8u +
      static_cast<uint64_t>(num_plans) * 4u +
      static_cast<uint64_t>(num_nodes) * node_bytes;
  if (need > reader.remaining()) return nullptr;
  if (num_plans == 0) {
    if (consumed != nullptr) *consumed = size - reader.remaining();
    return PlanSet::Empty();
  }
  // Every plan needs a root node.
  if (num_nodes == 0) return nullptr;

  struct Constructible : PlanSet {};
  auto result = std::make_shared<Constructible>();
  result->costs_.reserve(num_plans);
  for (uint32_t i = 0; i < num_plans; ++i) {
    CostVector cost(static_cast<int>(dims));
    for (uint32_t d = 0; d < dims; ++d) {
      double v;
      if (!reader.GetDouble(&v)) return nullptr;
      cost[static_cast<int>(d)] = v;
    }
    result->costs_.push_back(cost);
  }
  std::vector<uint32_t> roots(num_plans);
  for (uint32_t i = 0; i < num_plans; ++i) {
    if (!reader.GetU32(&roots[i]) || roots[i] >= num_nodes) return nullptr;
  }
  // One forward pass: child indices must refer to already-built nodes, so
  // a valid block materializes without recursion or fixups.
  std::vector<const PlanNode*> nodes;
  nodes.reserve(num_nodes);
  for (uint32_t i = 0; i < num_nodes; ++i) {
    int32_t op_config, table;
    uint32_t left, right;
    uint64_t tables_mask;
    double cardinality, row_width;
    if (!reader.GetI32(&op_config) || !reader.GetI32(&table) ||
        !reader.GetU32(&left) || !reader.GetU32(&right) ||
        !reader.GetU64(&tables_mask) || !reader.GetDouble(&cardinality) ||
        !reader.GetDouble(&row_width)) {
      return nullptr;
    }
    if ((left != kNoChild && left >= i) || (right != kNoChild && right >= i)) {
      return nullptr;
    }
    // Scans have no children, joins have both — anything else is corrupt.
    if ((left == kNoChild) != (right == kNoChild)) return nullptr;
    // The table fields must agree with that shape: a scan reads one
    // in-range table, a join covers exactly its disjoint children. Every
    // reader of a restored plan walks it by these fields, so a
    // checksum-valid record that lies here must not decode.
    if (left == kNoChild) {
      if (table < 0 || table >= TableSet::kMaxTables ||
          tables_mask != TableSet::Singleton(table).mask()) {
        return nullptr;
      }
    } else {
      const TableSet outer = nodes[left]->tables;
      const TableSet inner = nodes[right]->tables;
      if (table != -1 || outer.Intersects(inner) ||
          tables_mask != outer.Union(inner).mask()) {
        return nullptr;
      }
    }
    CostVector cost(static_cast<int>(dims));
    for (uint32_t d = 0; d < dims; ++d) {
      double v;
      if (!reader.GetDouble(&v)) return nullptr;
      cost[static_cast<int>(d)] = v;
    }
    PlanNode* node = result->arena_.New<PlanNode>();
    node->op_config = op_config;
    node->table = table;
    node->left = left == kNoChild ? nullptr : nodes[left];
    node->right = right == kNoChild ? nullptr : nodes[right];
    node->tables = TableSet(tables_mask);
    node->cost = cost;
    node->cardinality = cardinality;
    node->row_width = row_width;
    nodes.push_back(node);
  }
  // A frontier's plans all join the same table set.
  result->plans_.reserve(num_plans);
  for (uint32_t i = 0; i < num_plans; ++i) {
    if (nodes[roots[i]]->tables != nodes[roots[0]]->tables) return nullptr;
    result->plans_.push_back(nodes[roots[i]]);
  }
  if (consumed != nullptr) *consumed = size - reader.remaining();
  return result;
} catch (const std::bad_alloc&) {
  // Allocation failure mid-decode (arena growth, vector reserve — real or
  // injected via arena.new_block) degrades to the undecodable path every
  // caller already handles: a tier probe misses, a restore skips the
  // record. A cache can always refuse to produce an entry.
  return nullptr;
}

}  // namespace persist
}  // namespace moqo
