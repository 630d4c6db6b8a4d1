#include "plan/plan_node.h"

#include <algorithm>

#include "util/byte_codec.h"

namespace moqo {

int PlanNode::Height() const {
  if (IsScan()) return 1;
  return 1 + std::max(left->Height(), right->Height());
}

bool PlanNode::IsLeftDeep() const {
  if (IsScan()) return true;
  return right->IsScan() && left->IsLeftDeep();
}

const PlanNode* DeepCopyPlan(
    const PlanNode* plan, Arena* arena,
    std::unordered_map<const PlanNode*, const PlanNode*>* copied) {
  if (plan == nullptr) return nullptr;
  auto it = copied->find(plan);
  if (it != copied->end()) return it->second;
  PlanNode* copy = arena->New<PlanNode>(*plan);
  copy->left = DeepCopyPlan(plan->left, arena, copied);
  copy->right = DeepCopyPlan(plan->right, arena, copied);
  (*copied)[plan] = copy;
  return copy;
}

bool PlansEqual(const PlanNode* a, const PlanNode* b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  if (a->op_config != b->op_config || a->table != b->table ||
      !(a->tables == b->tables)) {
    return false;
  }
  return PlansEqual(a->left, b->left) && PlansEqual(a->right, b->right);
}

uint64_t PlanHash(const PlanNode* plan) {
  if (plan == nullptr) return 0;
  const uint64_t words[] = {static_cast<uint64_t>(plan->op_config) + 1,
                            static_cast<uint64_t>(plan->table) + 2,
                            plan->tables.mask(), PlanHash(plan->left) * 3,
                            PlanHash(plan->right) * 5};
  return Fnv1a(words, sizeof(words), kFnv1aOffsetBasis);
}

}  // namespace moqo
