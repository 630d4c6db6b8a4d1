#include "core/pareto_set.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "core/dominance_kernel.h"

namespace moqo {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The ablation's deletion test (aggressive_delete): Above(r) <=> the new
/// row <= alpha * r. Also sound against a block maximum: alpha * r <=
/// alpha * max for every row r of the block.
class ScaledRow {
 public:
  ScaledRow(const double* fixed, int dims, double alpha)
      : fixed_(fixed), dims_(dims), alpha_(alpha) {}
  bool Above(const double* row) const {
    for (int d = 0; d < dims_; ++d) {
      if (fixed_[d] > row[d] * alpha_) return false;
    }
    return true;
  }

 private:
  const double* fixed_;
  int dims_;
  double alpha_;
};

}  // namespace

const ParetoSet::ScanBody ParetoSet::kBestScanBody =
    Avx512Available() ? ScanBody::kAvx512 : ScanBody::kScalar;

template <class Row>
bool ParetoSet::HasDominator(const Row& threshold, Rejecters* hot,
                             int first) const {
  if (hot != nullptr) {
    for (int h = 0; h < hot->used; ++h) {
      if (threshold.Below(&hot->rows[h * kNumObjectives])) return true;
    }
  }
  // Newest blocks first: consecutive candidates usually come from the same
  // split and are most often dominated by a recent insertion.
  const double* costs = costs_.data();
  for (int b = NumBlocks() - 1; b >= first / kBlockSize; --b) {
    // A block can contain a dominator only if its component-wise min is
    // below the threshold in every dimension (+inf mins — dead blocks —
    // never pass).
    if (!threshold.Below(&block_min_[static_cast<size_t>(b) * dims_])) {
      continue;
    }
    const int begin = std::max(b * kBlockSize, first);
    const int end = std::min(b * kBlockSize + kBlockSize, rows());
    for (int i = end - 1; i >= begin; --i) {
      // Row test first: most rows fail it, and a tombstone's stale row is
      // still in bounds.
      const double* row = costs + static_cast<size_t>(i) * dims_;
      if (threshold.Below(row) && plans_[i] != nullptr) {
        if (hot != nullptr) RememberRejecter(row, hot);
        return true;
      }
    }
  }
  return false;
}

template <class Row>
void ParetoSet::DeleteDominated(const Row& row, int end_row) {
  const double* costs = costs_.data();
  for (int b = 0; b * kBlockSize < end_row; ++b) {
    // The new plan can dominate a block member only if row <= block_max
    // (-inf maxes — dead blocks — never pass).
    if (!row.Above(&block_max_[static_cast<size_t>(b) * dims_])) continue;
    const int begin = b * kBlockSize;
    const int end = std::min(begin + kBlockSize, end_row);
    bool removed_any = false;
    for (int i = begin; i < end; ++i) {
      if (row.Above(costs + static_cast<size_t>(i) * dims_) &&
          plans_[i] != nullptr) {
        plans_[i] = nullptr;
        --live_;
        removed_any = true;
      }
    }
    if (removed_any) RebuildBlock(b);
  }
}

#if MOQO_DOMINANCE_AVX512
// flatten inlines the pass and its kernel calls into this one
// AVX-512F-compiled loop.
MOQO_TARGET_AVX512 __attribute__((flatten)) bool
ParetoSet::HasDominatorAvx512(const double* threshold, int dims,
                              Rejecters* hot, int first) const {
  return HasDominator(Avx512Row(threshold, dims), hot, first);
}

MOQO_TARGET_AVX512 __attribute__((flatten)) void
ParetoSet::DeleteDominatedAvx512(const double* row, int dims, int end) {
  DeleteDominated(Avx512Row(row, dims), end);
}
#endif  // MOQO_DOMINANCE_AVX512

void ParetoSet::RememberRejecter(const double* row, Rejecters* hot) const {
  double* slot = &hot->rows[hot->next * kNumObjectives];
  for (int d = 0; d < dims_; ++d) slot[d] = row[d];
  hot->next = (hot->next + 1) % Rejecters::kSlots;
  hot->used = std::min(hot->used + 1, Rejecters::kSlots);
}

bool ParetoSet::WouldInsert(const CostVector& cost,
                            const PruneOptions& options, Rejecters* hot,
                            int first, [[maybe_unused]] ScanBody body) const {
  // Recent-rejecter cache (sound only with the default deletion rule: a
  // tombstoned plan is plainly dominated by a live one, so its rejections
  // transfer; with aggressive deletion that implication weakens to alpha^2).
  if (options.aggressive_delete) hot = nullptr;
  const int dims = cost.size();
  // stored ⪯_alpha cost  <=>  stored ⪯ alpha*cost; the alpha multiply is
  // hoisted out of the scans by scaling the candidate once into a
  // stack-local threshold row.
  double threshold[kNumObjectives];
  if (options.alpha <= 1.0) {
    for (int d = 0; d < dims; ++d) threshold[d] = cost[d];
  } else {
    for (int d = 0; d < dims; ++d) threshold[d] = cost[d] * options.alpha;
  }
#if MOQO_DOMINANCE_AVX512
  if (body == ScanBody::kAvx512) {
    return !HasDominatorAvx512(threshold, dims, hot, first);
  }
#endif
  return !HasDominator(ScalarRow(threshold, dims), hot, first);
}

void ParetoSet::Append(const PlanNode* plan) {
  const CostVector& cost = plan->cost;
  const int dims = cost.size();
  if (dims_ == 0) dims_ = dims;

  // Append the row and fold it into the last block's summaries.
  plans_.push_back(plan);
  for (int d = 0; d < dims; ++d) costs_.push_back(cost[d]);
  ++live_;
  if (static_cast<int>(block_min_.size()) <
      NumBlocks() * static_cast<int>(dims_)) {
    block_min_.insert(block_min_.end(), dims, kInf);
    block_max_.insert(block_max_.end(), dims, -kInf);
  }
  double* bmin = &block_min_[static_cast<size_t>(NumBlocks() - 1) * dims_];
  double* bmax = &block_max_[static_cast<size_t>(NumBlocks() - 1) * dims_];
  for (int d = 0; d < dims; ++d) {
    bmin[d] = std::min(bmin[d], cost[d]);
    bmax[d] = std::max(bmax[d], cost[d]);
  }
}

void ParetoSet::DeleteDominatedSince(int mark, const PruneOptions& options,
                                     [[maybe_unused]] ScanBody body) {
  // Each appended row owes the deletion pass over the rows before it.
  // Rows after it need none: a row it dominates would have failed
  // WouldInsert against it. Plain dominance by default (see header);
  // approximate dominance only in the ablation mode.
  const bool scaled = options.aggressive_delete && options.alpha > 1.0;
  for (int j = mark; j < rows(); ++j) {
    const double* row = costs_.data() + static_cast<size_t>(j) * dims_;
    if (scaled) {
      DeleteDominated(ScaledRow(row, dims_, options.alpha), j);
#if MOQO_DOMINANCE_AVX512
    } else if (body == ScanBody::kAvx512) {
      DeleteDominatedAvx512(row, dims_, j);
#endif
    } else {
      DeleteDominated(ScalarRow(row, dims_), j);
    }
  }
  // Compact when tombstones dominate the storage.
  if (live_ * 2 < rows()) Compact();
}

void ParetoSet::Insert(const PlanNode* plan, const PruneOptions& options,
                       ScanBody body) {
  Append(plan);
  DeleteDominatedSince(rows() - 1, options, body);
}

bool ParetoSet::Prune(const PlanNode* plan, const PruneOptions& options,
                      ScanBody body) {
  if (!WouldInsert(plan->cost, options, nullptr, 0, body)) return false;
  Insert(plan, options, body);
  return true;
}

void ParetoSet::RebuildBlock(int b) {
  const int begin = b * kBlockSize;
  const int end = std::min(begin + kBlockSize, rows());
  double* bmin = &block_min_[static_cast<size_t>(b) * dims_];
  double* bmax = &block_max_[static_cast<size_t>(b) * dims_];
  for (int d = 0; d < dims_; ++d) {
    bmin[d] = kInf;
    bmax[d] = -kInf;
  }
  const double* costs = costs_.data();
  for (int i = begin; i < end; ++i) {
    if (plans_[i] == nullptr) continue;
    const double* row = costs + static_cast<size_t>(i) * dims_;
    for (int d = 0; d < dims_; ++d) {
      bmin[d] = std::min(bmin[d], row[d]);
      bmax[d] = std::max(bmax[d], row[d]);
    }
  }
}

void ParetoSet::Compact() {
  size_t kept = 0;
  for (size_t i = 0; i < plans_.size(); ++i) {
    if (plans_[i] == nullptr) continue;
    if (kept != i) {
      plans_[kept] = plans_[i];
      std::copy_n(costs_.begin() + i * dims_, dims_,
                  costs_.begin() + kept * dims_);
    }
    ++kept;
  }
  plans_.resize(kept);
  costs_.resize(kept * dims_);
  live_ = static_cast<int>(kept);
  block_min_.assign(static_cast<size_t>(NumBlocks()) * dims_, kInf);
  block_max_.assign(static_cast<size_t>(NumBlocks()) * dims_, -kInf);
  for (int b = 0; b < NumBlocks(); ++b) RebuildBlock(b);
}

void ParetoSet::Seal() { Compact(); }

void ParetoSet::LoadSealed(const std::vector<const PlanNode*>& plans) {
  clear();
  if (plans.empty()) return;
  dims_ = plans.front()->cost.size();
  plans_.reserve(plans.size());
  costs_.reserve(plans.size() * static_cast<size_t>(dims_));
  for (const PlanNode* plan : plans) {
    assert(plan != nullptr && plan->cost.size() == dims_);
    plans_.push_back(plan);
    for (int d = 0; d < dims_; ++d) costs_.push_back(plan->cost[d]);
  }
  live_ = static_cast<int>(plans.size());
  // Compact is a no-op row-wise (no tombstones) but rebuilds the block
  // min/max summaries exactly as a local build's Seal would.
  Seal();
}

void ParetoSet::clear() {
  plans_.clear();
  costs_.clear();
  block_min_.clear();
  block_max_.clear();
  dims_ = 0;
  live_ = 0;
}

CostVector ParetoSet::cost_at(int i) const {
  CostVector cost(dims_);
  const double* row = costs_.data() + static_cast<size_t>(i) * dims_;
  for (int d = 0; d < dims_; ++d) cost[d] = row[d];
  return cost;
}

std::vector<const PlanNode*> ParetoSet::plans() const {
  std::vector<const PlanNode*> result;
  result.reserve(live_);
  for (const PlanNode* plan : plans_) {
    if (plan != nullptr) result.push_back(plan);
  }
  return result;
}

const PlanNode* ParetoSet::SelectBest(const WeightVector& weights,
                                      const BoundVector& bounds) const {
  double weighted_cost = 0;
  const int best = SelectBestRow(
      rows(), dims_, weights, bounds,
      [this](int i) -> const double* {
        if (plans_[i] == nullptr) return nullptr;
        return costs_.data() + static_cast<size_t>(i) * dims_;
      },
      &weighted_cost);
  return best < 0 ? nullptr : plans_[best];
}

const PlanNode* ParetoSet::SelectBestWeighted(
    const WeightVector& weights) const {
  return SelectBest(weights, BoundVector());
}

std::vector<CostVector> ParetoSet::Frontier() const {
  std::vector<CostVector> frontier;
  frontier.reserve(live_);
  for (int i = 0; i < rows(); ++i) {
    if (plans_[i] != nullptr) frontier.push_back(cost_at(i));
  }
  return frontier;
}

}  // namespace moqo
