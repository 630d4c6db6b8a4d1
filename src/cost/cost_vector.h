// Copyright (c) 2026 moqo authors. MIT license.
//
// CostVector and the dominance relations of Section 3:
//   - c1 "dominates" c2           (c1 <= c2 component-wise)
//   - c1 "strictly dominates" c2  (dominates and c1 != c2)
//   - c1 "approximately dominates c2 with precision alpha"
//     (for every objective o: c1[o] <= alpha * c2[o])
// plus weighted cost C_W(c) = sum_o c[o] * W[o] and bound checking.
//
// A CostVector only carries the *active* dimensions of the current problem
// instance (the ObjectiveSet chosen per test case); storage is inline and
// bounded by kNumObjectives, so vectors are value types with no heap use —
// matching the O(1)-space-per-plan assumption of Theorems 1 and 4.

#ifndef MOQO_COST_COST_VECTOR_H_
#define MOQO_COST_COST_VECTOR_H_

#include <array>
#include <cassert>
#include <string>

#include "cost/objective.h"

namespace moqo {

/// A non-negative, real-valued cost vector over the active objectives.
class CostVector {
 public:
  CostVector() : size_(0), values_{} {}

  /// Zero vector with `size` active dimensions.
  explicit CostVector(int size) : size_(size), values_{} {
    assert(size >= 0 && size <= kNumObjectives);
  }

  /// Vector with all `size` dimensions set to `value`.
  CostVector(int size, double value) : CostVector(size) {
    for (int i = 0; i < size_; ++i) values_[i] = value;
  }

  int size() const { return size_; }

  double operator[](int i) const {
    assert(i >= 0 && i < size_);
    return values_[i];
  }
  double& operator[](int i) {
    assert(i >= 0 && i < size_);
    return values_[i];
  }

  /// The components as one contiguous row of size() doubles.
  const double* data() const { return values_.data(); }

  /// True iff every component is finite and >= 0 (model invariant).
  bool IsValid() const;

  /// Component-wise sum; both vectors must have equal size.
  CostVector Plus(const CostVector& other) const;

  /// Component-wise max; both vectors must have equal size.
  CostVector Max(const CostVector& other) const;

  /// Every component multiplied by `factor` (>= 0).
  CostVector Scaled(double factor) const;

  std::string ToString() const;

  bool operator==(const CostVector&) const = default;

 private:
  int size_;
  std::array<double, kNumObjectives> values_;
};

/// Section 3: c1 "dominates" c2 iff c1 has lower or equal cost in every
/// objective. Inline: this is the innermost loop of all optimizers.
inline bool Dominates(const CostVector& c1, const CostVector& c2) {
  assert(c1.size() == c2.size());
  for (int i = 0; i < c1.size(); ++i) {
    if (c1[i] > c2[i]) return false;
  }
  return true;
}

/// Section 3: dominates and not equal.
inline bool StrictlyDominates(const CostVector& c1, const CostVector& c2) {
  return Dominates(c1, c2) && !(c1 == c2);
}

/// Section 3: c1 approximately dominates c2 with precision alpha >= 1 iff
/// for every objective, c1[o] <= alpha * c2[o].
inline bool ApproxDominates(const CostVector& c1, const CostVector& c2,
                            double alpha) {
  assert(c1.size() == c2.size());
  assert(alpha >= 1.0);
  for (int i = 0; i < c1.size(); ++i) {
    if (c1[i] > c2[i] * alpha) return false;
  }
  return true;
}

/// Non-negative per-objective weights W; C_W(c) = sum_o c[o] * W[o].
class WeightVector {
 public:
  WeightVector() : size_(0), weights_{} {}
  explicit WeightVector(int size) : size_(size), weights_{} {}

  /// Weight 1 on every active objective.
  static WeightVector Uniform(int size) {
    WeightVector w(size);
    for (int i = 0; i < size; ++i) w.weights_[i] = 1.0;
    return w;
  }

  /// Weight 1 on dimension `index`, 0 elsewhere.
  static WeightVector OneHot(int size, int index) {
    WeightVector w(size);
    w.weights_[index] = 1.0;
    return w;
  }

  int size() const { return size_; }
  double operator[](int i) const { return weights_[i]; }
  double& operator[](int i) { return weights_[i]; }

  /// The weighted cost C_W(c).
  double WeightedCost(const CostVector& c) const {
    assert(c.size() == size_);
    double sum = 0;
    for (int i = 0; i < size_; ++i) sum += weights_[i] * c[i];
    return sum;
  }

  /// Bit-exact equality over the active dimensions (the service uses it to
  /// tell exact cache hits from frontier hits).
  bool operator==(const WeightVector& other) const {
    if (size_ != other.size_) return false;
    for (int i = 0; i < size_; ++i) {
      if (weights_[i] != other.weights_[i]) return false;
    }
    return true;
  }

  std::string ToString() const;

 private:
  int size_;
  std::array<double, kNumObjectives> weights_;
};

/// Non-negative per-objective upper bounds B; B[o] = +infinity means
/// unbounded. "Cost vector c exceeds the bounds if there is at least one
/// objective o with c[o] > B[o]" (Section 3). An empty vector bounds
/// nothing: every cost respects it.
class BoundVector {
 public:
  BoundVector() : size_(0), bounds_{} {}

  /// All dimensions unbounded.
  explicit BoundVector(int size);

  static BoundVector Unbounded(int size) { return BoundVector(size); }

  int size() const { return size_; }
  double operator[](int i) const { return bounds_[i]; }
  double& operator[](int i) { return bounds_[i]; }

  bool IsUnbounded(int i) const;

  /// True iff no dimension carries a finite bound.
  bool AllUnbounded() const;

  /// True iff c[o] <= B[o] for every objective ("c respects the bounds").
  bool Respects(const CostVector& c) const;

  /// True iff c respects the bounds relaxed by factor alpha (c <= alpha*B),
  /// as used by the IRA stopping condition (Algorithm 3, line 13).
  bool RespectsRelaxed(const CostVector& c, double alpha) const;

  /// Number of finite bounds.
  int NumFinite() const;

  /// Equality up to the weighted-MOQO canonicalization: two bound vectors
  /// are equivalent when both are all-unbounded (any size, including 0) or
  /// when they match bit-exactly per dimension.
  bool operator==(const BoundVector& other) const {
    if (AllUnbounded() && other.AllUnbounded()) return true;
    if (size_ != other.size_) return false;
    for (int i = 0; i < size_; ++i) {
      if (bounds_[i] != other.bounds_[i]) return false;
    }
    return true;
  }

  std::string ToString() const;

 private:
  int size_;
  std::array<double, kNumObjectives> bounds_;
};

/// Relative cost rho_I(p) of Definition 3 for weighted instances:
/// CW(c)/CW(c*), where c* is the optimum's cost. Returns 1 when both
/// weighted costs are zero.
double RelativeCost(const WeightVector& weights, const CostVector& cost,
                    const CostVector& optimal_cost);

}  // namespace moqo

#endif  // MOQO_COST_COST_VECTOR_H_
