#include "cost/cost_vector.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace moqo {

bool CostVector::IsValid() const {
  for (int i = 0; i < size_; ++i) {
    if (!std::isfinite(values_[i]) || values_[i] < 0) return false;
  }
  return true;
}

CostVector CostVector::Plus(const CostVector& other) const {
  assert(size_ == other.size_);
  CostVector result(size_);
  for (int i = 0; i < size_; ++i) result.values_[i] = values_[i] + other[i];
  return result;
}

CostVector CostVector::Max(const CostVector& other) const {
  assert(size_ == other.size_);
  CostVector result(size_);
  for (int i = 0; i < size_; ++i) {
    result.values_[i] = std::max(values_[i], other[i]);
  }
  return result;
}

CostVector CostVector::Scaled(double factor) const {
  CostVector result(size_);
  for (int i = 0; i < size_; ++i) result.values_[i] = values_[i] * factor;
  return result;
}

std::string CostVector::ToString() const {
  std::ostringstream out;
  out << "(";
  for (int i = 0; i < size_; ++i) {
    if (i > 0) out << ", ";
    out << values_[i];
  }
  out << ")";
  return out.str();
}

std::string WeightVector::ToString() const {
  std::ostringstream out;
  out << "W(";
  for (int i = 0; i < size_; ++i) {
    if (i > 0) out << ", ";
    out << weights_[i];
  }
  out << ")";
  return out.str();
}

BoundVector::BoundVector(int size) : size_(size), bounds_{} {
  for (int i = 0; i < size_; ++i) {
    bounds_[i] = std::numeric_limits<double>::infinity();
  }
}

bool BoundVector::IsUnbounded(int i) const {
  return std::isinf(bounds_[i]);
}

bool BoundVector::AllUnbounded() const {
  for (int i = 0; i < size_; ++i) {
    if (!IsUnbounded(i)) return false;
  }
  return true;
}

bool BoundVector::Respects(const CostVector& c) const {
  if (size_ == 0) return true;
  assert(c.size() == size_);
  for (int i = 0; i < size_; ++i) {
    if (c[i] > bounds_[i]) return false;
  }
  return true;
}

bool BoundVector::RespectsRelaxed(const CostVector& c, double alpha) const {
  if (size_ == 0) return true;
  assert(c.size() == size_);
  for (int i = 0; i < size_; ++i) {
    // inf * alpha stays inf; finite bounds relax multiplicatively.
    if (c[i] > bounds_[i] * alpha) return false;
  }
  return true;
}

int BoundVector::NumFinite() const {
  int count = 0;
  for (int i = 0; i < size_; ++i) {
    if (!IsUnbounded(i)) ++count;
  }
  return count;
}

std::string BoundVector::ToString() const {
  std::ostringstream out;
  out << "B(";
  for (int i = 0; i < size_; ++i) {
    if (i > 0) out << ", ";
    if (IsUnbounded(i)) {
      out << "inf";
    } else {
      out << bounds_[i];
    }
  }
  out << ")";
  return out.str();
}

double RelativeCost(const WeightVector& weights, const CostVector& cost,
                    const CostVector& optimal_cost) {
  const double actual = weights.WeightedCost(cost);
  const double best = weights.WeightedCost(optimal_cost);
  if (best == 0) return actual == 0 ? 1.0 : std::numeric_limits<double>::infinity();
  return actual / best;
}

}  // namespace moqo
