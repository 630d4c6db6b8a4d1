// Copyright (c) 2026 moqo authors. MIT license.
//
// The dominance kernel: the row test a <= b (a[d] <= b[d] for every d)
// that every ParetoSet scan runs. Each scan compares many rows against one
// fixed row — WouldInsert's threshold (the candidate's cost scaled by
// alpha), or the deletion pass's newly inserted cost row — so a kernel is a
// class built once from the fixed row:
//
//   Below(r)  <=>  r <= fixed     (WouldInsert: r is a stored row or a
//                                  block minimum)
//   Above(r)  <=>  fixed <= r     (deletion: r is a stored row or a block
//                                  maximum)
//
// Two kernels, one per scan body (ParetoSet::ScanBody):
//
//  * ScalarRow: the inlined loop of RowLeqScalar, exiting at the first
//    refuting component. Every target has it.
//  * Avx512Row: the fixed row lives in one zmm register (two for nine
//    dimensions), and each row is one masked load and one masked compare
//    per register. Only masked loads touch memory, so a test never reads
//    past the last component of the last row of a matrix. Compiled behind
//    a compile-time guard (x86-64 GCC/Clang, through the target("avx512f")
//    function attribute, so the rest of the binary needs no -mavx512f) and
//    run only where the CPU reports avx512f.
//
// Both kernels are pure predicates over the same ordered IEEE comparisons
// (the +/-inf block sentinels compare identically), so the body a call
// runs can never change optimizer output. tests/core/pareto_set_test.cc
// checks both kernels against RowLeqScalar and runs the randomized
// ParetoSet cross-check through both bodies.

#ifndef MOQO_CORE_DOMINANCE_KERNEL_H_
#define MOQO_CORE_DOMINANCE_KERNEL_H_

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MOQO_DOMINANCE_AVX512 1
#include <immintrin.h>
#else
#define MOQO_DOMINANCE_AVX512 0
#endif

namespace moqo {

/// Portable reference test: a[d] <= b[d] for every d < dims.
inline bool RowLeqScalar(const double* a, const double* b, int dims) {
  for (int d = 0; d < dims; ++d) {
    if (a[d] > b[d]) return false;
  }
  return true;
}

/// Scalar kernel over a fixed row of `dims` components. `fixed` must
/// outlive the kernel.
class ScalarRow {
 public:
  ScalarRow(const double* fixed, int dims) : fixed_(fixed), dims_(dims) {}
  bool Below(const double* row) const {
    return RowLeqScalar(row, fixed_, dims_);
  }
  bool Above(const double* row) const {
    return RowLeqScalar(fixed_, row, dims_);
  }

 private:
  const double* fixed_;
  int dims_;
};

/// True iff this build has the AVX-512F kernel and the running CPU
/// reports avx512f.
inline bool Avx512Available() {
#if MOQO_DOMINANCE_AVX512
  __builtin_cpu_init();  // Idempotent; safe during static initialization.
  return __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

#if MOQO_DOMINANCE_AVX512

#define MOQO_TARGET_AVX512 __attribute__((target("avx512f")))

/// AVX-512F kernel over a fixed row of 1..9 components; construct and call
/// only where Avx512Available(). Components 0..7 sit in one register,
/// component 8 (nine objectives only) in a second one.
class Avx512Row {
 public:
  MOQO_TARGET_AVX512 Avx512Row(const double* fixed, int dims)
      : lo_mask_(static_cast<__mmask8>((1u << (dims < 8 ? dims : 8)) - 1)),
        hi_mask_(static_cast<__mmask8>(dims > 8 ? (1u << (dims - 8)) - 1
                                                : 0)),
        lo_(_mm512_maskz_loadu_pd(lo_mask_, fixed)),
        hi_(hi_mask_ != 0 ? _mm512_maskz_loadu_pd(hi_mask_, fixed + 8)
                          : _mm512_setzero_pd()) {}

  MOQO_TARGET_AVX512 bool Below(const double* row) const {
    // Ordered (non-signalling) row > fixed in any lane refutes row <= fixed.
    return !AnyLane<_CMP_GT_OQ>(row);
  }
  MOQO_TARGET_AVX512 bool Above(const double* row) const {
    // row < fixed in any lane refutes fixed <= row.
    return !AnyLane<_CMP_LT_OQ>(row);
  }

 private:
  /// True iff `kPredicate(row[d], fixed[d])` holds for some active d.
  template <int kPredicate>
  MOQO_TARGET_AVX512 bool AnyLane(const double* row) const {
    __mmask8 hits = _mm512_mask_cmp_pd_mask(
        lo_mask_, _mm512_maskz_loadu_pd(lo_mask_, row), lo_, kPredicate);
    if (hi_mask_ != 0) {
      hits |= _mm512_mask_cmp_pd_mask(
          hi_mask_, _mm512_maskz_loadu_pd(hi_mask_, row + 8), hi_,
          kPredicate);
    }
    return hits != 0;
  }

  __mmask8 lo_mask_;
  __mmask8 hi_mask_;
  __m512d lo_;
  __m512d hi_;
};

#endif  // MOQO_DOMINANCE_AVX512

}  // namespace moqo

#endif  // MOQO_CORE_DOMINANCE_KERNEL_H_
