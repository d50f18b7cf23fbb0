//===- support/BitOps.cpp - Multi-word scan kernels -----------------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The AVX2 fast paths of the multi-word scans. They live in this one
// translation unit with a per-function target attribute, so the rest of
// the project compiles for the baseline ISA; a __builtin_cpu_supports
// check, run once at static initialization, sets the flag the inline
// dispatchers in BitOps.h test. Both paths return the same index for the
// same input — the vector code only accelerates the "skip boring words"
// part of a scan, it never changes which word is found.
//
//===----------------------------------------------------------------------===//

#include "support/BitOps.h"

#if PCB_HAVE_AVX2_KERNELS

#include <immintrin.h>

namespace pcb {
namespace detail {
namespace {

bool detectAvx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}

} // namespace

const bool Avx2Scans = detectAvx2();

__attribute__((target("avx2"))) size_t findNonzeroWordAvx2(const uint64_t *W,
                                                           size_t N) {
  size_t I = 0;
  for (; I + 8 <= N; I += 8) {
    __m256i A = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(W + I));
    __m256i B =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(W + I + 4));
    if (!_mm256_testz_si256(A, A) || !_mm256_testz_si256(B, B))
      break;
  }
  for (; I != N; ++I)
    if (W[I] != 0)
      return I;
  return N;
}

__attribute__((target("avx2"))) size_t findNotOnesWordAvx2(const uint64_t *W,
                                                           size_t N) {
  const __m256i Ones = _mm256_set1_epi64x(-1);
  size_t I = 0;
  for (; I + 8 <= N; I += 8) {
    __m256i A = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(W + I));
    __m256i B =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(W + I + 4));
    // testc(x, ones) is 1 iff x == all-ones.
    if (!_mm256_testc_si256(A, Ones) || !_mm256_testc_si256(B, Ones))
      break;
  }
  for (; I != N; ++I)
    if (W[I] != ~uint64_t(0))
      return I;
  return N;
}

} // namespace detail
} // namespace pcb

#endif // PCB_HAVE_AVX2_KERNELS
