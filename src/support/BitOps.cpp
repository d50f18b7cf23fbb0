//===- support/BitOps.cpp - Multi-word scan kernels -----------------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The AVX2 fast paths of the multi-word kernels. They live in this one
// translation unit with a per-function target attribute, so the rest of
// the project compiles for the baseline ISA; a __builtin_cpu_supports
// check, run once at static initialization, sets the flag the inline
// dispatchers in BitOps.h test. Both paths return the same result for the
// same input — the vector code only accelerates the "skip boring words"
// part of a scan, it never changes which word is found, and a popcount
// is a sum.
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

bool detectAvx2Popcount() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt");
}

} // namespace

const bool Avx2Scans = detectAvx2();
const bool Avx2Popcount = detectAvx2Popcount();

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

// Four words a step: each byte's count is the sum of a 16-entry table
// lookup per nibble (vpshufb), and vpsadbw sums the bytes of each word
// into its 64-bit lane. The words past the last group of four take one
// popcnt each.
__attribute__((target("avx2,popcnt"))) uint64_t
popcountWordsAvx2(const uint64_t *W, size_t N) {
  const __m256i Nibbles = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3,
                                           2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3,
                                           1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i Low = _mm256_set1_epi8(0x0f);
  __m256i Acc = _mm256_setzero_si256();
  size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    __m256i V = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(W + I));
    __m256i Lo = _mm256_shuffle_epi8(Nibbles, _mm256_and_si256(V, Low));
    __m256i Hi = _mm256_shuffle_epi8(
        Nibbles, _mm256_and_si256(_mm256_srli_epi16(V, 4), Low));
    Acc = _mm256_add_epi64(
        Acc, _mm256_sad_epu8(_mm256_add_epi8(Lo, Hi), _mm256_setzero_si256()));
  }
  uint64_t Sum = uint64_t(_mm256_extract_epi64(Acc, 0)) +
                 uint64_t(_mm256_extract_epi64(Acc, 1)) +
                 uint64_t(_mm256_extract_epi64(Acc, 2)) +
                 uint64_t(_mm256_extract_epi64(Acc, 3));
  for (; I != N; ++I)
    Sum += uint64_t(_mm_popcnt_u64(W[I]));
  return Sum;
}

} // namespace detail
} // namespace pcb

#endif // PCB_HAVE_AVX2_KERNELS
