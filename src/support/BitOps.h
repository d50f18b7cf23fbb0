//===- support/BitOps.h - Word-level bit manipulation -----------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single home for packed-bitmap word arithmetic: range masks, bit
/// scans, and popcounts over 64-bit words (with 32-bit variants for the
/// exact solver's arena boards). The heap substrate (PagedBoard,
/// FreeSpaceIndex, Heap) and the exact game (src/exact/) build on the
/// same helpers so a boundary bug cannot hide in one copy.
///
/// The multi-word kernels (find the first interesting word in an array,
/// count the set bits of one) have a portable implementation here and
/// AVX2 variants in
/// BitOps.cpp. The CPU check runs once, at static initialization; each
/// scan then costs one inline test of the resulting flag before calling
/// its kernel, so the fit scans can use the kernels on their hot path.
/// The AVX2 paths return bit-identical results and exist purely for
/// speed, so determinism is unaffected. Configure with
/// -DPCB_DISABLE_AVX2=ON to force the portable path (CI exercises both).
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_SUPPORT_BITOPS_H
#define PCBOUND_SUPPORT_BITOPS_H

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>

namespace pcb {

/// Bits per packed word. Addresses map to (word = A / WordBits,
/// bit = A % WordBits); bit i of a word is address (word * 64 + i), so
/// "lower address" is "less significant bit" everywhere.
inline constexpr unsigned WordBits = 64;

/// The lowest \p N bits set; N may be 0..64 inclusive.
constexpr uint64_t lowMask(unsigned N) {
  assert(N <= 64 && "mask wider than a word");
  return N >= 64 ? ~uint64_t(0) : (uint64_t(1) << N) - 1;
}

/// 32-bit variant for the exact solver's arena boards (W <= 30 cells).
constexpr uint32_t lowMask32(unsigned N) {
  assert(N <= 32 && "mask wider than a word");
  return N >= 32 ? ~uint32_t(0) : (uint32_t(1) << N) - 1;
}

/// Bits [Lo, Hi) of a word, Lo <= Hi <= 64.
constexpr uint64_t bitRange(unsigned Lo, unsigned Hi) {
  assert(Lo <= Hi && "inverted bit range");
  return lowMask(Hi) & ~lowMask(Lo);
}

/// Index of the lowest set bit. \p X must be nonzero.
inline unsigned countTrailingZeros(uint64_t X) {
  assert(X != 0 && "bit scan over zero");
  return unsigned(std::countr_zero(X));
}

/// Index of the highest set bit. \p X must be nonzero.
inline unsigned topBitIndex(uint64_t X) {
  assert(X != 0 && "bit scan over zero");
  return 63u - unsigned(std::countl_zero(X));
}

/// Number of set bits. Baseline x86-64 has no popcnt instruction, and
/// there std::popcount becomes a call into libgcc's table-driven
/// __popcountdi2; the SWAR sum below stays inline. Everywhere else
/// (a -mpopcnt build, aarch64) std::popcount is one instruction.
inline unsigned popcount64(uint64_t X) {
#if defined(__x86_64__) && !defined(__POPCNT__)
  X = X - ((X >> 1) & 0x5555555555555555u);
  X = (X & 0x3333333333333333u) + ((X >> 2) & 0x3333333333333333u);
  X = (X + (X >> 4)) & 0x0f0f0f0f0f0f0f0fu;
  return unsigned((X * 0x0101010101010101u) >> 56);
#else
  return unsigned(std::popcount(X));
#endif
}

#if !defined(PCB_DISABLE_AVX2) && defined(__x86_64__)
#define PCB_HAVE_AVX2_KERNELS 1
#else
#define PCB_HAVE_AVX2_KERNELS 0
#endif

namespace detail {

inline size_t findNonzeroWordSwar(const uint64_t *W, size_t N) {
  size_t I = 0;
  // Unrolled: OR four words and test once; the scalar tail resolves the
  // exact index.
  for (; I + 4 <= N; I += 4)
    if ((W[I] | W[I + 1] | W[I + 2] | W[I + 3]) != 0)
      break;
  for (; I != N; ++I)
    if (W[I] != 0)
      return I;
  return N;
}

inline size_t findNotOnesWordSwar(const uint64_t *W, size_t N) {
  size_t I = 0;
  for (; I + 4 <= N; I += 4)
    if ((W[I] & W[I + 1] & W[I + 2] & W[I + 3]) != ~uint64_t(0))
      break;
  for (; I != N; ++I)
    if (W[I] != ~uint64_t(0))
      return I;
  return N;
}

inline uint64_t popcountWordsSwar(const uint64_t *W, size_t N) {
  uint64_t Sum = 0;
  for (size_t I = 0; I != N; ++I)
    Sum += popcount64(W[I]);
  return Sum;
}

#if PCB_HAVE_AVX2_KERNELS
/// True when the CPU supports AVX2 (and, for the popcount, POPCNT); set
/// once during static initialization (a call running before that uses
/// the portable path, which returns the same result).
extern const bool Avx2Scans;
extern const bool Avx2Popcount;
size_t findNonzeroWordAvx2(const uint64_t *W, size_t N);
size_t findNotOnesWordAvx2(const uint64_t *W, size_t N);
uint64_t popcountWordsAvx2(const uint64_t *W, size_t N);
#endif

} // namespace detail

/// Index of the first word in W[0..N) that is nonzero, or N. AVX2 when
/// available; result is identical either way.
inline size_t findNonzeroWord(const uint64_t *W, size_t N) {
#if PCB_HAVE_AVX2_KERNELS
  if (detail::Avx2Scans)
    return detail::findNonzeroWordAvx2(W, N);
#endif
  return detail::findNonzeroWordSwar(W, N);
}

/// Index of the first word in W[0..N) that is not all-ones, or N.
inline size_t findNotOnesWord(const uint64_t *W, size_t N) {
#if PCB_HAVE_AVX2_KERNELS
  if (detail::Avx2Scans)
    return detail::findNotOnesWordAvx2(W, N);
#endif
  return detail::findNotOnesWordSwar(W, N);
}

/// Number of set bits in W[0..N). AVX2 and POPCNT when available; the
/// sum is identical either way.
inline uint64_t popcountWords(const uint64_t *W, size_t N) {
#if PCB_HAVE_AVX2_KERNELS
  if (detail::Avx2Popcount)
    return detail::popcountWordsAvx2(W, N);
#endif
  return detail::popcountWordsSwar(W, N);
}

/// True when the AVX2 kernels are compiled in and the CPU supports them
/// (exposed so the bench header can report which path ran).
inline bool avx2ScanActive() {
#if PCB_HAVE_AVX2_KERNELS
  return detail::Avx2Scans;
#else
  return false;
#endif
}

} // namespace pcb

#endif // PCBOUND_SUPPORT_BITOPS_H
