//===- support/MathUtils.h - Integer and log helpers ------------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small integer helpers used throughout the simulator and bound formulas:
/// powers of two, integer logarithms, alignment, and checked division.
/// Sizes in this project are measured in abstract heap words, held in
/// unsigned 64-bit integers.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_SUPPORT_MATHUTILS_H
#define PCBOUND_SUPPORT_MATHUTILS_H

#include <bit>
#include <cassert>
#include <cstdint>

namespace pcb {

/// Returns true if \p X is a (positive) power of two.
constexpr bool isPowerOfTwo(uint64_t X) { return X != 0 && (X & (X - 1)) == 0; }

/// Returns 2^\p Exp. \p Exp must be below 64.
constexpr uint64_t pow2(unsigned Exp) {
  assert(Exp < 64 && "pow2 exponent out of range");
  return uint64_t(1) << Exp;
}

/// Floor of log2(\p X). \p X must be nonzero.
constexpr unsigned log2Floor(uint64_t X) {
  assert(X != 0 && "log2Floor of zero");
  return unsigned(std::bit_width(X)) - 1;
}

/// Ceiling of log2(\p X). \p X must be nonzero.
constexpr unsigned log2Ceil(uint64_t X) {
  assert(X != 0 && "log2Ceil of zero");
  return isPowerOfTwo(X) ? log2Floor(X) : log2Floor(X) + 1;
}

/// Exact log2 of a power of two.
constexpr unsigned log2Exact(uint64_t X) {
  assert(isPowerOfTwo(X) && "log2Exact of a non-power-of-two");
  return log2Floor(X);
}

/// Rounds \p X up to the next multiple of \p Align (a power of two).
constexpr uint64_t alignUp(uint64_t X, uint64_t Align) {
  assert(isPowerOfTwo(Align) && "alignment must be a power of two");
  return (X + Align - 1) & ~(Align - 1);
}

/// Rounds \p X down to a multiple of \p Align (a power of two).
constexpr uint64_t alignDown(uint64_t X, uint64_t Align) {
  assert(isPowerOfTwo(Align) && "alignment must be a power of two");
  return X & ~(Align - 1);
}

/// Rounds \p X up to the next power of two. Returns 1 for X == 0.
constexpr uint64_t nextPowerOfTwo(uint64_t X) {
  if (X <= 1)
    return 1;
  return pow2(log2Ceil(X));
}

/// Integer division rounding up. \p Den must be nonzero.
constexpr uint64_t ceilDiv(uint64_t Num, uint64_t Den) {
  assert(Den != 0 && "ceilDiv by zero");
  return (Num + Den - 1) / Den;
}

/// Saturating subtraction for unsigned values.
constexpr uint64_t satSub(uint64_t A, uint64_t B) { return A > B ? A - B : 0; }

} // namespace pcb

#endif // PCBOUND_SUPPORT_MATHUTILS_H
