//===- mm/CompactionLedger.h - The c-partial budget -------------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's compaction model (Section 2.1): a memory manager is
/// c-partial if, at every point of the execution, the total number of
/// words it has moved is at most s/c where s is the total number of words
/// allocated so far. This ledger evaluates that constraint against the
/// heap's running statistics; the MemoryManager base class refuses moves
/// that would breach it, and the execution driver re-validates it as an
/// invariant after every step.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_MM_COMPACTIONLEDGER_H
#define PCBOUND_MM_COMPACTIONLEDGER_H

#include "heap/Heap.h"

#include <cmath>
#include <cstdint>

namespace pcb {

/// The c-partial budget after \p Allocated words: floor(Allocated / C)
/// words of compaction, or UINT64_MAX when C <= 0 (unlimited). Exact for
/// integral C at any \p Allocated: below 2^53 the double quotient's
/// rounding error, under Allocated / (C * 2^53), is smaller than the 1/C
/// gap between a fractional quotient and the next integer, so its floor
/// is exact; from 2^53 on, where Allocated itself would round, integral C
/// divides as integers. (The double path is kept below 2^53 because a
/// 64-bit integer division costs measurably more on the compactors'
/// chunk scans, which ask for the budget once per candidate.)
inline uint64_t cPartialBudget(uint64_t Allocated, double C) {
  if (C <= 0.0)
    return UINT64_MAX;
  if (Allocated < (uint64_t(1) << 53) || C != std::floor(C))
    return uint64_t(std::floor(double(Allocated) / C));
  return C < 0x1p64 ? Allocated / uint64_t(C) : 0;
}

/// Evaluates the c-partial compaction constraint against a heap.
class CompactionLedger {
public:
  /// \p C is the compaction quota denominator. C <= 0 means unlimited
  /// compaction (used by the full-compaction baseline, which is
  /// deliberately *not* a c-partial manager).
  CompactionLedger(const Heap &H, double C) : H(H), C(C) {}

  /// True when compaction is not budget-limited.
  bool isUnlimited() const { return C <= 0.0; }

  double quotaDenominator() const { return C; }

  /// Words of compaction allowed so far: floor(total allocated / c).
  uint64_t budgetWords() const {
    return cPartialBudget(H.stats().TotalAllocatedWords, C);
  }

  /// Words of budget not yet spent.
  uint64_t remainingWords() const {
    uint64_t Budget = budgetWords();
    uint64_t Spent = H.stats().MovedWords;
    return Budget > Spent ? Budget - Spent : 0;
  }

  /// True if moving \p Words more would still respect the budget.
  bool canMove(uint64_t Words) const {
    return isUnlimited() || Words <= remainingWords();
  }

  /// Invariant check: the moves performed so far respect the budget.
  bool holds() const {
    return isUnlimited() || H.stats().MovedWords <= budgetWords();
  }

private:
  const Heap &H;
  double C;
};

} // namespace pcb

#endif // PCBOUND_MM_COMPACTIONLEDGER_H
