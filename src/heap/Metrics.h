//===- heap/Metrics.h - Fragmentation metrics -------------------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Point-in-time fragmentation metrics of a heap: how much of the
/// footprint is live, how the free space below the high-water mark is
/// shattered, and the classic external-fragmentation ratio
/// (1 - largest free block / total free space). The examples and the E6
/// bench use these to show *why* a footprint grew, not only that it did.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_HEAP_METRICS_H
#define PCBOUND_HEAP_METRICS_H

#include "heap/Heap.h"

#include <cstdint>

namespace pcb {

/// A snapshot of fragmentation state, all relative to the high-water
/// mark (the heap the manager has committed to). An empty heap (no word
/// ever used) measures as all zeros, including Utilization: there is no
/// footprint to utilize, and defining 0/0 as zero keeps time-series
/// plots starting from the origin instead of a phantom full heap.
struct FragmentationMetrics {
  uint64_t FootprintWords = 0;      ///< the high-water mark
  uint64_t LiveWords = 0;           ///< currently allocated
  uint64_t FreeWords = 0;           ///< free words below the mark
  uint64_t FreeBlocks = 0;          ///< maximal free runs below the mark
  uint64_t LargestFreeBlock = 0;    ///< largest free run below the mark
  double Utilization = 0.0;         ///< live / footprint (0 when empty)
  double ExternalFragmentation = 0; ///< 1 - largest / free
};

/// Live / footprint, 0 for an empty footprint. Every utilization figure
/// goes through this one expression.
inline double utilization(uint64_t LiveWords, uint64_t FootprintWords) {
  return FootprintWords == 0 ? 0.0
                             : double(LiveWords) / double(FootprintWords);
}

/// 1 - largest / free, 0 when nothing is free. Every fragmentation
/// figure goes through this one expression, so a figure derived without
/// measuring (maxExternalFragmentation) cannot drift from a measured one.
/// Non-increasing in \p LargestFreeBlock: rounding the quotient and the
/// subtraction is monotone.
inline double externalFragmentation(uint64_t LargestFreeBlock,
                                    uint64_t FreeWords) {
  return FreeWords == 0
             ? 0.0
             : 1.0 - double(LargestFreeBlock) / double(FreeWords);
}

/// Measures \p H now. The free words are the complement of the live
/// words and the block count follows from the index's maintained count
/// (both O(1)); the largest block is a walk over the board's present
/// pages that judges most supers by their digests and sweeps each dirty
/// super it descends into — O(present pages) plus the words of the
/// supers swept.
FragmentationMetrics measureFragmentation(const Heap &H);

/// max(\p Peak, measureFragmentation(H).ExternalFragmentation), bit for
/// bit, usually without measuring: the blocks of at least T words, T the
/// smallest block length whose fragmentation is <= Peak, cannot raise the
/// peak, and one firstFit(T) query tells whether one lies below the mark.
/// Only when none does, or when the mark lies within T words of
/// AddrLimit, is the largest block walked for. \p Peak must lie in
/// [0, 1].
double maxExternalFragmentation(const Heap &H, double Peak);

} // namespace pcb

#endif // PCBOUND_HEAP_METRICS_H
