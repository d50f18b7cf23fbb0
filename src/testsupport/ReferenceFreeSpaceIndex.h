//===- testsupport/ReferenceFreeSpaceIndex.h - Oracle free index -*- C++ -*-==//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The specification of the free-space queries: the oracle for the
/// bitboard FreeSpaceIndex, and the free space of ReferenceHeap. One
/// sorted block vector holds (start, end) pairs in address order; blocks
/// are disjoint and coalesced, and the last runs to AddrLimit (the
/// model's infinite tail).
/// Each query is its definition walked over the blocks in address order,
/// with nothing else to keep in sync: linear in the number of free blocks
/// and obviously correct. The equivalence property test and the
/// differential fuzzer's heap-parity oracle drive both indexes through
/// identical operation streams and compare every query result.
///
/// Only tests and the fuzzing harness may link it, never the
/// heap/mm/bench layers. It has no profiler hooks: the live index owns the
/// fsi.* sections, and the oracle must not double-count them.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_TESTSUPPORT_REFERENCEFREESPACEINDEX_H
#define PCBOUND_TESTSUPPORT_REFERENCEFREESPACEINDEX_H

#include "heap/HeapTypes.h"

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace pcb {

/// The free blocks in address order, and every query as a walk over them.
class ReferenceFreeSpaceIndex {
public:
  /// Initializes with the whole address space [0, AddrLimit) free.
  ReferenceFreeSpaceIndex() : ByAddr{{0, AddrLimit}} {}

  /// Marks [Start, Start + Size) free, coalescing neighbours. The range
  /// must currently be absent from the index (i.e. used).
  void release(Addr Start, uint64_t Size);

  /// Marks [Start, Start + Size) used. The range must be fully free.
  void reserve(Addr Start, uint64_t Size);

  /// True if [Start, Start + Size) is entirely free.
  bool isFree(Addr Start, uint64_t Size) const;

  /// Lowest address where \p Size words fit.
  Addr firstFit(uint64_t Size) const { return firstFitFrom(0, Size); }

  /// Lowest address >= \p From where \p Size words fit (a block
  /// containing \p From counts from \p From onward).
  Addr firstFitFrom(Addr From, uint64_t Size) const;

  /// Address of the smallest free block that fits \p Size (ties broken by
  /// lowest address).
  Addr bestFit(uint64_t Size) const;

  /// Lowest \p Align-aligned address where \p Size words fit.
  /// \p Align must be a power of two.
  Addr firstFitAligned(uint64_t Size, uint64_t Align) const;

  /// Start of the free block with the largest span clipped to [0, Limit)
  /// among blocks starting below \p Limit whose clipped span is at least
  /// \p Size (ties broken by lowest address), or InvalidAddr.
  Addr worstFitBelow(uint64_t Size, Addr Limit) const;

  /// Number of free blocks (including the infinite tail).
  size_t numBlocks() const { return ByAddr.size(); }

  /// Free words within [Start, End).
  uint64_t freeWordsIn(Addr Start, Addr End) const;

  /// Largest free run clipped to [0, Limit): the maximum over blocks
  /// starting below \p Limit of min(end, Limit) - start.
  uint64_t largestBlockBelow(Addr Limit) const;

  /// The free blocks as (start, end), in address order.
  const std::vector<std::pair<Addr, Addr>> &blocks() const { return ByAddr; }

private:
  /// Index of the first block starting at or after \p A.
  size_t lowerBound(Addr A) const;

  std::vector<std::pair<Addr, Addr>> ByAddr; // (start, end), by start
};

} // namespace pcb

#endif // PCBOUND_TESTSUPPORT_REFERENCEFREESPACEINDEX_H
