//===- testsupport/ReferenceFreeSpaceIndex.h - Oracle free index -*- C++ -*-==//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The original node-based free-space index, kept verbatim as the one
/// testing oracle for the bitboard FreeSpaceIndex that replaced it on the
/// hot path, and the free space of ReferenceHeap. Three synchronized
/// structures keep every query logarithmic in the number of free blocks:
/// an address-ordered map, a size-ordered set (best fit), and
/// per-size-class address sets (first fit). Slower but obviously correct;
/// the equivalence property test and the differential fuzzer's
/// heap-parity oracle drive both indexes through identical operation
/// streams and compare every query result.
///
/// Deliberately not linked into the heap/mm/bench layers — only tests and
/// the fuzzing harness may depend on it. Profiler instrumentation is
/// stripped (the live index owns the fsi.* sections; the oracle must not
/// double-count them when both run side by side).
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_TESTSUPPORT_REFERENCEFREESPACEINDEX_H
#define PCBOUND_TESTSUPPORT_REFERENCEFREESPACEINDEX_H

#include "heap/HeapTypes.h"

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <utility>

namespace pcb {

/// Address- and size-indexed free blocks with placement queries; the
/// pre-rewrite implementation, preserved as an oracle.
class ReferenceFreeSpaceIndex {
public:
  /// Initializes with the whole address space [0, AddrLimit) free.
  ReferenceFreeSpaceIndex();

  /// Marks [Start, Start + Size) free, coalescing neighbours. The range
  /// must currently be absent from the index (i.e. used).
  void release(Addr Start, uint64_t Size);

  /// Marks [Start, Start + Size) used. The range must be fully free.
  void reserve(Addr Start, uint64_t Size);

  /// True if [Start, Start + Size) is entirely free.
  bool isFree(Addr Start, uint64_t Size) const;

  /// Lowest address where \p Size words fit.
  Addr firstFit(uint64_t Size) const;

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
  /// \p Size (ties broken by lowest address), or InvalidAddr. A plain
  /// address-order scan — the obviously-correct worst fit.
  Addr worstFitBelow(uint64_t Size, Addr Limit) const;

  /// Number of free blocks (including the infinite tail).
  size_t numBlocks() const { return ByAddr.size(); }

  /// Free words below \p Limit.
  uint64_t freeWordsBelow(Addr Limit) const;

  /// Free words within [Start, End).
  uint64_t freeWordsIn(Addr Start, Addr End) const;

  /// Number of free blocks that begin below \p Limit.
  size_t numBlocksBelow(Addr Limit) const;

  /// Largest free run clipped to [0, Limit): the maximum over blocks
  /// starting below \p Limit of min(end, Limit) - start.
  uint64_t largestBlockBelow(Addr Limit) const;

  /// Iteration over (start, end) free blocks in address order.
  using const_iterator = std::map<Addr, Addr>::const_iterator;
  const_iterator begin() const { return ByAddr.begin(); }
  const_iterator end() const { return ByAddr.end(); }

private:
  void eraseBlock(std::map<Addr, Addr>::iterator It);
  void addBlock(Addr Start, Addr End);

  /// Size class of a block: floor(log2(size)). Class K holds sizes in
  /// [2^K, 2^(K+1)).
  static unsigned classOf(uint64_t Size);

  static constexpr unsigned NumClasses = 61;

  std::map<Addr, Addr> ByAddr;              // start -> end
  std::set<std::pair<uint64_t, Addr>> BySize; // (size, start); best fit
  std::set<Addr> Buckets[NumClasses];       // per-class starts (first fit)
};

} // namespace pcb

#endif // PCBOUND_TESTSUPPORT_REFERENCEFREESPACEINDEX_H
