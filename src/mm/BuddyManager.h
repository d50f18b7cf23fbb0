//===- mm/BuddyManager.h - Binary buddy allocation --------------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A binary buddy system: requests are rounded up to powers of two,
/// blocks split and coalesce pairwise. Buddy systems are the standard
/// non-moving design with internal rather than external fragmentation;
/// they serve as another baseline for the Robson adversary, which
/// allocates power-of-two sizes only (so the buddy's rounding costs it
/// nothing and the comparison is fair).
///
/// The arena grows upward: when no free block of the needed order exists
/// the manager carves a fresh, size-aligned block at the frontier. The
/// alignment gap below a carved block is permanently unused and — unlike
/// object padding — is never entered into the free lists, which keeps
/// buddy-coalescing sound across carve boundaries.
///
/// Only the free lists are kept: a live object's block is its address
/// and order log2Ceil(size), read off the heap's object table.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_MM_BUDDYMANAGER_H
#define PCBOUND_MM_BUDDYMANAGER_H

#include "mm/MemoryManager.h"

#include <set>
#include <vector>

namespace pcb {

/// Binary buddy allocator over a growing arena.
class BuddyManager : public MemoryManager {
public:
  BuddyManager(Heap &H, double C) : MemoryManager(H, C) {}
  std::string name() const override { return "buddy"; }

  /// Words handed out as block padding (block size minus object size),
  /// i.e. the buddy's internal fragmentation so far, live blocks only.
  uint64_t internalPaddingWords() const { return PaddingWords; }

protected:
  Addr placeFor(uint64_t Size) override;
  void onPlaced(ObjectId Id) override;
  void onFreeing(ObjectId Id) override;

private:
  /// Takes a free block of order \p Order, splitting larger blocks or
  /// carving from the frontier as needed.
  Addr takeBlock(unsigned Order);

  /// Returns block [A, A + 2^Order) to the free lists, coalescing.
  void releaseBlock(Addr A, unsigned Order);

  static constexpr unsigned MaxOrder = 48;

  /// Free blocks per order, lowest address first for determinism.
  std::vector<std::set<Addr>> FreeLists =
      std::vector<std::set<Addr>>(MaxOrder + 1);
  /// Where the next carved block begins.
  Addr Frontier = 0;
  uint64_t PaddingWords = 0;
};

} // namespace pcb

#endif // PCBOUND_MM_BUDDYMANAGER_H
