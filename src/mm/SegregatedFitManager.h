//===- mm/SegregatedFitManager.h - Per-size-class allocation ----*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Segregated storage in the spirit of Robson's optimal non-moving
/// allocator Ao (Section 2.2): each power-of-two size class owns slots
/// aligned to the class size; a freed slot is only ever reused by its own
/// class. Against programs in P2(M, n) this keeps the footprint within
/// Robson's matching upper bound territory; we measure exactly where it
/// lands in the E4 bench.
///
/// Only the free lists are kept: a live object's slot is its address
/// and class log2Ceil(size), read off the heap's object table.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_MM_SEGREGATEDFITMANAGER_H
#define PCBOUND_MM_SEGREGATEDFITMANAGER_H

#include "mm/MemoryManager.h"

#include <set>
#include <vector>

namespace pcb {

/// Per-size-class slots with size-aligned placement.
class SegregatedFitManager : public MemoryManager {
public:
  SegregatedFitManager(Heap &H, double C) : MemoryManager(H, C) {}
  std::string name() const override { return "segregated-fit"; }

protected:
  Addr placeFor(uint64_t Size) override;
  void onFreeing(ObjectId Id) override;

private:
  static constexpr unsigned MaxClass = 48;

  /// Free slots per class, lowest address first.
  std::vector<std::set<Addr>> FreeSlots =
      std::vector<std::set<Addr>>(MaxClass + 1);
  Addr Frontier = 0;
};

} // namespace pcb

#endif // PCBOUND_MM_SEGREGATEDFITMANAGER_H
