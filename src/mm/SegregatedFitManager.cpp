//===- mm/SegregatedFitManager.cpp - Per-size-class allocation -----------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "mm/SegregatedFitManager.h"

#include "support/MathUtils.h"

#include <cassert>

using namespace pcb;

Addr SegregatedFitManager::placeFor(uint64_t Size) {
  unsigned Class = log2Ceil(Size);
  assert(Class <= MaxClass && "request beyond the maximum size class");
  std::set<Addr> &List = FreeSlots[Class];
  if (List.empty()) {
    Addr A = alignUp(Frontier, pow2(Class));
    Frontier = A + pow2(Class);
    return A;
  }
  Addr A = *List.begin();
  List.erase(List.begin());
  return A;
}

void SegregatedFitManager::onFreeing(ObjectId Id) {
  const Object &O = heap().object(Id);
  FreeSlots[log2Ceil(O.Size)].insert(O.Address);
}
