//===- realloc/CostObliviousAllocator.cpp - Bucketed backfill ------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "realloc/CostObliviousAllocator.h"

#include "obs/Profiler.h"

#include <cassert>

using namespace pcb;

Addr CostObliviousAllocator::placeFor(uint64_t Size) {
  return heap().freeSpace().firstFit(Size);
}

void CostObliviousAllocator::onPlaced(ObjectId Id) {
  ReallocManager::onPlaced(Id);
  const Object &O = heap().object(Id);
  Classes[O.Size][O.Address] = Id;
}

void CostObliviousAllocator::onFreeing(ObjectId Id) {
  const Object &O = heap().object(Id);
  auto It = Classes.find(O.Size);
  assert(It != Classes.end() && "freeing an object missing from its class");
  It->second.erase(O.Address);
  if (It->second.empty())
    Classes.erase(It);
}

void CostObliviousAllocator::onFreed(ObjectId, Addr From, uint64_t Size) {
  // A program that frees moved objects (PF) re-enters here from inside
  // reallocMove, once per link of the cascade. Queue the hole; only the
  // outermost frame (the one that found the queue empty) drains it, in
  // FIFO order, so the stack stays flat however long the cascade runs. PF
  // frees one object per move, so the moves come in the order a
  // recursive cascade would make them.
  Holes.push_back({From, Size});
  if (Holes.size() > 1)
    return;
  ScopedTimer Timer(Profiler::SecRealloc);
  // Index, not iterator: a move's free appends to Holes.
  for (size_t I = 0; I != Holes.size(); ++I) {
    auto [Hole, HoleSize] = Holes[I];
    auto It = Classes.find(HoleSize);
    if (It == Classes.end())
      continue;
    // The highest-addressed class-mate strictly above the hole slides
    // down into it: addresses only ever decrease, so a program that
    // frees every moved object (PF) drives a cascade that removes one
    // object per link and terminates.
    auto Last = std::prev(It->second.end());
    if (Last->first <= Hole)
      continue;
    Profiler::bump(Profiler::CtrReallocPasses);
    // Perfect fit and no overlap: the mover has the hole's exact size
    // and a strictly higher address, so its range starts at or past the
    // hole's end.
    if (reallocMove(Last->second, Hole))
      ++NumBackfills;
  }
  Holes.clear();
}
