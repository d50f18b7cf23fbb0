//===- mm/SlidingCompactor.cpp - Sliding (full) compaction ---------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "mm/SlidingCompactor.h"

#include "obs/Profiler.h"

#include <algorithm>
#include <vector>

using namespace pcb;

Addr SlidingCompactor::placeFor(uint64_t Size) {
  const FreeSpaceIndex &Free = heap().freeSpace();
  Addr Hwm = heap().stats().HighWaterMark;

  // Reuse a hole when the first fit lies below the high-water mark.
  Addr A = Free.firstFit(Size);
  if (A + Size <= Hwm)
    return A;

  // Only compact when the free space below the mark could actually absorb
  // the request afterwards. Every object lies below the mark, so the free
  // space below it is Hwm minus the live words — O(1) from the stats.
  uint64_t FreeBelow = Hwm - heap().stats().LiveWords;
  bool WorthTrying =
      !HadFruitlessAttempt ||
      ledger().remainingWords() != LastFruitlessBudget;
  if (Hwm > 0 && FreeBelow >= Size && WorthTrying) {
    if (slideAll() > 0) {
      ++NumCompactions;
      HadFruitlessAttempt = false;
      A = Free.firstFit(Size);
    } else {
      // Nothing moved, so the heap and its first fit are unchanged.
      HadFruitlessAttempt = true;
      LastFruitlessBudget = ledger().remainingWords();
    }
  }
  return A;
}

uint64_t SlidingCompactor::slideAll() {
  ScopedTimer Timer(Profiler::SecCompaction);
  Profiler::bump(Profiler::CtrCompactionPasses);
  // Everything below the lowest free address is contiguously live, i.e.
  // already at its packed position, so the slide starts at the first gap.
  // Objects are visited in address order, lazily: a pass usually ends on
  // the first budget-denied move, so snapshotting the whole live set up
  // front is O(live) of mostly wasted work. The walk ahead of the cursor
  // is stable because moves only go downward and the move callback can
  // free only the just-moved object, which is already behind the cursor.
  // Sliding each object to the packed position never collides because
  // predecessors have already moved left. The first gap is the start of
  // the first free block, read without a fit query so that a pass which
  // moves nothing leaves its placement at one search.
  uint64_t Moved = 0;
  Addr Target = heap().freeSpace().lowestFree();
  for (ObjectId Id = heap().firstLiveAt(Target); Id != InvalidObjectId;) {
    const Object &O = heap().object(Id);
    Addr After = O.Address + 1;
    if (O.Address != Target) {
      assert(Target < O.Address && "sliding would move an object upward");
      if (!tryMoveObject(Id, Target))
        break; // Budget exhausted; stop compacting.
      ++Moved;
    }
    // Moving may have freed the object (adversary callback); it still
    // consumed its packed span only if it is still there.
    if (heap().isLive(Id))
      Target += O.Size;
    Id = heap().firstLiveAt(After);
  }
  return Moved;
}
