//===- mm/BuddyManager.cpp - Binary buddy allocation ---------------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "mm/BuddyManager.h"

#include "support/MathUtils.h"

#include <cassert>

using namespace pcb;

Addr BuddyManager::takeBlock(unsigned Order) {
  assert(Order <= MaxOrder && "request beyond the maximum buddy order");
  unsigned Found = Order;
  while (Found <= MaxOrder && FreeLists[Found].empty())
    ++Found;
  if (Found > MaxOrder) {
    // Carve a fresh block, aligned to its own size, at the frontier.
    Addr A = alignUp(Frontier, pow2(Order));
    Frontier = A + pow2(Order);
    return A;
  }
  Addr A = *FreeLists[Found].begin();
  FreeLists[Found].erase(FreeLists[Found].begin());
  // Split down to the requested order, returning upper halves.
  while (Found > Order) {
    --Found;
    FreeLists[Found].insert(A + pow2(Found));
  }
  return A;
}

void BuddyManager::releaseBlock(Addr A, unsigned Order) {
  while (Order < MaxOrder) {
    Addr Buddy = A ^ pow2(Order);
    auto It = FreeLists[Order].find(Buddy);
    if (It == FreeLists[Order].end())
      break;
    FreeLists[Order].erase(It);
    A = A < Buddy ? A : Buddy;
    ++Order;
  }
  FreeLists[Order].insert(A);
}

Addr BuddyManager::placeFor(uint64_t Size) {
  return takeBlock(log2Ceil(Size));
}

void BuddyManager::onPlaced(ObjectId Id) {
  const Object &O = heap().object(Id);
  PaddingWords += pow2(log2Ceil(O.Size)) - O.Size;
}

void BuddyManager::onFreeing(ObjectId Id) {
  const Object &O = heap().object(Id);
  unsigned Order = log2Ceil(O.Size);
  PaddingWords -= pow2(Order) - O.Size;
  releaseBlock(O.Address, Order);
}
