//===- heap/IntervalSet.cpp - Disjoint half-open interval set ------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "heap/IntervalSet.h"

#include <algorithm>
#include <cassert>

using namespace pcb;

void IntervalSet::insert(Addr Start, Addr End) {
  assert(Start < End && "empty interval");
  assert(!overlaps(Start, End) && "inserting an overlapping interval");
  Total += End - Start;

  // Coalesce with a predecessor ending exactly at Start.
  auto It = Map.lower_bound(Start);
  if (It != Map.begin()) {
    auto Prev = std::prev(It);
    if (Prev->second == Start) {
      Start = Prev->first;
      Map.erase(Prev);
    }
  }
  // Coalesce with a successor starting exactly at End.
  It = Map.find(End);
  if (It != Map.end()) {
    End = It->second;
    Map.erase(It);
  }
  Map[Start] = End;
}

void IntervalSet::erase(Addr Start, Addr End) {
  assert(Start < End && "empty interval");
  assert(containsRange(Start, End) && "erasing a range not in the set");
  Total -= End - Start;

  auto It = Map.upper_bound(Start);
  assert(It != Map.begin() && "containsRange lied");
  --It;
  Addr BlockStart = It->first;
  Addr BlockEnd = It->second;
  Map.erase(It);
  if (BlockStart < Start)
    Map[BlockStart] = Start;
  if (End < BlockEnd)
    Map[End] = BlockEnd;
}

bool IntervalSet::containsRange(Addr Start, Addr End) const {
  assert(Start < End && "empty interval");
  auto It = firstEndingAfter(Start);
  return It != Map.end() && It->first <= Start && End <= It->second;
}

bool IntervalSet::overlaps(Addr Start, Addr End) const {
  assert(Start < End && "empty interval");
  auto It = firstEndingAfter(Start);
  return It != Map.end() && It->first < End;
}

uint64_t IntervalSet::coveredWords(Addr Start, Addr End) const {
  assert(Start < End && "empty interval");
  uint64_t Covered = 0;
  for (auto It = firstEndingAfter(Start); It != Map.end() && It->first < End;
       ++It)
    Covered += std::min(It->second, End) - std::max(It->first, Start);
  return Covered;
}

void IntervalSet::clear() {
  Map.clear();
  Total = 0;
}

std::pair<Addr, Addr> IntervalSet::intervalContaining(Addr A) const {
  auto It = firstEndingAfter(A);
  if (It != Map.end() && It->first <= A)
    return {It->first, It->second};
  return {InvalidAddr, InvalidAddr};
}
