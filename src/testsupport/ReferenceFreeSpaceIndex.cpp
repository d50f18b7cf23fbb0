//===- testsupport/ReferenceFreeSpaceIndex.cpp - Oracle free index -------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// Every query below is its definition, walked over the free blocks in
// address order. Keep it that way: the oracle is worth exactly as much as
// it is easy to check by reading.
//
//===----------------------------------------------------------------------===//

#include "testsupport/ReferenceFreeSpaceIndex.h"

#include "support/MathUtils.h"

#include <algorithm>
#include <cassert>
#include <iterator>

using namespace pcb;

void ReferenceFreeSpaceIndex::release(Addr Start, uint64_t Size) {
  assert(Size != 0 && "releasing zero words");
  Addr End = Start + Size;

  // Find a predecessor to coalesce with.
  auto It = ByAddr.lower_bound(Start);
  // A free block beginning inside [Start, End) means the range is being
  // double-released (a block beginning exactly at End is fine: it is the
  // coalescing successor).
  assert((It == ByAddr.end() || It->first >= End) &&
         "releasing a range that is partly free");
  if (It != ByAddr.begin()) {
    auto Prev = std::prev(It);
    assert(Prev->second <= Start && "releasing a range that is partly free");
    if (Prev->second == Start) {
      Start = Prev->first;
      ByAddr.erase(Prev);
    }
  }
  // Find a successor to coalesce with.
  It = ByAddr.find(End);
  if (It != ByAddr.end()) {
    End = It->second;
    ByAddr.erase(It);
  }
  ByAddr[Start] = End;
}

void ReferenceFreeSpaceIndex::reserve(Addr Start, uint64_t Size) {
  assert(Size != 0 && "reserving zero words");
  Addr End = Start + Size;
  auto It = ByAddr.upper_bound(Start);
  assert(It != ByAddr.begin() && "reserve target is not free");
  --It;
  Addr BlockStart = It->first;
  Addr BlockEnd = It->second;
  assert(BlockStart <= Start && End <= BlockEnd &&
         "reserve target is not entirely free");
  ByAddr.erase(It);
  if (BlockStart < Start)
    ByAddr[BlockStart] = Start;
  if (End < BlockEnd)
    ByAddr[End] = BlockEnd;
}

bool ReferenceFreeSpaceIndex::isFree(Addr Start, uint64_t Size) const {
  assert(Size != 0 && "querying zero words");
  auto It = ByAddr.upper_bound(Start);
  if (It == ByAddr.begin())
    return false;
  --It;
  return It->first <= Start && Start + Size <= It->second;
}

Addr ReferenceFreeSpaceIndex::firstFitFrom(Addr From, uint64_t Size) const {
  assert(Size != 0 && "zero-size fit query");
  // A block straddling From serves the request from From onward.
  if (From != 0 && isFree(From, Size))
    return From;
  for (auto It = ByAddr.lower_bound(From); It != ByAddr.end(); ++It)
    if (It->second - It->first >= Size)
      return It->first;
  assert(false && "infinite tail should always fit");
  return InvalidAddr;
}

Addr ReferenceFreeSpaceIndex::bestFit(uint64_t Size) const {
  assert(Size != 0 && "zero-size fit query");
  Addr Best = InvalidAddr;
  uint64_t BestSize = UINT64_MAX;
  for (const auto &[Start, End] : ByAddr) {
    // Strictly smaller only, so the lowest address wins a tie.
    if (End - Start >= Size && End - Start < BestSize) {
      Best = Start;
      BestSize = End - Start;
    }
  }
  assert(Best != InvalidAddr && "infinite tail should always fit");
  return Best;
}

Addr ReferenceFreeSpaceIndex::firstFitAligned(uint64_t Size,
                                              uint64_t Align) const {
  assert(Size != 0 && "zero-size fit query");
  assert(isPowerOfTwo(Align) && "alignment must be a power of two");
  for (const auto &[Start, End] : ByAddr) {
    Addr Aligned = alignUp(Start, Align);
    if (Aligned < End && End - Aligned >= Size)
      return Aligned;
  }
  assert(false && "infinite tail should always fit");
  return InvalidAddr;
}

Addr ReferenceFreeSpaceIndex::worstFitBelow(uint64_t Size, Addr Limit) const {
  assert(Size != 0 && "zero-size fit query");
  Addr Best = InvalidAddr;
  uint64_t BestSpan = 0;
  for (auto It = ByAddr.begin(); It != ByAddr.end() && It->first < Limit;
       ++It) {
    uint64_t Span = std::min<Addr>(It->second, Limit) - It->first;
    if (Span >= Size && Span > BestSpan) {
      BestSpan = Span;
      Best = It->first;
    }
  }
  return Best;
}

uint64_t ReferenceFreeSpaceIndex::freeWordsIn(Addr Start, Addr End) const {
  assert(Start < End && "empty query range");
  uint64_t Free = 0;
  for (const auto &[BlockStart, BlockEnd] : ByAddr) {
    if (BlockStart >= End)
      break;
    if (BlockEnd > Start)
      Free += std::min(BlockEnd, End) - std::max(BlockStart, Start);
  }
  return Free;
}

size_t ReferenceFreeSpaceIndex::numBlocksBelow(Addr Limit) const {
  // The blocks before the first one starting at or past Limit.
  return size_t(std::distance(ByAddr.begin(), ByAddr.lower_bound(Limit)));
}

uint64_t ReferenceFreeSpaceIndex::largestBlockBelow(Addr Limit) const {
  uint64_t Best = 0;
  for (auto It = ByAddr.begin(); It != ByAddr.end() && It->first < Limit;
       ++It)
    Best = std::max<uint64_t>(Best, std::min<Addr>(It->second, Limit) -
                                        It->first);
  return Best;
}
