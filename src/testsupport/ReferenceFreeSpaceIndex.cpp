//===- testsupport/ReferenceFreeSpaceIndex.cpp - Oracle free index -------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// The free blocks are one sorted block vector; release, reserve and isFree
// find their place in it with one binary search (lowerBound). Every query
// below is its definition, walked over the free blocks in address order.
// Keep it that way: the oracle is worth exactly as much as it is easy to
// check by reading.
//
//===----------------------------------------------------------------------===//

#include "testsupport/ReferenceFreeSpaceIndex.h"

#include "support/MathUtils.h"

#include <algorithm>
#include <cassert>

using namespace pcb;

size_t ReferenceFreeSpaceIndex::lowerBound(Addr A) const {
  auto StartsBefore = [](const std::pair<Addr, Addr> &Block, Addr Key) {
    return Block.first < Key;
  };
  return size_t(
      std::lower_bound(ByAddr.begin(), ByAddr.end(), A, StartsBefore) -
      ByAddr.begin());
}

void ReferenceFreeSpaceIndex::release(Addr Start, uint64_t Size) {
  assert(Size != 0 && "releasing zero words");
  Addr End = Start + Size;

  // The released range goes between blocks I - 1 and I.
  size_t I = lowerBound(Start);
  // A free block beginning inside [Start, End) means the range is being
  // double-released (a block beginning exactly at End is fine: it is the
  // coalescing successor).
  assert((I == ByAddr.size() || ByAddr[I].first >= End) &&
         "releasing a range that is partly free");
  assert((I == 0 || ByAddr[I - 1].second <= Start) &&
         "releasing a range that is partly free");
  bool JoinsPrev = I != 0 && ByAddr[I - 1].second == Start;
  bool JoinsNext = I != ByAddr.size() && ByAddr[I].first == End;
  if (JoinsPrev && JoinsNext) {
    ByAddr[I - 1].second = ByAddr[I].second;
    ByAddr.erase(ByAddr.begin() + I);
  } else if (JoinsPrev) {
    ByAddr[I - 1].second = End;
  } else if (JoinsNext) {
    ByAddr[I].first = Start;
  } else {
    ByAddr.insert(ByAddr.begin() + I, {Start, End});
  }
}

void ReferenceFreeSpaceIndex::reserve(Addr Start, uint64_t Size) {
  assert(Size != 0 && "reserving zero words");
  Addr End = Start + Size;
  // The last block starting at or before Start.
  size_t I = lowerBound(Start + 1);
  assert(I != 0 && "reserve target is not free");
  --I;
  auto [BlockStart, BlockEnd] = ByAddr[I];
  assert(BlockStart <= Start && End <= BlockEnd &&
         "reserve target is not entirely free");
  if (End < BlockEnd)
    ByAddr.insert(ByAddr.begin() + I + 1, {End, BlockEnd});
  if (BlockStart < Start)
    ByAddr[I].second = Start;
  else
    ByAddr.erase(ByAddr.begin() + I);
}

bool ReferenceFreeSpaceIndex::isFree(Addr Start, uint64_t Size) const {
  assert(Size != 0 && "querying zero words");
  size_t I = lowerBound(Start + 1);
  if (I == 0)
    return false;
  const auto &[BlockStart, BlockEnd] = ByAddr[I - 1];
  return BlockStart <= Start && Start + Size <= BlockEnd;
}

Addr ReferenceFreeSpaceIndex::firstFitFrom(Addr From, uint64_t Size) const {
  assert(Size != 0 && "zero-size fit query");
  // A block straddling From serves the request from From onward.
  if (From != 0 && isFree(From, Size))
    return From;
  for (auto It = ByAddr.begin() + lowerBound(From); It != ByAddr.end();
       ++It)
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

uint64_t ReferenceFreeSpaceIndex::largestBlockBelow(Addr Limit) const {
  uint64_t Best = 0;
  for (auto It = ByAddr.begin(); It != ByAddr.end() && It->first < Limit;
       ++It)
    Best = std::max<uint64_t>(Best, std::min<Addr>(It->second, Limit) -
                                        It->first);
  return Best;
}
