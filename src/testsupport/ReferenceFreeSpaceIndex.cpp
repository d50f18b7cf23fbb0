//===- testsupport/ReferenceFreeSpaceIndex.cpp - Oracle free index -------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// The pre-rewrite FreeSpaceIndex, verbatim (minus profiler hooks), as a
// testing oracle. Do not optimize this file: its value is being the
// trusted, unchanged original.
//
//===----------------------------------------------------------------------===//

#include "testsupport/ReferenceFreeSpaceIndex.h"

#include "support/MathUtils.h"

#include <algorithm>
#include <cassert>

using namespace pcb;

ReferenceFreeSpaceIndex::ReferenceFreeSpaceIndex() {
  addBlock(0, AddrLimit);
}

unsigned ReferenceFreeSpaceIndex::classOf(uint64_t Size) {
  assert(Size != 0 && "zero-size block");
  unsigned K = log2Floor(Size);
  return K < NumClasses ? K : NumClasses - 1;
}

void ReferenceFreeSpaceIndex::addBlock(Addr Start, Addr End) {
  assert(Start < End && "empty free block");
  ByAddr[Start] = End;
  BySize.emplace(End - Start, Start);
  Buckets[classOf(End - Start)].insert(Start);
}

void ReferenceFreeSpaceIndex::eraseBlock(std::map<Addr, Addr>::iterator It) {
  uint64_t Size = It->second - It->first;
  [[maybe_unused]] size_t Erased = BySize.erase({Size, It->first});
  assert(Erased == 1 && "free block missing from size index");
  Buckets[classOf(Size)].erase(It->first);
  ByAddr.erase(It);
}

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
      eraseBlock(Prev);
    }
  }
  // Find a successor to coalesce with.
  It = ByAddr.find(End);
  if (It != ByAddr.end()) {
    End = It->second;
    eraseBlock(It);
  }
  addBlock(Start, End);
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
  eraseBlock(It);
  if (BlockStart < Start)
    addBlock(BlockStart, Start);
  if (End < BlockEnd)
    addBlock(End, BlockEnd);
}

bool ReferenceFreeSpaceIndex::isFree(Addr Start, uint64_t Size) const {
  assert(Size != 0 && "querying zero words");
  auto It = ByAddr.upper_bound(Start);
  if (It == ByAddr.begin())
    return false;
  --It;
  return It->first <= Start && Start + Size <= It->second;
}

Addr ReferenceFreeSpaceIndex::firstFit(uint64_t Size) const {
  return firstFitFrom(0, Size);
}

Addr ReferenceFreeSpaceIndex::firstFitFrom(Addr From, uint64_t Size) const {
  assert(Size != 0 && "zero-size fit query");
  // A block containing From may serve the request from From onward.
  if (From != 0) {
    auto It = ByAddr.upper_bound(From);
    if (It != ByAddr.begin()) {
      auto Prev = std::prev(It);
      if (Prev->second > From && Prev->second - From >= Size)
        return From;
    }
  }
  // Every block in a class above classOf(Size) fits; blocks in the same
  // class fit iff their exact size does. Take the lowest qualifying start
  // across classes, resolving the boundary class last so its scan can be
  // cut off at the best address found so far.
  unsigned MinClass = classOf(Size);
  Addr Best = InvalidAddr;
  for (unsigned K = MinClass + 1; K < NumClasses; ++K) {
    auto It = Buckets[K].lower_bound(From);
    if (It != Buckets[K].end() && *It < Best)
      Best = *It;
  }
  for (auto It = Buckets[MinClass].lower_bound(From);
       It != Buckets[MinClass].end() && *It < Best; ++It) {
    // Blocks here have size in [2^MinClass, 2^MinClass+1); when Size is
    // an exact power of two (the adversarial workloads) the first block
    // always fits and this loop exits immediately.
    auto BIt = ByAddr.find(*It);
    assert(BIt != ByAddr.end() && "bucket entry missing from map");
    if (BIt->second - BIt->first >= Size) {
      Best = *It;
      break;
    }
  }
  assert(Best != InvalidAddr && "infinite tail should always fit");
  return Best;
}

Addr ReferenceFreeSpaceIndex::bestFit(uint64_t Size) const {
  assert(Size != 0 && "zero-size fit query");
  // The set orders by (size, start): the first entry at or above
  // (Size, 0) is the tightest block, lowest address first.
  auto It = BySize.lower_bound({Size, 0});
  assert(It != BySize.end() && "infinite tail should always fit");
  return It->second;
}

Addr ReferenceFreeSpaceIndex::firstFitAligned(uint64_t Size,
                                              uint64_t Align) const {
  assert(Size != 0 && "zero-size fit query");
  assert(isPowerOfTwo(Align) && "alignment must be a power of two");
  // A block of size >= Size + Align - 1 always admits an aligned
  // placement; smaller qualifying blocks are found by probing classes
  // that could fit Size at all.
  unsigned MinClass = classOf(Size);
  Addr Best = InvalidAddr;
  for (unsigned K = MinClass; K != NumClasses; ++K) {
    for (auto It = Buckets[K].begin(); It != Buckets[K].end(); ++It) {
      if (*It >= Best)
        break;
      auto BIt = ByAddr.find(*It);
      assert(BIt != ByAddr.end() && "bucket entry missing from map");
      Addr Aligned = alignUp(BIt->first, Align);
      if (Aligned < BIt->second && BIt->second - Aligned >= Size) {
        Best = Aligned;
        break;
      }
    }
  }
  assert(Best != InvalidAddr && "infinite tail should always fit");
  return Best;
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
  auto It = ByAddr.upper_bound(Start);
  if (It != ByAddr.begin()) {
    auto Prev = std::prev(It);
    if (Prev->second > Start)
      Free += std::min(Prev->second, End) - Start;
  }
  for (; It != ByAddr.end() && It->first < End; ++It)
    Free += std::min(It->second, End) - It->first;
  return Free;
}

uint64_t ReferenceFreeSpaceIndex::freeWordsBelow(Addr Limit) const {
  return Limit == 0 ? 0 : freeWordsIn(0, Limit);
}

size_t ReferenceFreeSpaceIndex::numBlocksBelow(Addr Limit) const {
  size_t AtOrAbove = 0;
  for (auto It = ByAddr.lower_bound(Limit); It != ByAddr.end(); ++It)
    ++AtOrAbove;
  return ByAddr.size() - AtOrAbove;
}

uint64_t ReferenceFreeSpaceIndex::largestBlockBelow(Addr Limit) const {
  uint64_t Best = 0;
  for (auto It = BySize.rbegin(); It != BySize.rend(); ++It) {
    const auto &[Size, Start] = *It;
    // A clipped span never exceeds the raw size, and sizes only shrink
    // from here on.
    if (Size <= Best)
      break;
    if (Start >= Limit)
      continue;
    Addr End = Start + Size;
    Best = std::max(Best, uint64_t(std::min<Addr>(End, Limit) - Start));
  }
  return Best;
}
