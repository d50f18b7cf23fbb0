//===- heap/Heap.cpp - The simulated word-addressed heap -----------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "heap/Heap.h"

#include "obs/Profiler.h"

#include <algorithm>
#include <cassert>
#include <string>

using namespace pcb;

ObjectId Heap::idStartingAt(Addr Address) const {
  const StartPage *Pg = Starts.find(Address / PageBits);
  uint64_t Off = Address % PageBits;
  assert(Pg && (Pg->W[Off / WordBits] >> (Off % WordBits) & 1) &&
         "no object starts here");
  return Pg->IdAt[Off];
}

ObjectId Heap::firstLiveAt(Addr A) const {
  uint64_t B = Starts.findFirstSet(A);
  return B == Starts.NoBit ? InvalidObjectId : idStartingAt(B);
}

ObjectId Heap::place(Addr Address, uint64_t Size) {
  ScopedTimer Timer(Profiler::SecHeapPlace);
  assert(Size != 0 && "zero-size object");
  assert(Address + Size <= AddrLimit && "placement beyond the address space");
  Free.reserve(Address, Size);

  ObjectId Id = ObjectId(Objects.size());
  Objects.push_back(Object{Address, Size, ObjectState::Live});
  Starts.setBit(Address).IdAt[Address % PageBits] = Id;

  Stats.TotalAllocatedWords += Size;
  Stats.LiveWords += Size;
  Stats.PeakLiveWords = std::max(Stats.PeakLiveWords, Stats.LiveWords);
  Stats.HighWaterMark = std::max(Stats.HighWaterMark, Address + Size);
  ++Stats.NumAllocations;
  if (OnEvent)
    OnEvent(HeapEvent::alloc(Id, Address, Size));
  return Id;
}

void Heap::free(ObjectId Id) {
  ScopedTimer Timer(Profiler::SecHeapFree);
  assert(isLive(Id) && "freeing a dead or unknown object");
  Object &O = Objects[Id];
  Free.release(O.Address, O.Size);
  Starts.clearBit(O.Address);
  O.State = ObjectState::Freed;
  Stats.LiveWords -= O.Size;
  ++Stats.NumFrees;
  if (OnEvent)
    OnEvent(HeapEvent::release(Id, O.Address, O.Size));
}

void Heap::move(ObjectId Id, Addr NewAddress) {
  ScopedTimer Timer(Profiler::SecHeapMove);
  assert(isLive(Id) && "moving a dead or unknown object");
  Object &O = Objects[Id];
  assert(NewAddress + O.Size <= AddrLimit && "move beyond the address space");
  // Vacate first so that sliding moves (target overlapping the source, as
  // in memmove) are allowed; reserve still asserts the target is free of
  // every *other* object.
  Free.release(O.Address, O.Size);
  Free.reserve(NewAddress, O.Size);
  Starts.clearBit(O.Address);
  Starts.setBit(NewAddress).IdAt[NewAddress % PageBits] = Id;
  Addr OldAddress = O.Address;
  O.Address = NewAddress;
  Stats.MovedWords += O.Size;
  Stats.HighWaterMark = std::max(Stats.HighWaterMark, NewAddress + O.Size);
  ++Stats.NumMoves;
  if (OnEvent)
    OnEvent(HeapEvent::move(Id, OldAddress, NewAddress, O.Size));
}

bool Heap::checkConsistency(std::string *Why) const {
  auto Fail = [&](const std::string &Reason) {
    if (Why)
      *Why = Reason;
    return false;
  };
  uint64_t LiveWords = 0;
  uint64_t LiveCount = 0;
  Addr PrevEnd = 0;
  uint64_t MaxEnd = 0;
  // Walk the start index in address order.
  auto CheckOne = [&](Addr Address, ObjectId Id) {
    if (Id >= Objects.size())
      return Fail("address index names an unknown object id " +
                  std::to_string(Id));
    const Object &O = Objects[Id];
    if (!O.isLive() || O.Address != Address)
      return Fail("address index disagrees with object table at id " +
                  std::to_string(Id));
    if (Address < PrevEnd)
      return Fail("object " + std::to_string(Id) +
                  " overlaps its predecessor at address " +
                  std::to_string(Address));
    // Every word of the object must be absent from the free index.
    if (Free.freeWordsIn(Address, O.end()) != 0)
      return Fail("object " + std::to_string(Id) +
                  " overlaps the free index");
    PrevEnd = O.end();
    MaxEnd = std::max(MaxEnd, uint64_t(O.end()));
    LiveWords += O.Size;
    ++LiveCount;
    return true;
  };
  for (uint64_t B = Starts.findFirstSet(0); B != Starts.NoBit;
       B = Starts.findFirstSet(B + 1))
    if (!CheckOne(Addr(B), idStartingAt(B)))
      return false;
  // Every live object appears in the index; no dead object does.
  uint64_t TableLive = 0;
  for (const Object &O : Objects)
    TableLive += O.isLive();
  if (TableLive != LiveCount)
    return Fail("object table has " + std::to_string(TableLive) +
                " live objects but the address index has " +
                std::to_string(LiveCount));
  // The free index is the exact complement up to the high-water mark.
  if (Stats.HighWaterMark != 0 &&
      Free.freeWordsIn(0, Stats.HighWaterMark) !=
          Stats.HighWaterMark - LiveWords)
    return Fail("free index is not the complement of the live objects "
                "below the high-water mark");
  if (!Free.checkDigests(Why))
    return false;
  if (LiveWords != Stats.LiveWords)
    return Fail("LiveWords statistic " + std::to_string(Stats.LiveWords) +
                " does not match recount " + std::to_string(LiveWords));
  if (MaxEnd > Stats.HighWaterMark)
    return Fail("an object ends above the recorded high-water mark");
  return true;
}

std::vector<ObjectId> Heap::liveObjects() const {
  std::vector<ObjectId> Ids;
  for (uint64_t B = Starts.findFirstSet(0); B != Starts.NoBit;
       B = Starts.findFirstSet(B + 1))
    Ids.push_back(idStartingAt(B));
  return Ids;
}

uint64_t Heap::occupancyMask(unsigned Count) const {
  assert(Count <= 64 && "mask covers at most 64 words");
  uint64_t Occ;
  occupancyWords(0, 1, &Occ);
  return Occ & lowMask(Count);
}

uint64_t Heap::objectStartMask(unsigned Count) const {
  assert(Count <= 64 && "mask covers at most 64 words");
  uint64_t Starts;
  objectStartWords(0, 1, &Starts);
  return Starts & lowMask(Count);
}

void Heap::occupancyWords(Addr Start, size_t Count, uint64_t *Out) const {
  Free.occupancyWords(Start, Count, Out);
}

bool Heap::occupancyDisjoint(Addr A, Addr B, uint64_t Size) const {
  assert(Size != 0 && "empty disjointness probe");
  if ((A | B) % WordBits == 0 && Size % WordBits == 0) {
    // Aligned probe: one AND per word, straight off the occupancy board.
    uint64_t Words = Size / WordBits;
    for (uint64_t I = 0; I != Words; ++I)
      if (Free.occupancyWord(A / WordBits + I) &
          Free.occupancyWord(B / WordBits + I))
        return false;
    return true;
  }
  // Unaligned ranges gather both masks and AND them wordwise.
  size_t Words = size_t((Size + WordBits - 1) / WordBits);
  std::vector<uint64_t> MaskA(Words), MaskB(Words);
  occupancyWords(A, Words, MaskA.data());
  occupancyWords(B, Words, MaskB.data());
  if (Size % WordBits != 0) {
    uint64_t Keep = lowMask(unsigned(Size % WordBits));
    MaskA[Words - 1] &= Keep;
    MaskB[Words - 1] &= Keep;
  }
  for (size_t I = 0; I != Words; ++I)
    if (MaskA[I] & MaskB[I])
      return false;
  return true;
}

void Heap::objectStartWords(Addr Start, size_t Count, uint64_t *Out) const {
  Starts.extract(Start, Count, Out);
}

std::vector<ObjectId> Heap::liveObjectsIn(Addr Start, uint64_t Size) const {
  Addr End = Start + Size;
  std::vector<ObjectId> Ids;
  // An object starting before the range may still reach into it; it
  // exists iff the word at Start is used but carries no start bit there.
  if (Start != 0 && !Free.isFree(Start, 1) && !Starts.test(Start)) {
    uint64_t Prev = Starts.findLastSetBefore(Start);
    assert(Prev != Starts.NoBit && "used word with no covering object");
    ObjectId Id = idStartingAt(Prev);
    if (Objects[Id].end() > Start)
      Ids.push_back(Id);
  }
  for (uint64_t B = Starts.findFirstSet(Start); B != Starts.NoBit && B < End;
       B = Starts.findFirstSet(B + 1))
    Ids.push_back(idStartingAt(B));
  return Ids;
}
