//===- testsupport/ReferenceHeap.cpp - Oracle heap model -----------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "testsupport/ReferenceHeap.h"

#include <algorithm>
#include <cassert>

using namespace pcb;

ObjectId ReferenceHeap::place(Addr Address, uint64_t Size) {
  assert(Size != 0 && "zero-size object");
  assert(Address + Size <= AddrLimit && "placement beyond the address space");
  Free.reserve(Address, Size);

  ObjectId Id = ObjectId(Objects.size());
  Objects.push_back(Object{Address, Size, ObjectState::Live});
  LiveByAddr[Address] = Id;

  Stats.TotalAllocatedWords += Size;
  Stats.LiveWords += Size;
  Stats.PeakLiveWords = std::max(Stats.PeakLiveWords, Stats.LiveWords);
  Stats.HighWaterMark = std::max(Stats.HighWaterMark, Address + Size);
  ++Stats.NumAllocations;
  return Id;
}

void ReferenceHeap::free(ObjectId Id) {
  assert(isLive(Id) && "freeing a dead or unknown object");
  Object &O = Objects[Id];
  Free.release(O.Address, O.Size);
  LiveByAddr.erase(O.Address);
  O.State = ObjectState::Freed;
  Stats.LiveWords -= O.Size;
  ++Stats.NumFrees;
}

void ReferenceHeap::move(ObjectId Id, Addr NewAddress) {
  assert(isLive(Id) && "moving a dead or unknown object");
  Object &O = Objects[Id];
  assert(NewAddress + O.Size <= AddrLimit && "move beyond the address space");
  // Vacate first so that sliding moves (target overlapping the source, as
  // in memmove) are allowed; reserve still asserts the target is free of
  // every *other* object.
  Free.release(O.Address, O.Size);
  Free.reserve(NewAddress, O.Size);
  LiveByAddr.erase(O.Address);
  LiveByAddr[NewAddress] = Id;
  O.Address = NewAddress;
  Stats.MovedWords += O.Size;
  Stats.HighWaterMark = std::max(Stats.HighWaterMark, NewAddress + O.Size);
  ++Stats.NumMoves;
}

uint64_t ReferenceHeap::occupancyMask(unsigned Count) const {
  assert(Count <= 64 && "mask covers at most 64 words");
  uint64_t Occ = 0;
  for (const auto &[Address, Id] : LiveByAddr) {
    if (Address >= Count)
      break;
    uint64_t End = std::min<uint64_t>(Objects[Id].end(), Count);
    for (uint64_t A = Address; A < End; ++A)
      Occ |= uint64_t(1) << A;
  }
  return Occ;
}

uint64_t ReferenceHeap::objectStartMask(unsigned Count) const {
  assert(Count <= 64 && "mask covers at most 64 words");
  uint64_t Starts = 0;
  for (const auto &[Address, Id] : LiveByAddr) {
    (void)Id;
    if (Address >= Count)
      break;
    Starts |= uint64_t(1) << Address;
  }
  return Starts;
}

