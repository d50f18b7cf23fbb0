//===- mm/PagedSpaceManager.cpp - Region-based size-class heap -----------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "mm/PagedSpaceManager.h"

#include "obs/Profiler.h"
#include "support/MathUtils.h"

#include <cassert>

using namespace pcb;

void PagedSpaceManager::init() {
  assert(Opts.PageLog >= 1 && Opts.PageLog < 32 && "unreasonable page size");
  Allocatable.resize(Opts.PageLog + 1);
  BoundPages.resize(Opts.PageLog + 1);
}

PagedSpaceManager::PageInfo &PagedSpaceManager::page(uint64_t Index) {
  if (Index >= Pages.size())
    Pages.resize(Index + 1);
  return Pages[Index];
}

uint64_t PagedSpaceManager::acquirePage() {
  if (!FreePages.empty()) {
    uint64_t Index = *FreePages.begin();
    FreePages.erase(FreePages.begin());
    return Index;
  }
  uint64_t Index = Frontier++;
  page(Index); // materialize
  return Index;
}

void PagedSpaceManager::bindPage(uint64_t Index, unsigned Class) {
  PageInfo &P = page(Index);
  assert(P.State == PageState::Free && "binding a non-free page");
  P.State = PageState::Bound;
  P.Class = Class;
  P.LiveSlots = 0;
  P.FreeSlots.clear();
  for (uint64_t Offset = 0; Offset != pageSize(); Offset += pow2(Class))
    P.FreeSlots.insert(Offset);
  Allocatable[Class].insert(Index);
  BoundPages[Class].insert(Index);
}

void PagedSpaceManager::releasePage(uint64_t Index) {
  PageInfo &P = Pages[Index];
  P.State = PageState::Free;
  P.FreeSlots.clear();
  FreePages.insert(Index);
}

Addr PagedSpaceManager::takeSlot(unsigned Class, uint64_t AvoidPage) {
  uint64_t Index = UINT64_MAX;
  for (uint64_t Candidate : Allocatable[Class]) {
    if (Candidate == AvoidPage)
      continue;
    Index = Candidate;
    break;
  }
  if (Index == UINT64_MAX) {
    Index = acquirePage();
    bindPage(Index, Class);
  }
  PageInfo &P = Pages[Index];
  assert(!P.FreeSlots.empty() && "allocatable page without free slots");
  uint64_t Offset = *P.FreeSlots.begin();
  P.FreeSlots.erase(P.FreeSlots.begin());
  ++P.LiveSlots;
  if (P.FreeSlots.empty())
    Allocatable[Class].erase(Index);
  return Index * pageSize() + Offset;
}

bool PagedSpaceManager::evacuateSparsestPage() {
  ScopedTimer Timer(Profiler::SecCompaction);
  Profiler::bump(Profiler::CtrCompactionPasses);
  // The victim is the bound page with the fewest live slot words across
  // all classes — the G1 liveness criterion.
  uint64_t Victim = UINT64_MAX;
  uint64_t VictimWords = UINT64_MAX;
  for (unsigned Class = 0; Class != BoundPages.size(); ++Class)
    for (uint64_t Index : BoundPages[Class]) {
      const PageInfo &P = Pages[Index];
      uint64_t Words = P.LiveSlots * pow2(Class);
      if (P.LiveSlots != 0 && Words < VictimWords) {
        VictimWords = Words;
        Victim = Index;
      }
    }
  if (Victim == UINT64_MAX)
    return false;
  if (double(VictimWords) > Opts.EvacuationThreshold * double(pageSize()))
    return false;
  unsigned VictimClass = Pages[Victim].Class;

  Addr Start = Victim * pageSize();
  std::vector<ObjectId> Residents = heap().liveObjectsIn(Start, pageSize());
  uint64_t LiveWords = 0;
  for (ObjectId Id : Residents)
    LiveWords += heap().object(Id).Size;
  if (!ledger().canMove(LiveWords))
    return false;

  for (ObjectId Id : Residents) {
    const Object &O = heap().object(Id);
    assert(log2Ceil(O.Size) == VictimClass &&
           "resident object of a foreign class");
    Addr Dest = takeSlot(VictimClass, /*AvoidPage=*/Victim);
    if (!tryMoveObject(Id, Dest)) {
      // Undo the destination slot reservation and give up.
      uint64_t DestPage = Dest / pageSize();
      PageInfo &DP = Pages[DestPage];
      DP.FreeSlots.insert(Dest % pageSize());
      --DP.LiveSlots;
      Allocatable[VictimClass].insert(DestPage);
      return false;
    }
  }
  // The last departure released the victim page through onFreeing.
  assert(Pages[Victim].State == PageState::Free &&
         "evacuated page did not empty");
  ++NumEvacuations;
  return true;
}

Addr PagedSpaceManager::placeFor(uint64_t Size) {
  unsigned Class = log2Ceil(Size);

  // Humongous path: dedicated contiguous pages.
  if (pow2(Class) > pageSize()) {
    uint64_t RunLen = ceilDiv(Size, pageSize());
    // Find the lowest run of RunLen consecutive free pages.
    uint64_t RunStart = UINT64_MAX;
    uint64_t Count = 0;
    uint64_t Prev = UINT64_MAX;
    for (uint64_t Index : FreePages) {
      if (Prev != UINT64_MAX && Index == Prev + 1) {
        ++Count;
      } else {
        RunStart = Index;
        Count = 1;
      }
      Prev = Index;
      if (Count == RunLen)
        break;
    }
    uint64_t Head;
    if (Count == RunLen) {
      Head = RunStart;
      for (uint64_t K = 0; K != RunLen; ++K)
        FreePages.erase(Head + K);
    } else {
      Head = Frontier;
      Frontier += RunLen;
      page(Head + RunLen - 1); // materialize the run
    }
    PageInfo &HeadInfo = page(Head);
    HeadInfo.State = PageState::Humongous;
    HeadInfo.RunLength = RunLen;
    for (uint64_t K = 1; K != RunLen; ++K)
      page(Head + K).State = PageState::HumongousTail;
    return Head * pageSize();
  }

  // Slot path, with G1-style evacuation as the last resort before
  // growing the heap.
  if (Allocatable[Class].empty() && FreePages.empty())
    evacuateSparsestPage();
  return takeSlot(Class, /*AvoidPage=*/UINT64_MAX);
}

void PagedSpaceManager::onFreeing(ObjectId Id) {
  const Object &O = heap().object(Id);
  uint64_t Index = O.Address / pageSize();
  PageInfo &P = Pages[Index];

  if (P.State == PageState::Humongous) {
    assert(O.Address % pageSize() == 0 && "humongous object off page start");
    // Copy the length first: the first iteration clears the head page's
    // own RunLength field.
    uint64_t RunLength = P.RunLength;
    for (uint64_t K = 0; K != RunLength; ++K) {
      Pages[Index + K].State = PageState::Free;
      Pages[Index + K].RunLength = 0;
      FreePages.insert(Index + K);
    }
    return;
  }

  assert(P.State == PageState::Bound && "free from an unbound page");
  uint64_t Offset = O.Address % pageSize();
  assert(Offset % pow2(P.Class) == 0 && "object off its slot boundary");
  P.FreeSlots.insert(Offset);
  assert(P.LiveSlots != 0 && "slot accounting underflow");
  --P.LiveSlots;
  if (P.LiveSlots == 0) {
    // The page emptied: recycle it across classes.
    Allocatable[P.Class].erase(Index);
    BoundPages[P.Class].erase(Index);
    releasePage(Index);
    return;
  }
  Allocatable[P.Class].insert(Index);
}
