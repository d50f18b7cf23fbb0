//===- driver/Auditors.cpp - Independent re-derivation of statistics -----===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "driver/Auditors.h"

#include "heap/IntervalSet.h"
#include "mm/CompactionLedger.h"

#include <algorithm>
#include <map>

using namespace pcb;

AuditReport pcb::auditEvents(const std::vector<HeapEvent> &Events) {
  AuditReport R;
  std::map<ObjectId, std::pair<Addr, uint64_t>> Live;
  IntervalSet Used;

  auto Occupy = [&](Addr A, uint64_t Size) {
    if (Used.overlaps(A, A + Size)) {
      R.Consistent = false;
      return;
    }
    Used.insert(A, A + Size);
  };

  for (const HeapEvent &E : Events) {
    switch (E.Event) {
    case HeapEvent::Kind::Alloc: {
      if (Live.count(E.Id)) {
        R.Consistent = false;
        break;
      }
      Occupy(E.Address, E.Size);
      Live[E.Id] = {E.Address, E.Size};
      R.LiveWords += E.Size;
      R.TotalAllocatedWords += E.Size;
      R.PeakLiveWords = std::max(R.PeakLiveWords, R.LiveWords);
      R.HighWaterMark = std::max(R.HighWaterMark, E.Address + E.Size);
      ++R.NumAllocations;
      break;
    }
    case HeapEvent::Kind::Free: {
      auto It = Live.find(E.Id);
      if (It == Live.end() || It->second.first != E.Address ||
          It->second.second != E.Size) {
        R.Consistent = false;
        break;
      }
      Used.erase(E.Address, E.Address + E.Size);
      Live.erase(It);
      R.LiveWords -= E.Size;
      ++R.NumFrees;
      break;
    }
    case HeapEvent::Kind::Move: {
      auto It = Live.find(E.Id);
      if (It == Live.end() || It->second.first != E.From ||
          It->second.second != E.Size) {
        R.Consistent = false;
        break;
      }
      Used.erase(E.From, E.From + E.Size);
      Occupy(E.Address, E.Size);
      It->second.first = E.Address;
      R.MovedWords += E.Size;
      R.HighWaterMark = std::max(R.HighWaterMark, E.Address + E.Size);
      ++R.NumMoves;
      break;
    }
    case HeapEvent::Kind::StepEnd:
      break;
    }
  }
  return R;
}

bool pcb::auditBudgetHistory(const std::vector<HeapEvent> &Events,
                             double C) {
  if (C <= 0.0)
    return true; // unlimited budget
  uint64_t Allocated = 0;
  uint64_t Moved = 0;
  for (const HeapEvent &E : Events) {
    switch (E.Event) {
    case HeapEvent::Kind::Alloc:
      Allocated += E.Size;
      break;
    case HeapEvent::Kind::Move:
      Moved += E.Size;
      if (Moved > cPartialBudget(Allocated, C))
        return false;
      break;
    case HeapEvent::Kind::Free:
    case HeapEvent::Kind::StepEnd:
      break;
    }
  }
  return true;
}
