//===- driver/Auditors.cpp - Independent re-derivation of statistics -----===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "driver/Auditors.h"

#include "mm/CompactionLedger.h"

#include <algorithm>

using namespace pcb;

void EventAuditor::occupy(Addr A, uint64_t Size) {
  // No heap holds an empty object or one past AddrLimit, nor can Used.
  if (!inAddressSpace(A, Size) || !Used.rangeClear(A, A + Size)) {
    R.Consistent = false;
    return;
  }
  Used.assign(A, A + Size, true, [](auto &&...) {});
}

void EventAuditor::vacate(Addr A, uint64_t Size) {
  // An object whose placement overlapped another never entered Used; the
  // stream is already inconsistent, and its range must not be cleared.
  if (!inAddressSpace(A, Size) || Used.popcountRange(A, A + Size) != Size) {
    R.Consistent = false;
    return;
  }
  Used.assign(A, A + Size, false, [](auto &&...) {});
}

void EventAuditor::fold(const HeapEvent &E) {
  switch (E.Event) {
  case HeapEvent::Kind::Alloc: {
    Allocated += E.Size;
    if (Live.count(E.Id)) {
      R.Consistent = false;
      break;
    }
    occupy(E.Address, E.Size);
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
    vacate(E.Address, E.Size);
    Live.erase(It);
    R.LiveWords -= E.Size;
    ++R.NumFrees;
    break;
  }
  case HeapEvent::Kind::Move: {
    Moved += E.Size;
    if (Moved > cPartialBudget(Allocated, C))
      BudgetHeld = false;
    auto It = Live.find(E.Id);
    if (It == Live.end() || It->second.first != E.From ||
        It->second.second != E.Size) {
      R.Consistent = false;
      break;
    }
    vacate(E.From, E.Size);
    occupy(E.Address, E.Size);
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

AuditReport pcb::auditEvents(const std::vector<HeapEvent> &Events) {
  EventAuditor A;
  for (const HeapEvent &E : Events)
    A.fold(E);
  return A.report();
}

bool pcb::auditBudgetHistory(const std::vector<HeapEvent> &Events,
                             double C) {
  EventAuditor A(C);
  for (const HeapEvent &E : Events)
    A.fold(E);
  return A.budgetHeld();
}
