//===- driver/Auditors.h - Independent re-derivation of statistics -*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Auditors replay a recorded event stream and re-derive every quantity
/// the model cares about — footprint, live volume, total allocation,
/// moved words — *without* consulting the heap's own counters. The tests
/// use them as an independent witness that the statistics feeding
/// HS(A, P) and the compaction ledger are honest, and that the c-partial
/// constraint held at every prefix of the execution (not merely at the
/// end).
///
/// The audit is one left fold, EventAuditor: each event updates the
/// report, the live objects, the used ranges and the budget counters, with
/// no look-ahead, and every failure flag is sticky. So folding a log in
/// installments gives exactly the verdict of folding it whole, and a
/// caller that checks a growing log (InvariantOracle) folds each event
/// once. auditEvents and auditBudgetHistory are that fold over a whole
/// stream.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_DRIVER_AUDITORS_H
#define PCBOUND_DRIVER_AUDITORS_H

#include "heap/Heap.h"
#include "heap/HeapEvent.h"
#include "heap/PagedBoard.h"

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace pcb {

/// Statistics re-derived from an event stream.
struct AuditReport : HeapStats {
  /// True when the replay saw no inconsistency (double frees, moves of
  /// dead objects, overlapping placements are detected structurally).
  bool Consistent = true;

  /// True when every field agrees with the heap's own statistics.
  bool matches(const HeapStats &S) const {
    return Consistent && static_cast<const HeapStats &>(*this) == S;
  }
};

/// The audit of an event stream, one event at a time.
class EventAuditor {
public:
  /// \p C is the c-partial quota denominator the budget history is held
  /// to; C <= 0 means unlimited.
  explicit EventAuditor(double C = 0.0) : C(C) {}

  /// Folds the next event of the stream into the audit.
  void fold(const HeapEvent &E);

  /// The statistics re-derived from the events folded so far.
  const AuditReport &report() const { return R; }

  /// True when, at every prefix folded so far, the moved words stayed
  /// within floor(allocated words / c).
  bool budgetHeld() const { return BudgetHeld; }

private:
  void occupy(Addr A, uint64_t Size);
  void vacate(Addr A, uint64_t Size);

  /// A page of the used set: its bits, 1 = used.
  struct UsedPage {
    uint64_t W[PageWords] = {};
  };

  double C;
  AuditReport R;
  std::unordered_map<ObjectId, std::pair<Addr, uint64_t>> Live;
  PagedBoard<UsedPage> Used;
  // Every allocated and moved word, consistent or not, as the budget
  // history counts them.
  uint64_t Allocated = 0;
  uint64_t Moved = 0;
  bool BudgetHeld = true;
};

/// Replays \p Events and re-derives the statistics.
AuditReport auditEvents(const std::vector<HeapEvent> &Events);

/// True when, at every prefix of \p Events, the moved words stay within
/// floor(allocated words / c) — the c-partial constraint as a property
/// of the whole history, not just its endpoint.
bool auditBudgetHistory(const std::vector<HeapEvent> &Events, double C);

} // namespace pcb

#endif // PCBOUND_DRIVER_AUDITORS_H
