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
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_DRIVER_AUDITORS_H
#define PCBOUND_DRIVER_AUDITORS_H

#include "heap/Heap.h"
#include "heap/HeapEvent.h"

#include <cstdint>
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

/// Replays \p Events and re-derives the statistics.
AuditReport auditEvents(const std::vector<HeapEvent> &Events);

/// True when, at every prefix of \p Events, the moved words stay within
/// floor(allocated words / c) — the c-partial constraint as a property
/// of the whole history, not just its endpoint.
bool auditBudgetHistory(const std::vector<HeapEvent> &Events, double C);

} // namespace pcb

#endif // PCBOUND_DRIVER_AUDITORS_H
