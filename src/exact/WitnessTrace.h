//===- exact/WitnessTrace.h - Witness traces as event logs ------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Converts a solved cell's forcing witness into the driver's EventLog
/// vocabulary, so `pcbound exact witness-dir=...` writes TraceIO files
/// that `pcbound replay` can audit, and tests can replay the
/// adversary's optimal play through a real Heap + CompactionLedger.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_EXACT_WITNESSTRACE_H
#define PCBOUND_EXACT_WITNESSTRACE_H

#include "driver/EventLog.h"
#include "exact/ExactGame.h"

#include <vector>

namespace pcb {

/// Renders \p Witness as an event log: object ids are assigned in
/// allocation order, frees and moves name objects through their current
/// start address, and a step boundary closes each program step (a free,
/// or an allocation together with the compaction moves of its response).
EventLog witnessToEventLog(const std::vector<WitnessOp> &Witness);

} // namespace pcb

#endif // PCBOUND_EXACT_WITNESSTRACE_H
