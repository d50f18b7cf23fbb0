//===- driver/TraceIO.h - Text serialization of event logs ------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A line-oriented text format for event logs, so adversarial executions
/// can be captured once and replayed (or inspected) later:
///
///   A <id> <addr> <size>        allocation
///   F <id> <addr> <size>        free
///   M <id> <from> <to> <size>   move (compaction)
///   S                           step boundary
///   # ...                       comment (ignored on read)
///
/// Reading tolerates blank lines and comments; any other malformed line
/// fails the whole parse (returning false) rather than silently skipping.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_DRIVER_TRACEIO_H
#define PCBOUND_DRIVER_TRACEIO_H

#include "driver/EventLog.h"

#include <iosfwd>
#include <string>

namespace pcb {

/// Writes \p Log line-by-line to \p OS.
void writeEventLog(std::ostream &OS, const EventLog &Log);

/// Parses a log previously written by writeEventLog. Returns false (and
/// leaves \p Log empty) on any malformed line; when \p Error is non-null
/// it then receives a diagnostic naming the line number and the reason
/// (truncated record, unknown tag, trailing garbage, a negative number,
/// the reserved id InvalidObjectId, a record of size 0, or a range, a
/// move's source or target, that does not fit below AddrLimit).
bool readEventLog(std::istream &IS, EventLog &Log,
                  std::string *Error = nullptr);

} // namespace pcb

#endif // PCBOUND_DRIVER_TRACEIO_H
