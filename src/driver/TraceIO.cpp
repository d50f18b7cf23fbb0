//===- driver/TraceIO.cpp - Text serialization of event logs -------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "driver/TraceIO.h"

#include "support/StreamFields.h"

#include <istream>
#include <ostream>
#include <sstream>

using namespace pcb;

void pcb::writeEventLog(std::ostream &OS, const EventLog &Log) {
  for (const HeapEvent &E : Log.events()) {
    switch (E.Event) {
    case HeapEvent::Kind::Alloc:
      OS << "A " << E.Id << ' ' << E.Address << ' ' << E.Size << '\n';
      break;
    case HeapEvent::Kind::Free:
      OS << "F " << E.Id << ' ' << E.Address << ' ' << E.Size << '\n';
      break;
    case HeapEvent::Kind::Move:
      OS << "M " << E.Id << ' ' << E.From << ' ' << E.Address << ' '
         << E.Size << '\n';
      break;
    case HeapEvent::Kind::StepEnd:
      OS << "S\n";
      break;
    }
  }
}

bool pcb::readEventLog(std::istream &IS, EventLog &Log,
                       std::string *Error) {
  Log.clear();
  uint64_t LineNo = 0;
  auto Fail = [&](const std::string &Reason) {
    if (Error)
      *Error = "line " + std::to_string(LineNo) + ": " + Reason;
    Log.clear();
    return false;
  };
  std::string Line;
  while (std::getline(IS, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    char Tag = 0;
    LS >> Tag;
    ObjectId Id;
    Addr A, B;
    uint64_t Size;
    auto Num = [&LS](auto &Field) { return readUnsignedField(LS, Field); };
    switch (Tag) {
    case 'A':
      if (!(Num(Id) && Num(A) && Num(Size)))
        return Fail("truncated or malformed allocation record");
      Log.record(HeapEvent::alloc(Id, A, Size));
      break;
    case 'F':
      if (!(Num(Id) && Num(A) && Num(Size)))
        return Fail("truncated or malformed free record");
      Log.record(HeapEvent::release(Id, A, Size));
      break;
    case 'M':
      if (!(Num(Id) && Num(A) && Num(B) && Num(Size)))
        return Fail("truncated or malformed move record");
      Log.record(HeapEvent::move(Id, A, B, Size));
      break;
    case 'S':
      Log.record(HeapEvent::stepEnd());
      break;
    default:
      return Fail(std::string("unknown record type '") + Tag + "'");
    }
    // Trailing garbage on a line is a parse error too.
    std::string Rest;
    if (LS >> Rest)
      return Fail("trailing characters '" + Rest + "'");
    // Every range, a move's source included, must be an object the heap
    // could hold: nonempty and below AddrLimit.
    if (Tag == 'S')
      continue;
    if (Id == InvalidObjectId)
      return Fail("object id " + std::to_string(Id) + " is reserved");
    if (Size == 0)
      return Fail("record of size 0");
    if (!inAddressSpace(A, Size) || (Tag == 'M' && !inAddressSpace(B, Size)))
      return Fail("range of " + std::to_string(Size) +
                  " words does not fit below the address space limit 2^60");
  }
  return true;
}
