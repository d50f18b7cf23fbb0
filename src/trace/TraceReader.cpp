//===- trace/TraceReader.cpp - Streaming malloc-trace parser -------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "trace/TraceReader.h"

#include "heap/HeapTypes.h"
#include "support/StreamFields.h"

#include <istream>
#include <sstream>

using namespace pcb;

namespace {
constexpr uint8_t TagAlloc = 1;
constexpr uint8_t TagFree = 2;
} // namespace

bool TraceReader::fail(const std::string &Reason) {
  Failed = true;
  if (Framing == TraceFraming::Text)
    Error = "line " + std::to_string(LineNo) + ": " + Reason;
  else
    Error = "record " + std::to_string(RecordNo) + ": " + Reason;
  return false;
}

bool TraceReader::readHeader() {
  HeaderRead = true;
  int First = IS.peek();
  if (First == std::char_traits<char>::eof())
    return fail("empty stream (missing pcbtrace header)");
  if (First == 'P') {
    // Binary framing: "PCBT" magic + version byte.
    Framing = TraceFraming::Binary;
    char Magic[4] = {};
    if (!IS.read(Magic, 4) || Magic[0] != 'P' || Magic[1] != 'C' ||
        Magic[2] != 'B' || Magic[3] != 'T')
      return fail("bad binary magic (expected \"PCBT\")");
    int Version = IS.get();
    if (Version == std::char_traits<char>::eof())
      return fail("truncated header (missing version byte)");
    if (unsigned(Version) != TraceFormatVersion)
      return fail("unsupported version " + std::to_string(Version) +
                  " (this build reads version " +
                  std::to_string(TraceFormatVersion) + ")");
    return true;
  }
  // Text framing: first line is `pcbtrace <version> <framing>`.
  Framing = TraceFraming::Text;
  std::string Line;
  if (!std::getline(IS, Line))
    return fail("empty stream (missing pcbtrace header)");
  ++LineNo;
  std::istringstream LS(Line);
  std::string Word, FramingWord;
  unsigned Version = 0;
  if (!(LS >> Word >> Version >> FramingWord) || Word != "pcbtrace")
    return fail("missing or malformed pcbtrace header");
  if (Version != TraceFormatVersion)
    return fail("unsupported version " + std::to_string(Version) +
                " (this build reads version " +
                std::to_string(TraceFormatVersion) + ")");
  TraceFraming Announced;
  if (!parseFraming(FramingWord, Announced) ||
      Announced != TraceFraming::Text)
    return fail("unknown framing '" + FramingWord + "'");
  std::string Rest;
  if (LS >> Rest)
    return fail("trailing characters '" + Rest + "' after header");
  return true;
}

bool TraceReader::apply(MallocOp &Op) {
  if (Op.isAlloc()) {
    if (Op.Size == 0)
      return fail("zero-word allocation (id " + std::to_string(Op.Id) + ")");
    if (Op.Size > AddrLimit - LiveWords)
      return fail("allocation of " + std::to_string(Op.Size) + " words (id " +
                  std::to_string(Op.Id) + ") exceeds the 2^60-word address "
                  "space with " + std::to_string(LiveWords) + " words live");
    auto [It, Inserted] = Live.emplace(Op.Id, Op.Size);
    if (!Inserted)
      return fail("allocation of id " + std::to_string(Op.Id) +
                  " while it is still live");
    ++NumAllocs;
    AllocWords += Op.Size;
    LiveWords += Op.Size;
    if (LiveWords > PeakLiveWords)
      PeakLiveWords = LiveWords;
    if (Live.size() > MaxLiveWindow)
      MaxLiveWindow = Live.size();
  } else {
    auto It = Live.find(Op.Id);
    if (It == Live.end())
      return fail("free of unknown or already-freed id " +
                  std::to_string(Op.Id));
    Op.Size = It->second;
    LiveWords -= It->second;
    Live.erase(It);
    ++NumFrees;
  }
  return true;
}

bool TraceReader::nextText(MallocOp &Op) {
  std::string Line;
  while (std::getline(IS, Line)) {
    ++LineNo;
    // Blank (including whitespace-only) and comment lines carry no
    // record; comments may be indented.
    size_t First = Line.find_first_not_of(" \t\r");
    if (First == std::string::npos || Line[First] == '#')
      continue;
    std::istringstream LS(Line);
    char Tag = 0;
    LS >> Tag;
    switch (Tag) {
    case 'a':
      if (!(readUnsignedField(LS, Op.Id) && readUnsignedField(LS, Op.Size)))
        return fail("truncated or malformed allocation record");
      Op.Op = MallocOp::Kind::Alloc;
      break;
    case 'f':
      if (!readUnsignedField(LS, Op.Id))
        return fail("truncated or malformed free record");
      Op.Op = MallocOp::Kind::Free;
      Op.Size = 0;
      break;
    default:
      return fail(std::string("unknown record type '") + Tag + "'");
    }
    std::string Rest;
    if (LS >> Rest)
      return fail("trailing characters '" + Rest + "'");
    return apply(Op);
  }
  Done = true;
  return false;
}

bool TraceReader::readVarint(uint64_t &V) {
  V = 0;
  for (unsigned Shift = 0; Shift < 64; Shift += 7) {
    int Byte = IS.get();
    if (Byte == std::char_traits<char>::eof())
      return fail("truncated varint");
    V |= uint64_t(Byte & 0x7f) << Shift;
    if ((Byte & 0x80) == 0)
      return true;
  }
  return fail("varint overflow (more than 64 bits)");
}

bool TraceReader::nextBinary(MallocOp &Op) {
  int Tag = IS.get();
  if (Tag == std::char_traits<char>::eof()) {
    Done = true;
    return false;
  }
  ++RecordNo;
  switch (uint8_t(Tag)) {
  case TagAlloc:
    Op.Op = MallocOp::Kind::Alloc;
    if (!readVarint(Op.Id) || !readVarint(Op.Size))
      return false;
    break;
  case TagFree:
    Op.Op = MallocOp::Kind::Free;
    Op.Size = 0;
    if (!readVarint(Op.Id))
      return false;
    break;
  default:
    return fail("unknown record tag " + std::to_string(Tag));
  }
  return apply(Op);
}

bool TraceReader::next(MallocOp &Op) {
  if (Failed || Done)
    return false;
  if (!HeaderRead && !readHeader())
    return false;
  return Framing == TraceFraming::Text ? nextText(Op) : nextBinary(Op);
}
