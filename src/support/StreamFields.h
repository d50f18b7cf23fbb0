//===- support/StreamFields.h - Fields of text records ----------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Field readers shared by the text readers of the event log and of the
/// pcbtrace format.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_SUPPORT_STREAMFIELDS_H
#define PCBOUND_SUPPORT_STREAMFIELDS_H

#include <istream>
#include <type_traits>

namespace pcb {

/// Reads one unsigned number from \p IS into \p Field, skipping leading
/// blanks. Returns false when the field is missing, malformed or out of
/// range, or starts with '-': operator>> into an unsigned type accepts a
/// sign and wraps, so "-1" would otherwise read as the type's maximum.
template <typename T> bool readUnsignedField(std::istream &IS, T &Field) {
  static_assert(std::is_unsigned_v<T>, "the field is unsigned");
  return (IS >> std::ws).peek() != '-' && IS >> Field;
}

} // namespace pcb

#endif // PCBOUND_SUPPORT_STREAMFIELDS_H
