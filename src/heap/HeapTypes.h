//===- heap/HeapTypes.h - Core heap model types -----------------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Basic types of the simulated heap. The heap is a flat, word-addressed
/// space; objects are contiguous runs of words identified by a small
/// integer id that survives moves (the paper's model lets the program know
/// object addresses, so both the id and the current address are exposed).
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_HEAP_HEAPTYPES_H
#define PCBOUND_HEAP_HEAPTYPES_H

#include <cstdint>
#include <limits>

namespace pcb {

/// A word address in the simulated heap.
using Addr = uint64_t;

/// Identifies an allocated object for its whole lifetime, across moves.
using ObjectId = uint32_t;

/// Sentinel for "no object".
inline constexpr ObjectId InvalidObjectId =
    std::numeric_limits<ObjectId>::max();

/// Sentinel for "no address" (the heap model never hands out addresses
/// this high; the address space is capped well below).
inline constexpr Addr InvalidAddr = std::numeric_limits<Addr>::max();

/// Upper limit of the simulated address space. Managers may place objects
/// anywhere below this; the footprint (high-water mark) is what counts.
inline constexpr Addr AddrLimit = uint64_t(1) << 60;

/// True when [A, A + Size) is a nonempty range below AddrLimit. The test
/// cannot wrap, whatever A and Size are.
inline constexpr bool inAddressSpace(Addr A, uint64_t Size) {
  return Size != 0 && A <= AddrLimit && Size <= AddrLimit - A;
}

/// Lifecycle of an object slot in the ObjectTable.
enum class ObjectState : uint8_t {
  Live,  ///< Allocated and not yet freed.
  Freed, ///< De-allocated; the slot is retained for id stability.
};

/// One object: a contiguous [Address, Address + Size) run of words.
struct Object {
  Addr Address = InvalidAddr;
  uint64_t Size = 0;
  ObjectState State = ObjectState::Freed;

  bool isLive() const { return State == ObjectState::Live; }
  Addr end() const { return Address + Size; }
};

} // namespace pcb

#endif // PCBOUND_HEAP_HEAPTYPES_H
