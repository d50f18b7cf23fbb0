//===- testsupport/ReferenceHeap.h - Oracle heap model ----------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The naive full-heap oracle for the differential fuzzer: a plain Heap
/// (object table, free space, footprint accounting) on the free-space
/// specification ReferenceFreeSpaceIndex, so the live bitboard Heap is
/// checked against structures that share none of its code.
/// Memory managers are policies on top of a heap model; they decide
/// *where* to place or move objects, the heap validates and records it.
///
/// Footprint semantics follow the paper: the heap is the smallest
/// consecutive address prefix the manager ever touches, so the heap size
/// HS(A, P) is the historical maximum of (highest used address + 1). Once
/// a word has been used it counts forever (Section 4: "the chunk that it
/// did occupy will remain part of the heap forever").
///
/// \par Thread compatibility
/// ReferenceHeap is thread-compatible: it has no global or static mutable
/// state, so distinct instances may be used concurrently from distinct
/// threads with no synchronization. A single instance must not be shared
/// across threads without external locking.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_TESTSUPPORT_REFERENCEHEAP_H
#define PCBOUND_TESTSUPPORT_REFERENCEHEAP_H

#include "heap/Heap.h" // for HeapStats
#include "testsupport/ReferenceFreeSpaceIndex.h"
#include "heap/HeapTypes.h"

#include <cassert>
#include <cstdint>
#include <map>
#include <vector>

namespace pcb {

/// The simulated heap: object table + free-space index + statistics.
class ReferenceHeap {
public:
  ReferenceHeap() = default;
  ReferenceHeap(const ReferenceHeap &) = delete;
  ReferenceHeap &operator=(const ReferenceHeap &) = delete;

  /// Places a new object of \p Size words at \p Address. The target range
  /// must be free (asserted). Returns the new object's id.
  ObjectId place(Addr Address, uint64_t Size);

  /// Frees a live object.
  void free(ObjectId Id);

  /// Moves a live object to \p NewAddress (target must be free and must
  /// not overlap the object's current placement). Counts toward
  /// MovedWords. The caller (memory manager) is responsible for having
  /// charged its compaction budget.
  void move(ObjectId Id, Addr NewAddress);

  /// The object with id \p Id (live or freed).
  const Object &object(ObjectId Id) const {
    assert(Id < Objects.size() && "object id out of range");
    return Objects[Id];
  }

  /// True if \p Id denotes a live object.
  bool isLive(ObjectId Id) const {
    return Id < Objects.size() && Objects[Id].isLive();
  }

  /// Number of object slots ever created (ids are dense in [0, size)).
  size_t numObjects() const { return Objects.size(); }

  /// Placement queries over the free space.
  const ReferenceFreeSpaceIndex &freeSpace() const { return Free; }

  const HeapStats &stats() const { return Stats; }

  /// Occupancy bitboard of the first \p Count (<= 64) words: bit i is set
  /// iff address i is covered by a live object (Heap::occupancyMask).
  uint64_t occupancyMask(unsigned Count) const;

  /// Companion bitboard: bit i is set iff a live object starts at
  /// address i (Heap::objectStartMask).
  uint64_t objectStartMask(unsigned Count) const;

private:
  std::vector<Object> Objects;
  ReferenceFreeSpaceIndex Free;
  /// Live objects ordered by current address, for the masks.
  std::map<Addr, ObjectId> LiveByAddr;
  HeapStats Stats;
};

} // namespace pcb

#endif // PCBOUND_TESTSUPPORT_REFERENCEHEAP_H
