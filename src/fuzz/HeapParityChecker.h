//===- fuzz/HeapParityChecker.h - Live vs reference heap --------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A policy-invisible differential checker: mirrors every heap mutation
/// into the naive ReferenceHeap (built on ReferenceFreeSpaceIndex) and, at
/// each step boundary, compares the live bitboard Heap against it — the
/// whole substrate, not just the free index: free blocks block-for-block, the
/// placement and aggregate queries the managers actually issue, the
/// object table, the statistics, and the occupancy/start bitboards. The
/// managers never see the reference heap, so a parity violation always
/// means the bitboard substrate (or the mirroring contract) drifted,
/// never that a policy behaved differently.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_FUZZ_HEAPPARITYCHECKER_H
#define PCBOUND_FUZZ_HEAPPARITYCHECKER_H

#include "fuzz/InvariantOracle.h"
#include "heap/Heap.h"
#include "heap/HeapEvent.h"
#include "testsupport/ReferenceHeap.h"

#include <string>
#include <vector>

namespace pcb {

/// Mirrors heap events into a reference heap and checks the live heap
/// against it at step boundaries.
class HeapParityChecker {
public:
  explicit HeapParityChecker(const Heap &H) : H(H) {}

  /// Mirrors one heap mutation. Must be fed the *uncorrupted* event
  /// stream (before any fault-injection tap): the mirror tracks the real
  /// heap, not the log.
  void observe(const HeapEvent &E);

  /// Compares the live heap against the mirror, appending any
  /// divergence to \p Out with Check = "heap-parity".
  void checkStep(const std::string &Policy, uint64_t Step,
                 std::vector<Violation> &Out) const;

private:
  const Heap &H;
  ReferenceHeap Ref;
};

} // namespace pcb

#endif // PCBOUND_FUZZ_HEAPPARITYCHECKER_H
