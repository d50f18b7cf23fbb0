//===- mm/BumpCompactor.cpp - The (c+1)M collector of POPL 2011 ----------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "mm/BumpCompactor.h"

#include "obs/Profiler.h"

#include <cassert>
#include <vector>

using namespace pcb;

Addr BumpCompactor::compact() {
  ScopedTimer Timer(Profiler::SecCompaction);
  Profiler::bump(Profiler::CtrCompactionPasses);
  // Everything below the lowest free address is contiguously live and so
  // already packed; the pass starts at the first gap. Live objects arrive
  // in address order; packing them downward in that order never collides
  // (the Lisp-2 invariant).
  Addr FirstGap = heap().freeSpace().firstFit(1);
  Addr Target = FirstGap;
  for (ObjectId Id : heap().liveObjectsIn(FirstGap, AddrLimit - FirstGap)) {
    const Object &O = heap().object(Id);
    if (O.Address != Target) {
      bool Moved = tryMoveObject(Id, Target);
      assert((Moved || hasSpendGate()) &&
             "the c*M period must fund a full compaction");
      // Only a spend gate flipping mid-pass can land here; abandon the
      // pass with the old frontier, which is still free.
      if (!Moved)
        return Bump;
      // The program may free the object in response to the move (the
      // adversaries do); its packed span is only consumed if it stayed.
    }
    if (heap().isLive(Id))
      Target += O.Size;
  }
  ++NumCompactions;
  return Target;
}

Addr BumpCompactor::placeFor(uint64_t Size) {
  double C = ledger().quotaDenominator();
  // One full compaction per c * M allocated words; with an unlimited
  // ledger, compact every M words (a reasonable full-compaction cadence);
  // with c = inf, never.
  double Words = C * double(LiveBound);
  uint64_t Period = C <= 0.0          ? LiveBound
                    : Words < 0x1p64 ? uint64_t(Words)
                                     : UINT64_MAX;
  // The spend gate is consulted once for the whole pass: the gate is
  // constant within a step, so approval here funds every move below. A
  // denial defers the pass; the accumulated period keeps retrying it on
  // every later allocation until the gate reopens.
  if (AllocatedSinceCompaction >= Period && heap().stats().LiveWords > 0 &&
      spendApproved()) {
    Bump = compact();
    AllocatedSinceCompaction = 0;
  }
  // Fresh allocation always goes to the bump frontier; space freed
  // behind it is reclaimed only by the next compaction, exactly as in
  // the POPL 2011 construction. Every object ever placed lies below
  // Bump, so the frontier itself is always free.
  Addr A = Bump;
  assert(heap().isFree(A, Size) && "bump frontier is occupied");
  Bump = A + Size;
  AllocatedSinceCompaction += Size;
  return A;
}
