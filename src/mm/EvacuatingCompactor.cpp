//===- mm/EvacuatingCompactor.cpp - Budgeted chunk evacuation ------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "mm/EvacuatingCompactor.h"

#include "heap/ChunkView.h"
#include "obs/Profiler.h"

#include <algorithm>

using namespace pcb;

Addr EvacuatingCompactor::placeFor(uint64_t Size) {
  const FreeSpaceIndex &Free = heap().freeSpace();

  // Reuse an existing hole whenever one fits below the high-water mark:
  // that never costs budget and never grows the footprint.
  Addr A = Free.firstFit(Size);
  if (A + Size <= heap().stats().HighWaterMark)
    return A;

  // Otherwise try to clear a sparse chunk.
  if (Size >= Opts.MinEvacuationSize) {
    uint64_t Sig = heapChangeSignature();
    Addr Cleared = evacuateFor(Size);
    if (Cleared != InvalidAddr)
      return Cleared;
    // A failed evacuation may still have moved (and PF freed) objects.
    if (heapChangeSignature() != Sig)
      A = Free.firstFit(Size);
  }

  // The fit either fell below the mark after the attempt or extends the
  // heap.
  return A;
}

Addr EvacuatingCompactor::evacuateFor(uint64_t Size) {
  ScopedTimer Timer(Profiler::SecCompaction);
  Profiler::bump(Profiler::CtrCompactionPasses);
  unsigned LogSize = log2Ceil(Size);
  ChunkView View(LogSize);
  uint64_t ChunkSize = View.chunkSize();
  Addr Hwm = heap().stats().HighWaterMark;
  uint64_t NumChunks = Hwm / ChunkSize;
  if (NumChunks == 0)
    return InvalidAddr;

  // If the previous scan at this size failed and nothing was freed or
  // moved since, every chunk is at least as dense as it was — skip.
  auto FIt = FailedScanSignature.find(LogSize);
  if (FIt != FailedScanSignature.end() &&
      FIt->second == heapChangeSignature())
    return InvalidAddr;

  uint64_t MaxUsed =
      uint64_t(Opts.DensityThreshold * double(ChunkSize));
  // At most this many candidate chunks are examined per allocation.
  constexpr uint64_t MaxScanChunks = 4096;
  uint64_t Scan = std::min(NumChunks, MaxScanChunks);

  // Take the first qualifying chunk (evacuable under both the density
  // threshold and the remaining budget).
  uint64_t BestChunk = UINT64_MAX;
  uint64_t BestUsed = UINT64_MAX;
  for (uint64_t K = 0; K != Scan; ++K) {
    uint64_t Used = heap().usedWordsIn(View.startOf(K), ChunkSize);
    if (Used < BestUsed) {
      BestUsed = Used;
      BestChunk = K;
    }
    if (Used <= MaxUsed && ledger().canMove(Used))
      break;
  }
  if (BestChunk == UINT64_MAX)
    return InvalidAddr;

  Addr Start = View.startOf(BestChunk);
  Addr End = View.endOf(BestChunk);
  if (BestUsed == 0)
    return Start; // Already free; no moves needed.
  if (BestUsed > MaxUsed || !ledger().canMove(BestUsed)) {
    FailedScanSignature[LogSize] = heapChangeSignature();
    return InvalidAddr;
  }

  // Evacuate every live object intersecting the chunk. Objects straddling
  // the boundary must be moved whole (Section 3's discussion of
  // non-aligned objects).
  for (ObjectId Id : heap().liveObjectsIn(Start, ChunkSize)) {
    const Object &O = heap().object(Id);
    uint64_t ObjSize = O.Size;
    Addr Dest = heap().freeSpace().firstFit(ObjSize);
    // Never relocate into the chunk being cleared.
    if (Dest < End && Dest + ObjSize > Start)
      Dest = heap().freeSpace().firstFitFrom(End, ObjSize);
    if (!tryMoveObject(Id, Dest))
      return InvalidAddr; // Budget ran out mid-evacuation.
  }
  if (!heap().isFree(Start, Size))
    return InvalidAddr;
  ++NumEvacuations;
  return Start;
}
