//===- mm/HybridManager.cpp - Segregated fit + bounded evacuation --------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "mm/HybridManager.h"

#include "heap/ChunkView.h"
#include "obs/Profiler.h"

#include <algorithm>
#include <cassert>

using namespace pcb;

Addr HybridManager::acquireSlot(unsigned Class, Addr AvoidStart,
                                Addr AvoidEnd) {
  auto &List = FreeSlots[Class];
  for (auto It = List.begin(); It != List.end(); ++It) {
    Addr A = *It;
    if (A + pow2(Class) <= AvoidStart || A >= AvoidEnd) {
      List.erase(It);
      return A;
    }
  }
  Addr A = alignUp(Frontier, pow2(Class));
  Frontier = A + pow2(Class);
  return A;
}

Addr HybridManager::evacuateFor(unsigned Class) {
  ScopedTimer Timer(Profiler::SecCompaction);
  Profiler::bump(Profiler::CtrCompactionPasses);
  ChunkView View(Class);
  uint64_t ChunkSize = View.chunkSize();
  uint64_t NumChunks = Frontier / ChunkSize;
  if (NumChunks == 0)
    return InvalidAddr;

  // Skip the scan when nothing was freed or moved since the last failure
  // at this class — no chunk can have become sparser.
  auto FIt = FailedScanSignature.find(Class);
  if (FIt != FailedScanSignature.end() &&
      FIt->second == heapChangeSignature())
    return InvalidAddr;

  uint64_t MaxUsed = uint64_t(Opts.DensityThreshold * double(ChunkSize));
  // At most this many candidate chunks are examined per slot miss.
  constexpr uint64_t MaxScanChunks = 4096;
  uint64_t Scan = std::min(NumChunks, MaxScanChunks);

  uint64_t BestChunk = UINT64_MAX;
  uint64_t BestUsed = UINT64_MAX;
  for (uint64_t K = 0; K != Scan; ++K) {
    uint64_t Used = heap().usedWordsIn(View.startOf(K), ChunkSize);
    if (Used != 0 && Used < BestUsed) {
      BestUsed = Used;
      BestChunk = K;
      if (Used <= MaxUsed && ledger().canMove(Used))
        break;
    }
  }
  if (BestChunk == UINT64_MAX || BestUsed > MaxUsed ||
      !ledger().canMove(BestUsed)) {
    FailedScanSignature[Class] = heapChangeSignature();
    return InvalidAddr;
  }

  Addr Start = View.startOf(BestChunk);
  Addr End = View.endOf(BestChunk);
  for (ObjectId Id : heap().liveObjectsIn(Start, ChunkSize)) {
    const Object &O = heap().object(Id);
    unsigned ObjClass = log2Ceil(O.Size);
    Addr Dest = acquireSlot(ObjClass, Start, End);
    if (!tryMoveObject(Id, Dest)) {
      // Undo the acquisition: the slot goes back to its list.
      FreeSlots[ObjClass].insert(Dest);
      return InvalidAddr;
    }
  }
  if (!heap().isFree(Start, ChunkSize))
    return InvalidAddr;
  removeOverlappingSlots(Start, Class);
  ++NumEvacuations;
  return Start;
}

void HybridManager::removeOverlappingSlots(Addr Start, unsigned Class) {
  Addr End = Start + pow2(Class);
  // Smaller or equal classes: any overlapping free slot is aligned inside
  // the chunk; absorb it into the new slot by dropping it.
  for (unsigned K = 0; K <= Class; ++K) {
    auto &List = FreeSlots[K];
    auto It = List.lower_bound(Start);
    while (It != List.end() && *It < End)
      It = List.erase(It);
  }
  // Larger classes: at most one free slot can contain the chunk. Split it
  // buddy-style, keeping the halves that do not contain the chunk.
  for (unsigned K = Class + 1; K <= MaxClass; ++K) {
    auto &List = FreeSlots[K];
    if (List.empty())
      continue;
    Addr SlotStart = alignDown(Start, pow2(K));
    auto It = List.find(SlotStart);
    if (It == List.end())
      continue;
    List.erase(It);
    for (unsigned J = K; J > Class; --J) {
      Addr Half = pow2(J - 1);
      // The half not containing the chunk stays free as a class J-1 slot.
      if (Start & Half) {
        FreeSlots[J - 1].insert(SlotStart);
        SlotStart += Half;
      } else {
        FreeSlots[J - 1].insert(SlotStart + Half);
      }
    }
    break;
  }
}

Addr HybridManager::placeFor(uint64_t Size) {
  unsigned Class = log2Ceil(Size);
  assert(Class <= MaxClass && "request beyond the maximum size class");

  if (FreeSlots[Class].empty() && pow2(Class) >= Opts.MinEvacuationSize) {
    Addr Cleared = evacuateFor(Class);
    if (Cleared != InvalidAddr)
      return Cleared;
  }

  return acquireSlot(Class, /*AvoidStart=*/0, /*AvoidEnd=*/0);
}

void HybridManager::onFreeing(ObjectId Id) {
  const Object &O = heap().object(Id);
  FreeSlots[log2Ceil(O.Size)].insert(O.Address);
}
