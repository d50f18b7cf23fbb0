//===- mm/MeshingCompactor.cpp - Bitboard chunk meshing -------------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "mm/MeshingCompactor.h"

#include "obs/Profiler.h"

#include <algorithm>
#include <cassert>
#include <vector>

using namespace pcb;

void MeshingCompactor::checkOpts() const {
  assert(Opts.ChunkLog >= 1 && Opts.ChunkLog < 32 &&
         "unreasonable chunk size");
}

bool MeshingCompactor::chunkSelfContained(uint64_t Index) const {
  // An object straddles *into* a chunk iff the chunk's first word is
  // occupied but no object starts there; a straddler *out of* the chunk
  // is a straddler into the next one.
  auto StraddlesInto = [&](Addr Start) {
    uint64_t Occ, Starts;
    heap().occupancyWords(Start, 1, &Occ);
    heap().objectStartWords(Start, 1, &Starts);
    return (Occ & 1) != 0 && (Starts & 1) == 0;
  };
  return !StraddlesInto(startOf(Index)) && !StraddlesInto(startOf(Index + 1));
}

bool MeshingCompactor::mergeChunks(uint64_t Src, uint64_t Dst) {
  assert(Src != Dst && "meshing a chunk with itself");
  Addr SrcStart = startOf(Src);
  Addr DstStart = startOf(Dst);
  assert(heap().usedWordsIn(SrcStart, chunkSize()) != 0 &&
         "meshing an empty source chunk");
  assert(heap().occupancyDisjoint(SrcStart, DstStart, chunkSize()) &&
         "meshing chunks with overlapping occupancy");
  for (ObjectId Id : heap().liveObjectsIn(SrcStart, chunkSize())) {
    const Object &O = heap().object(Id);
    assert(O.Address >= SrcStart &&
           O.Address + O.Size <= SrcStart + chunkSize() &&
           "mesh source object straddles the chunk");
    // Disjointness makes the mirror offset free in the destination.
    bool Moved = tryMoveObject(Id, DstStart + (O.Address - SrcStart));
    assert((Moved || hasSpendGate()) &&
           "mesh merge exceeded the compaction budget");
    // Only a spend gate flipping mid-merge can land here; the objects
    // already moved form a valid (if partial) merge.
    if (!Moved)
      return false;
  }
  ++NumMerges;
  Profiler::bump(Profiler::CtrMeshMerges);
  return true;
}

bool MeshingCompactor::meshPass() {
  // A closed spend gate cannot fund any merge this step; skip the
  // candidate scan outright, leaving the failed-pass memo untouched so
  // the pass retries as soon as the gate reopens.
  if (!spendApproved())
    return false;
  ScopedTimer Timer(Profiler::SecCompaction);
  Profiler::bump(Profiler::CtrCompactionPasses);
  if (FailedPassSignature == heapChangeSignature())
    return false;

  // Candidates: partially occupied chunks wholly below the high-water
  // mark. Full chunks can only mesh with empty ones (pointless), empty
  // ones are already holes.
  struct Candidate {
    uint64_t Index;
    uint64_t Live;
  };
  std::vector<Candidate> Cands;
  uint64_t NumChunks = heap().stats().HighWaterMark >> Opts.ChunkLog;
  for (uint64_t K = 0; K != NumChunks; ++K) {
    uint64_t Used = heap().usedWordsIn(startOf(K), chunkSize());
    if (Used != 0 && Used != chunkSize())
      Cands.push_back({K, Used});
  }
  // Lightest sources first: the source popcount is the exact ledger
  // cost of its merge.
  std::stable_sort(Cands.begin(), Cands.end(),
                   [](const Candidate &A, const Candidate &B) {
                     return A.Live < B.Live;
                   });

  // At most this many pair probes and merges per mesh pass.
  constexpr uint64_t MaxProbePairs = 4096, MaxMerges = 8;
  uint64_t Merges = 0;
  uint64_t Probes = 0;
  std::vector<bool> Consumed(Cands.size(), false);
  for (size_t S = 0; S != Cands.size() && Merges != MaxMerges &&
                     Probes != MaxProbePairs;
       ++S) {
    if (Consumed[S])
      continue;
    // Candidates are sorted: if the lightest source is over budget,
    // every remaining one is too.
    if (!ledger().canMove(Cands[S].Live))
      break;
    if (!chunkSelfContained(Cands[S].Index)) {
      Consumed[S] = true;
      continue;
    }
    // Probe the densest partners first so merges pack tightly.
    for (size_t D = Cands.size(); D-- > S + 1 && Probes != MaxProbePairs;) {
      if (Consumed[D])
        continue;
      ++Probes;
      bool Disjoint;
      {
        ScopedTimer ProbeTimer(Profiler::SecMeshProbe);
        Profiler::bump(Profiler::CtrMeshProbes);
        Disjoint = heap().occupancyDisjoint(startOf(Cands[S].Index),
                                            startOf(Cands[D].Index),
                                            chunkSize());
      }
      if (!Disjoint)
        continue;
      bool Merged = mergeChunks(Cands[S].Index, Cands[D].Index);
      // Both chunks' occupancy changed; retire them from this pass.
      Consumed[S] = Consumed[D] = true;
      if (!Merged) {
        // The spend gate closed mid-merge; no further merge can be
        // funded this step.
        NumProbes += Probes;
        return Merges != 0;
      }
      ++Merges;
      break;
    }
  }
  NumProbes += Probes;
  if (Merges == 0) {
    FailedPassSignature = heapChangeSignature();
    return false;
  }
  FailedPassSignature = UINT64_MAX;
  return true;
}

Addr MeshingCompactor::placeFor(uint64_t Size) {
  const FreeSpaceIndex &Free = heap().freeSpace();
  Addr Hwm = heap().stats().HighWaterMark;

  // Reuse an existing hole whenever one fits below the high-water mark:
  // that never costs budget and never grows the footprint.
  Addr A = Free.firstFit(Size);
  if (A + Size <= Hwm)
    return A;

  // Meshing empties whole chunks; search again once the heap changed (a
  // merge cut short by the spend gate moves objects yet reports failure,
  // so the pass's result alone does not tell).
  if (Hwm >= Size) {
    uint64_t Sig = heapChangeSignature();
    meshPass();
    if (heapChangeSignature() != Sig)
      A = Free.firstFit(Size);
  }

  // The fit either fell below the mark after meshing or extends the heap.
  return A;
}
