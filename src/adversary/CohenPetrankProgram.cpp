//===- adversary/CohenPetrankProgram.cpp - The bad program PF ------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "adversary/CohenPetrankProgram.h"

#include "bounds/CohenPetrankBounds.h"
#include "heap/ChunkView.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>

using namespace pcb;

CohenPetrankProgram::CohenPetrankProgram(uint64_t M, uint64_t N, double C)
    : CohenPetrankProgram(M, N, C, Options()) {}

CohenPetrankProgram::CohenPetrankProgram(uint64_t M, uint64_t N, double C,
                                         const Options &O)
    : M(M), N(N), C(C), Opts(O), LogN(log2Exact(N)),
      Core(M, O.TrackGhosts) {
  assert(!paramsError(M, N, C) && "inadmissible PF parameters");

  // Admissible sigmas: 2^sigma <= 3c/4 (evacuation unprofitable) and
  // 2*sigma <= log2(n) - 2 (stage two non-empty).
  BoundParams P{M, N, C};
  unsigned MaxSigma =
      std::min(cohenPetrankMaxSigma(C), (LogN - 2) / 2);
  if (Opts.SigmaOverride != 0) {
    assert(Opts.SigmaOverride <= MaxSigma && "sigma override inadmissible");
    Sigma = Opts.SigmaOverride;
  } else {
    double BestH = -1.0;
    for (unsigned S = 1; S <= MaxSigma; ++S) {
      double H = cohenPetrankLowerWasteFactorForSigma(P, S);
      if (H > BestH) {
        BestH = H;
        Sigma = S;
      }
    }
  }
  TargetH = cohenPetrankLowerWasteFactorForSigma(P, Sigma);
  X = (1.0 - TargetH / std::pow(2.0, double(Sigma))) / (double(Sigma) + 1.0);
  X = std::max(X, 0.0);
}

const char *CohenPetrankProgram::paramsError(uint64_t M, uint64_t N,
                                             double C) {
  if (!isPowerOfTwo(N) || N < 16)
    return "n must be a power of two >= 16 for a two-stage construction";
  if (M < N)
    return "live bound M below the largest object n";
  if (!isPowerOfTwo(M))
    return "live bound M must be a power of two";
  if (cohenPetrankMaxSigma(C) < 1)
    return "c too small for any admissible density (need 3c/4 >= 2)";
  return nullptr;
}

bool CohenPetrankProgram::onObjectMoved(ObjectId Id, Addr From, Addr To) {
  (void)To;
  assert(TheHeap && "moved before the program's first step");
  if (Phase == PhaseKind::StageOne || Phase == PhaseKind::NullSteps)
    return Core.handleMove(*TheHeap, Id, From);

  // Stage two: the object's association entries persist as phantoms; the
  // object itself is freed immediately (return true).
  assert(isAssociated(Id) && "moved object has no association");
  for (uint64_t Index : Where[Id]) {
    if (Index == NoChunk)
      continue;
    assert(Index < Chunks.size() && "association points at unknown chunk");
    for (Entry &E : Chunks[Index].Entries)
      if (E.Id == Id) {
        E.Phantom = true;
        // A fresh association on a chunk in E removes it from E
        // (Definition 4.12) — but a phantom is not fresh; leave InE.
      }
  }
  Where[Id] = {NoChunk, NoChunk};
  return true;
}

void CohenPetrankProgram::advancePhase(MutatorContext &Ctx) {
  if (Step <= Sigma) {
    Phase = PhaseKind::StageOne;
  } else if (Step <= 2 * Sigma - 1) {
    Phase = PhaseKind::NullSteps;
  } else if (Step <= LogN - 2) {
    if (Phase != PhaseKind::StageTwo)
      buildInitialAssociation(Ctx);
    Phase = PhaseKind::StageTwo;
  } else {
    Phase = PhaseKind::Done;
  }
}

bool CohenPetrankProgram::step(MutatorContext &Ctx) {
  TheHeap = &Ctx.heap();
  advancePhase(Ctx);
  switch (Phase) {
  case PhaseKind::StageOne:
    if (Step == 0)
      Core.runStepZero(Ctx);
    else if (Opts.RobsonBootstrap)
      Core.runStep(Ctx, Step);
    break;
  case PhaseKind::NullSteps:
    break; // The paper's null steps: no allocation, no de-allocation.
  case PhaseKind::StageTwo: {
    unsigned I = Step;
    mergeChunksTo(I);
    freeForDensity(Ctx, I);
    allocateStageTwo(Ctx, I);
    RanStageTwoStep = true;
    break;
  }
  case PhaseKind::Done:
    return false;
  }
  ++Step;
  advancePhase(Ctx);
  return Phase != PhaseKind::Done;
}

void CohenPetrankProgram::buildInitialAssociation(MutatorContext &Ctx) {
  CurLog = 2 * Sigma - 1;
  uint64_t FSigma = Core.offset();
  uint64_t Period = pow2(Sigma);
  assert(Chunks.empty() && "stage boundary reached twice");
  // Survivors arrive in allocation order, which is each chunk's entry
  // order.
  for (ObjectId Id : Core.objects()) {
    if (!Ctx.heap().isLive(Id))
      continue;
    const Object &O = Ctx.heap().object(Id);
    // With the Robson bootstrap, associate via the object's unique
    // f_sigma-occupying word (all survivors of step sigma are
    // f_sigma-occupying and of size <= 2^sigma). Without it, all objects
    // are unit-sized and associate via their only word.
    uint64_t Distance =
        Opts.RobsonBootstrap ? ((FSigma - O.Address) & (Period - 1)) : 0;
    assert(Distance < O.Size && "survivor is not f_sigma-occupying");
    uint64_t Index = (O.Address + Distance) >> CurLog;
    ChunkState &CS = chunkSlot(Index);
    CS.Entries.push_back(Entry{Id, O.Size, false});
    CS.AssocWords += O.Size;
    whereSlot(Id) = {Index, NoChunk};
  }
}

void CohenPetrankProgram::normalizeChunk(ChunkState &CS) {
  // Merge duplicate ids (the two halves of one object reunited by a
  // partition merge) into a single whole entry.
  for (size_t A = 0; A != CS.Entries.size(); ++A)
    for (size_t B = A + 1; B != CS.Entries.size();) {
      if (CS.Entries[B].Id == CS.Entries[A].Id) {
        CS.Entries[A].Words += CS.Entries[B].Words;
        CS.Entries[A].Phantom |= CS.Entries[B].Phantom;
        CS.Entries[B] = CS.Entries.back();
        CS.Entries.pop_back();
      } else {
        ++B;
      }
    }
}

void CohenPetrankProgram::mergeChunksTo(unsigned NewLog) {
  assert(NewLog >= CurLog && "partitions only coarsen");
  while (CurLog < NewLog) {
    // Chunk I folds into chunk I/2 of the coarser partition, whose chunks
    // start outside E: E membership dissolves on a step change
    // (Definition 4.12). The first child's entry storage is stolen
    // instead of copied.
    std::vector<ChunkState> Merged((Chunks.size() + 1) / 2);
    for (uint64_t Index = 0; Index != Chunks.size(); ++Index) {
      ChunkState &CS = Chunks[Index];
      ChunkState &Dst = Merged[Index >> 1];
      Dst.AssocWords += CS.AssocWords;
      if (Dst.Entries.empty())
        Dst.Entries = std::move(CS.Entries);
      else
        Dst.Entries.insert(Dst.Entries.end(), CS.Entries.begin(),
                           CS.Entries.end());
    }
    Chunks = std::move(Merged);
    ++CurLog;
  }
  for (ChunkState &CS : Chunks)
    normalizeChunk(CS);
  rebuildWhere();
}

void CohenPetrankProgram::rebuildWhere() {
  Where.assign(Where.size(), {NoChunk, NoChunk});
  for (uint64_t Index = 0; Index != Chunks.size(); ++Index)
    for (const Entry &E : Chunks[Index].Entries) {
      if (E.Phantom)
        continue;
      std::array<uint64_t, 2> &Slot = whereSlot(E.Id);
      if (Slot[0] == NoChunk) {
        Slot[0] = Index;
      } else {
        assert(Slot[1] == NoChunk &&
               "object associated with more than two chunks");
        Slot[1] = Index;
      }
    }
}

void CohenPetrankProgram::reevaluateChunk(MutatorContext &Ctx,
                                          uint64_t Index, uint64_t T,
                                          std::vector<uint64_t> &Worklist) {
  assert(Index < Chunks.size() && "re-evaluating an unknown chunk");
  ChunkState &CS = Chunks[Index];

  // Free as many associated objects as possible while AssocWords stays at
  // least T (Algorithm 1 line 13). Removing the largest removable entry
  // first keeps the residue below T + max entry size.
  for (;;) {
    Entry *Best = nullptr;
    for (Entry &E : CS.Entries) {
      if (E.Phantom)
        continue;
      if (CS.AssocWords - E.Words < T)
        continue;
      if (!Best || E.Words > Best->Words)
        Best = &E;
    }
    if (!Best)
      break;

    ObjectId Id = Best->Id;
    uint64_t Words = Best->Words;
    uint64_t ObjectSize = Ctx.heap().object(Id).Size;
    // Drop the entry from this chunk.
    *Best = CS.Entries.back();
    CS.Entries.pop_back();
    CS.AssocWords -= Words;

    if (Words == ObjectSize) {
      // Wholly associated here: actually de-allocate it.
      Where[Id] = {NoChunk, NoChunk};
      Ctx.free(Id);
      continue;
    }
    // A half object: re-associate it wholly with the chunk holding the
    // other half and re-evaluate that chunk (line 13's transfer rule).
    assert(2 * Words == ObjectSize && "association is neither whole nor half");
    assert(isAssociated(Id) && "half object without reverse mapping");
    std::array<uint64_t, 2> &Slot = Where[Id];
    uint64_t Other = Slot[0] == Index ? Slot[1] : Slot[0];
    assert(Other != NoChunk && "half object with only one chunk");
    assert(Other < Chunks.size() && "other half's chunk is unknown");
    ChunkState &OtherCS = Chunks[Other];
    bool Found = false;
    for (Entry &E : OtherCS.Entries)
      if (E.Id == Id) {
        E.Words += Words;
        Found = true;
        break;
      }
    assert(Found && "other half's entry is missing");
    (void)Found;
    OtherCS.AssocWords += Words;
    Slot = {Other, NoChunk};
    Worklist.push_back(Other);
  }
}

void CohenPetrankProgram::freeForDensity(MutatorContext &Ctx, unsigned I) {
  uint64_t T = Opts.MaintainDensity ? pow2(I - Sigma) : 1;
  std::vector<uint64_t> Worklist;
  Worklist.reserve(Chunks.size());
  for (uint64_t Index = 0; Index != Chunks.size(); ++Index)
    Worklist.push_back(Index);
  while (!Worklist.empty()) {
    uint64_t Index = Worklist.back();
    Worklist.pop_back();
    reevaluateChunk(Ctx, Index, T, Worklist);
  }
}

void CohenPetrankProgram::clearChunkForOverwrite(uint64_t Index) {
  ChunkState &CS = chunkSlot(Index);
  for ([[maybe_unused]] const Entry &E : CS.Entries)
    assert(E.Phantom && "overwriting a chunk with live associations");
  CS = ChunkState{};
}

void CohenPetrankProgram::allocateStageTwo(MutatorContext &Ctx, unsigned I) {
  uint64_t Size = pow2(I + 2);
  uint64_t Count = Opts.FixedAllocation
                       ? uint64_t(X * double(M)) / Size
                       : UINT64_MAX;
  ChunkView View(I);
  for (uint64_t K = 0; K != Count; ++K) {
    if (Ctx.headroom() < Size)
      break;
    ObjectId Id = Ctx.allocate(Size);
    assert(Ctx.heap().isLive(Id) && "fresh allocation is dead");
    const Object &O = Ctx.heap().object(Id);

    // The object fully covers at least three chunks; take the first
    // three (Algorithm 1 line 14).
    uint64_t First = View.firstFullIndex(O.Address, Size);
    assert(View.numFullChunks(O.Address, Size) >= 3 &&
           "a 4-chunk object must cover three chunks fully");
    uint64_t D1 = First, D2 = First + 1, D3 = First + 2;
    clearChunkForOverwrite(D1);
    clearChunkForOverwrite(D2);
    clearChunkForOverwrite(D3);

    ChunkState &C1 = Chunks[D1];
    C1.Entries.push_back(Entry{Id, Size / 2, false});
    C1.AssocWords = Size / 2;
    ChunkState &C2 = Chunks[D2];
    C2.InE = true;
    ChunkState &C3 = Chunks[D3];
    C3.Entries.push_back(Entry{Id, Size / 2, false});
    C3.AssocWords = Size / 2;
    whereSlot(Id) = {D1, D3};
  }
}

double CohenPetrankProgram::potential() const {
  if (Chunks.empty())
    return 0.0;
  double TwoSigma = std::pow(2.0, double(Sigma));
  double ChunkSize = double(pow2(CurLog));
  double U = 0.0;
  for (const ChunkState &CS : Chunks) {
    if (CS.InE)
      U += ChunkSize;
    else
      U += std::min(TwoSigma * double(CS.AssocWords), ChunkSize);
  }
  return U - double(N) / 4.0;
}

bool CohenPetrankProgram::checkAssociationInvariants() const {
  if (!TheHeap)
    return true;
  // Rebuild the per-object association totals from the chunk side.
  std::map<ObjectId, uint64_t> Seen; // id -> total associated words
  std::map<ObjectId, unsigned> Count;
  ChunkView View(CurLog);
  for (uint64_t Index = 0; Index != Chunks.size(); ++Index) {
    const ChunkState &CS = Chunks[Index];
    uint64_t Sum = 0;
    for (const Entry &E : CS.Entries) {
      Sum += E.Words;
      if (E.Phantom)
        continue;
      Seen[E.Id] += E.Words;
      Count[E.Id] += 1;
      // Property 3 of Claim 4.15: a live associated object intersects
      // its chunk.
      if (!TheHeap->isLive(E.Id))
        return false;
      const Object &O = TheHeap->object(E.Id);
      Addr CStart = View.startOf(Index);
      Addr CEnd = View.endOf(Index);
      if (O.end() <= CStart || O.Address >= CEnd)
        return false;
    }
    if (Sum != CS.AssocWords)
      return false;
  }
  // Properties 1 and 2: each live object is associated whole with one
  // chunk or half-and-half with two.
  for (const auto &[Id, Words] : Seen) {
    const Object &O = TheHeap->object(Id);
    unsigned Parts = Count[Id];
    if (Parts == 1 && Words != O.Size && 2 * Words != O.Size)
      return false;
    if (Parts == 2 && Words != O.Size)
      return false;
    if (Parts > 2)
      return false;
    if (!isAssociated(Id))
      return false;
  }
  return true;
}

bool CohenPetrankProgram::checkDensityInvariant() const {
  if (!Opts.MaintainDensity || Chunks.empty() || !RanStageTwoStep)
    return true;
  uint64_t T = CurLog >= Sigma ? pow2(CurLog - Sigma) : 1;
  for (const ChunkState &CS : Chunks) {
    uint64_t LiveWords = 0;
    unsigned LiveCount = 0;
    for (const Entry &E : CS.Entries) {
      if (E.Phantom)
        continue;
      LiveWords += E.Words;
      ++LiveCount;
    }
    if (LiveCount > 1 && LiveWords > 2 * T)
      return false;
  }
  return true;
}
