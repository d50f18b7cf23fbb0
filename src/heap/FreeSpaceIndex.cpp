//===- heap/FreeSpaceIndex.cpp - Free-space queries over the heap --------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Every query is a scan over the occupancy bitboard: free blocks are
// maximal zero runs, assembled on the fly with a carry of "open run
// length" threaded across words and supers. A run is *complete* when a
// used bit terminates it; the scans report complete runs in address
// order, which makes every lowest-address tie-break automatic. Runs
// spanning supers need no word access at all — a super's digest gives
// the exact prefix/suffix free-run lengths, so the chain
// suffix -> (all-free supers) -> prefix reconstructs them arithmetically.
//
//===----------------------------------------------------------------------===//

#include "heap/FreeSpaceIndex.h"

#include "obs/Profiler.h"
#include "support/MathUtils.h"

#include <algorithm>
#include <cassert>

using namespace pcb;

FreeSpaceIndex::FreeSpaceIndex() = default;

unsigned FreeSpaceIndex::classOf(uint64_t Size) {
  assert(Size != 0 && "zero-size block");
  unsigned K = log2Floor(Size);
  return K < NumClasses ? K : NumClasses - 1;
}

//===----------------------------------------------------------------------===//
// Board growth and digests
//===----------------------------------------------------------------------===//

void FreeSpaceIndex::growDense(uint64_t NeedBits) {
  assert(NeedBits <= MaxDenseBits && "dense board beyond its ceiling");
  size_t NeedWords = size_t(alignUp(ceilDiv(NeedBits, WordBits), SuperWords));
  size_t Grown = std::max(NeedWords, Occ.sizeWords() * 2);
  Grown = std::min(Grown, size_t(MaxDenseBits / WordBits));
  Occ.growWords(Grown);
  Super AllFree;
  AllFree.Pre = AllFree.Suf = AllFree.Max = SuperBits;
  AllFree.FreeCount = SuperBits;
  Sum.resize(Occ.sizeWords() / SuperWords, AllFree);
}

namespace {

/// First set occupancy bit in [From, To), or To when none. \p To must be
/// word-aligned and committed; the scan is bounded by To. \p AllClear
/// says the caller knows the range holds no set bit; it is read only once
/// the first word tests clear, so a run cut inside that word costs one
/// load either way.
uint64_t findSetIn(const PackedBitmap &Occ, uint64_t From, uint64_t To,
                   bool AllClear) {
  if (From >= To)
    return To;
  size_t WI = size_t(From / WordBits), W1 = size_t((To - 1) / WordBits);
  uint64_t U = Occ.word(WI) & ~lowMask(unsigned(From % WordBits));
  if (U == 0 && AllClear)
    return To;
  for (;;) {
    if (U != 0) {
      uint64_t B = uint64_t(WI) * WordBits + countTrailingZeros(U);
      return B < To ? B : To;
    }
    if (WI == W1)
      return To;
    U = Occ.word(++WI);
  }
}

/// Bits i where \p F has ones at every position i .. i + L - 1 (runs of
/// length >= \p L wholly inside the word; the shift chain feeds zeros in
/// from the top, so runs are never counted past bit 63). O(log L).
uint64_t runsGE(uint64_t F, uint64_t L) {
  uint64_t Have = 1;
  while (Have < L && F != 0) {
    uint64_t S = std::min(Have, L - Have);
    F &= F >> unsigned(S);
    Have += S;
  }
  return F;
}

/// Last set occupancy bit in [From, To), or PackedBitmap::NoBit. \p From
/// must be word-aligned and the range committed. \p AllClear is read as
/// in findSetIn: only after the last word tests clear.
uint64_t findSetBackIn(const PackedBitmap &Occ, uint64_t From, uint64_t To,
                       bool AllClear) {
  if (From >= To)
    return PackedBitmap::NoBit;
  size_t W0 = size_t(From / WordBits), WI = size_t((To - 1) / WordBits);
  uint64_t U = Occ.word(WI) & lowMask(unsigned((To - 1) % WordBits) + 1);
  if (U == 0 && AllClear)
    return PackedBitmap::NoBit;
  for (;;) {
    if (U != 0)
      return uint64_t(WI) * WordBits + topBitIndex(U);
    if (WI == W0)
      return PackedBitmap::NoBit;
    U = Occ.word(--WI);
  }
}

} // namespace

void FreeSpaceIndex::noteReserve(uint64_t S, uint64_t E) {
  assert(S < E && E <= capBits() && "digest range beyond the board");
  size_t I1 = size_t((E - 1) / SuperBits);
  for (size_t I = size_t(S / SuperBits); I <= I1; ++I) {
    Super &Sp = Sum[I];
    uint64_t B = uint64_t(I) * SuperBits, WEnd = B + SuperBits;
    uint64_t Lo = std::max(S, B), Hi = std::min(E, WEnd);
    Sp.FreeCount = uint16_t(Sp.FreeCount - (Hi - Lo));
    Sp.Pre = std::min(Sp.Pre, uint16_t(Lo - B));
    Sp.Suf = std::min(Sp.Suf, uint16_t(WEnd - Hi));
    // Splitting runs only shrinks them, so the stale Max stays an upper
    // bound until a descent recomputes it.
    Sp.Dirty = true;
  }
}

void FreeSpaceIndex::noteRelease(uint64_t S, uint64_t E) {
  assert(S < E && E <= capBits() && "digest range beyond the board");
  size_t I1 = size_t((E - 1) / SuperBits);
  for (size_t I = size_t(S / SuperBits); I <= I1; ++I) {
    Super &Sp = Sum[I];
    uint64_t B = uint64_t(I) * SuperBits, WEnd = B + SuperBits;
    uint64_t Lo = std::max(S, B), Hi = std::min(E, WEnd);
    Sp.FreeCount = uint16_t(Sp.FreeCount + (Hi - Lo));
    if (Sp.FreeCount == SuperBits) {
      Sp.Pre = Sp.Suf = Sp.Max = uint16_t(SuperBits);
      Sp.Trans = 0;
      Sp.ClassMask = 0;
      Sp.Dirty = false;
      continue;
    }
    // The release merged every adjacent run into one; find its extent
    // within the window (the bits are already cleared). Pre and Suf still
    // hold their pre-release values, and [B, Lo) and [Hi, WEnd) kept
    // their bits, so a neighbour run reaching the window's edge is read
    // off them: only a run ending inside the window is scanned for.
    uint64_t RHi = findSetIn(Occ, Hi, WEnd, Sp.Suf == WEnd - Hi);
    uint64_t LU = findSetBackIn(Occ, B, Lo, Sp.Pre == Lo - B);
    uint64_t RLo = LU == PackedBitmap::NoBit ? B : LU + 1;
    if (RLo == B)
      Sp.Pre = uint16_t(RHi - B);
    if (RHi == WEnd)
      Sp.Suf = uint16_t(WEnd - RLo);
    Sp.Max = std::max(Sp.Max, uint16_t(RHi - RLo));
    Sp.Dirty = true;
  }
}

void FreeSpaceIndex::ensureClean(size_t I) const {
  if (Sum[I].Dirty)
    recomputeSuper(I);
}

void FreeSpaceIndex::recomputeSuper(size_t I) const {
  Super &S = Sum[I];
  const uint64_t *W = Occ.words() + I * SuperWords;
  unsigned Free = 0, MaxRun = 0, Pre = 0, Trans = 0, Run = 0;
  uint64_t CMask = 0;
  bool SeenUsed = false;
  for (unsigned WI = 0; WI != SuperWords; ++WI) {
    const uint64_t U = W[WI];
    Free += WordBits - popcount64(U);
    if (U == 0) {
      Run += WordBits;
      continue;
    }
    // Jump used-run to used-run: one ctz finds the run's first used bit,
    // a second (over the complement) skips past its last.
    unsigned Prev = 0;
    uint64_t Used = U;
    while (Used != 0) {
      unsigned B = countTrailingZeros(Used);
      Run += B - Prev;
      if (Run != 0) {
        if (!SeenUsed) {
          Pre = Run;
        } else {
          // A run with used bits on both sides, wholly interior to the
          // window: its class participates in best-fit pruning.
          CMask |= uint64_t(1) << classOf(Run);
          ++Trans;
        }
        if (Run > MaxRun)
          MaxRun = Run;
        Run = 0;
      }
      SeenUsed = true;
      uint64_t FreeAbove = ~U & ~lowMask(B);
      if (FreeAbove == 0) {
        Prev = WordBits;
        break;
      }
      Prev = countTrailingZeros(FreeAbove);
      Used = U & ~lowMask(Prev);
    }
    Run += WordBits - Prev;
  }
  if (!SeenUsed) {
    S.Pre = S.Suf = S.Max = uint16_t(SuperBits);
    S.Trans = 0;
    S.FreeCount = uint16_t(SuperBits);
    S.ClassMask = 0;
    S.Dirty = false;
    return;
  }
  if (Run != 0) {
    // Suffix run: starts after a used bit (counts as an interior start),
    // but completes in a later super, so it stays out of ClassMask.
    ++Trans;
    if (Run > MaxRun)
      MaxRun = Run;
  }
  S.Pre = uint16_t(Pre);
  S.Suf = uint16_t(Run);
  S.Max = uint16_t(MaxRun);
  S.Trans = uint16_t(Trans);
  S.FreeCount = uint16_t(Free);
  S.ClassMask = CMask;
  S.Dirty = false;
}

//===----------------------------------------------------------------------===//
// Mutation
//===----------------------------------------------------------------------===//

void FreeSpaceIndex::reserve(Addr Start, uint64_t Size) {
  ScopedTimer Timer(Profiler::SecFreeReserve);
  assert(Size != 0 && "reserving zero words");
  Addr End = Start + Size;
  // The block-count delta is read off the two flanking bits: consuming a
  // whole block removes one, biting into the middle of one adds one.
  bool LeftFree = Start != 0 && bitFree(Start - 1);
  bool RightFree = End < AddrLimit && bitFree(End);
  if (Start < MaxDenseBits) {
    Addr DenseEnd = std::min<Addr>(End, MaxDenseBits);
    ensureDense(DenseEnd);
    assert(Occ.rangeClear(Start, DenseEnd) && "reserve target is not free");
    Occ.setRange(Start, DenseEnd);
    noteReserve(Start, DenseEnd);
  }
  if (End > MaxDenseBits)
    HighUsed.insert(std::max<Addr>(Start, MaxDenseBits), End);
  TotalBlocks += size_t(LeftFree) + size_t(RightFree) - 1;
}

void FreeSpaceIndex::release(Addr Start, uint64_t Size) {
  ScopedTimer Timer(Profiler::SecFreeRelease);
  assert(Size != 0 && "releasing zero words");
  Addr End = Start + Size;
  bool LeftFree = Start != 0 && bitFree(Start - 1);
  bool RightFree = End < AddrLimit && bitFree(End);
  if (Start < MaxDenseBits) {
    Addr DenseEnd = std::min<Addr>(End, MaxDenseBits);
    assert(DenseEnd <= capBits() &&
           "releasing a range that is partly free");
    assert(Occ.rangeSet(Start, DenseEnd) &&
           "releasing a range that is partly free");
    Occ.clearRange(Start, DenseEnd);
    noteRelease(Start, DenseEnd);
  }
  if (End > MaxDenseBits)
    HighUsed.erase(std::max<Addr>(Start, MaxDenseBits), End);
  TotalBlocks += 1 - size_t(LeftFree) - size_t(RightFree);
}

//===----------------------------------------------------------------------===//
// The run scan scaffold
//===----------------------------------------------------------------------===//

namespace {

/// Number of all-ones words directly after word \p WI, stopping at word
/// \p W1. The fit scans call it on reaching a full word: PF keeps the
/// heap below its fits nearly full, so a descent otherwise spends most
/// of its time stepping through used words one at a time.
size_t skipFullWords(const PackedBitmap &Occ, size_t WI, size_t W1) {
  return findNotOnesWord(Occ.words() + WI + 1, W1 - WI - 1);
}

/// Enumerates complete maximal free runs over occupancy words
/// [FromBit, ToBit) (ToBit word-aligned), threading \p Run as the open
/// run length entering the range. Bits below FromBit in its word are
/// treated as used, so reported starts are >= FromBit. Returns true when
/// \p Fn stopped the scan.
template <typename FnT>
bool scanWords(const PackedBitmap &Occ, uint64_t FromBit, uint64_t ToBit,
               uint64_t &Run, FnT &&Fn) {
  size_t W0 = size_t(FromBit / WordBits), W1 = size_t(ToBit / WordBits);
  for (size_t WI = W0; WI != W1; ++WI) {
    uint64_t U = Occ.word(WI);
    if (WI == W0)
      U |= lowMask(unsigned(FromBit % WordBits));
    if (U == 0) {
      Run += WordBits;
      continue;
    }
    uint64_t Base = uint64_t(WI) * WordBits;
    if (U == ~uint64_t(0)) {
      // A full word completes the open run; the full words after it
      // report nothing, so jump to the next partial word.
      if (Run != 0 && Fn(Addr(Base - Run), Addr(Base)))
        return true;
      Run = 0;
      WI += skipFullWords(Occ, WI, W1);
      continue;
    }
    // Jump used-run to used-run (see recomputeSuper): iterations scale
    // with the word's run count, not its popcount.
    unsigned Prev = 0;
    uint64_t Used = U;
    while (Used != 0) {
      unsigned B = countTrailingZeros(Used);
      Run += B - Prev;
      if (Run != 0) {
        if (Fn(Addr(Base + B - Run), Addr(Base + B)))
          return true;
        Run = 0;
      }
      uint64_t FreeAbove = ~U & ~lowMask(B);
      if (FreeAbove == 0) {
        Prev = WordBits;
        break;
      }
      Prev = countTrailingZeros(FreeAbove);
      Used = U & ~lowMask(Prev);
    }
    Run += WordBits - Prev;
  }
  return false;
}

/// First-fit specialization of the word scan over [FromBit, ToBit)
/// (ToBit word-aligned, bits below FromBit treated as used): the lowest
/// block start where \p Size bits fit, or InvalidAddr when the range
/// ends without one (\p Run then carries the trailing open run). Exits
/// as soon as the open run reaches \p Size — the block's start is
/// already determined, its end is irrelevant — and rejects whole words
/// with one shift-AND chain instead of chopping out their runs.
Addr scanFirstFit(const PackedBitmap &Occ, uint64_t FromBit, uint64_t ToBit,
                  uint64_t &Run, uint64_t Size, uint64_t &Probes) {
  size_t W0 = size_t(FromBit / WordBits), W1 = size_t(ToBit / WordBits);
  for (size_t WI = W0; WI != W1; ++WI) {
    uint64_t U = Occ.word(WI);
    if (WI == W0)
      U |= lowMask(unsigned(FromBit % WordBits));
    if (U == 0) {
      Run += WordBits;
      if (Run >= Size)
        return Addr(uint64_t(WI + 1) * WordBits - Run);
      continue;
    }
    uint64_t Base = uint64_t(WI) * WordBits;
    unsigned T = countTrailingZeros(U);
    if (Run + T >= Size)
      return Addr(Base - Run); // the carried run completes here
    if (U == ~uint64_t(0)) {
      // A full word rejects the carried run and starts none; neither do
      // the full words after it.
      Probes += uint64_t(Run != 0);
      Run = 0;
      WI += skipFullWords(Occ, WI, W1);
      continue;
    }
    uint64_t F = ~U;
    if (Size <= WordBits) {
      // Lowest in-word window of Size free bits; its predecessor bit is
      // necessarily used (else a lower window existed), so it is a block
      // start.
      uint64_t M = runsGE(F, Size);
      if (M != 0)
        return Addr(Base + countTrailingZeros(M));
    }
    // No fit starts in this word: count its completed runs (ends with a
    // free predecessor, plus a carried run cut at bit 0) and carry the
    // free suffix.
    Probes += popcount64(U & (F << 1)) + uint64_t(Run != 0 && T == 0);
    Run = WordBits - 1 - topBitIndex(U);
  }
  return InvalidAddr;
}

} // namespace

template <typename FnT>
bool FreeSpaceIndex::scanSuperFused(size_t I, uint64_t &Run, FnT &&Fn) const {
  Super &Sp = Sum[I];
  const uint64_t Base = uint64_t(I) * SuperBits;
  const uint64_t *W = Occ.words() + I * SuperWords;
  unsigned Free = 0, MaxRun = 0, Pre = 0, Trans = 0;
  uint64_t CMask = 0;
  // LRun is the window-local open run (resets at the window base); Run is
  // the global carry. They differ only until the first used bit, where
  // the local length is the window's prefix.
  uint64_t LRun = 0;
  bool SeenUsed = false, Stopped = false;
  for (unsigned WI = 0; WI != SuperWords; ++WI) {
    const uint64_t U = W[WI];
    Free += WordBits - popcount64(U);
    if (U == 0) {
      Run += WordBits;
      LRun += WordBits;
      continue;
    }
    uint64_t WBase = Base + uint64_t(WI) * WordBits;
    // Completes the open run at used bit B of this word, for Fn and the
    // digest alike.
    auto CloseRun = [&](unsigned B) {
      if (Run != 0) {
        if (!Stopped && Fn(Addr(WBase + B - Run), Addr(WBase + B)))
          Stopped = true;
        if (!SeenUsed) {
          Pre = unsigned(LRun);
        } else {
          CMask |= uint64_t(1) << classOf(LRun);
          ++Trans;
        }
        if (LRun > MaxRun)
          MaxRun = unsigned(LRun);
      }
      Run = 0;
      LRun = 0;
      SeenUsed = true;
    };
    if (U == ~uint64_t(0)) {
      // A full word closes the open run like any used bit; the full words
      // after it add no free bits and close nothing, so skip them.
      CloseRun(0);
      WI += unsigned(skipFullWords(Occ, I * SuperWords + WI,
                                   (I + 1) * SuperWords));
      continue;
    }
    unsigned Prev = 0;
    uint64_t Used = U;
    while (Used != 0) {
      unsigned B = countTrailingZeros(Used);
      Run += B - Prev;
      LRun += B - Prev;
      CloseRun(B);
      uint64_t FreeAbove = ~U & ~lowMask(B);
      if (FreeAbove == 0) {
        Prev = WordBits;
        break;
      }
      Prev = countTrailingZeros(FreeAbove);
      Used = U & ~lowMask(Prev);
    }
    Run += WordBits - Prev;
    LRun += WordBits - Prev;
  }
  if (!SeenUsed) {
    Sp.Pre = Sp.Suf = Sp.Max = uint16_t(SuperBits);
    Sp.Trans = 0;
    Sp.FreeCount = uint16_t(SuperBits);
    Sp.ClassMask = 0;
    Sp.Dirty = false;
    return Stopped;
  }
  if (LRun != 0) {
    ++Trans;
    if (LRun > MaxRun)
      MaxRun = unsigned(LRun);
  }
  Sp.Pre = uint16_t(Pre);
  Sp.Suf = uint16_t(LRun);
  Sp.Max = uint16_t(MaxRun);
  Sp.Trans = uint16_t(Trans);
  Sp.FreeCount = uint16_t(Free);
  Sp.ClassMask = CMask;
  Sp.Dirty = false;
  return Stopped;
}

Addr FreeSpaceIndex::firstFitInSuper(size_t I, uint64_t &Run, uint64_t Size,
                                     uint64_t &Probes) const {
  // Two passes beat one fused sweep here: most stale descents find their
  // fit (and exit early), so the hit path runs the lean word scan with no
  // digest bookkeeping at all; only the no-fit minority pays the second,
  // digest-banking pass over the same 64 words.
  const uint64_t Base = uint64_t(I) * SuperBits;
  Addr Hit = scanFirstFit(Occ, Base, Base + SuperBits, Run, Size, Probes);
  if (Hit == InvalidAddr)
    recomputeSuper(I);
  return Hit;
}

template <typename FnT>
bool FreeSpaceIndex::forEachGap(Addr T, FnT Fn) const {
  for (auto It = HighUsed.firstEndingAfter(T); It != HighUsed.end(); ++It) {
    auto [IS, IE] = *It;
    if (T < IS && Fn(T, IS))
      return true;
    T = IE;
  }
  return T < AddrLimit && Fn(T, AddrLimit);
}

template <typename DescendT, typename FnT>
FreeSpaceIndex::ScanEnd FreeSpaceIndex::forEachRun(Addr StopBase,
                                                   DescendT Descend,
                                                   FnT Fn) const {
  const uint64_t Cap = capBits();
  const size_t NS = Sum.size();
  size_t StopSI = StopBase >= Cap ? NS : size_t(ceilDiv(StopBase, SuperBits));
  uint64_t Run = 0;
  for (size_t I = 0; I != StopSI; ++I) {
    const Super &S = Sum[I];
    uint64_t Base = uint64_t(I) * SuperBits;
    if (S.FreeCount == SuperBits) {
      Run += SuperBits;
      continue;
    }
    if (Descend(I, S, Run)) {
      if (S.Dirty ? scanSuperFused(I, Run, Fn)
                  : scanWords(Occ, Base, Base + SuperBits, Run, Fn))
        return {true, 0, 0, false};
    } else {
      uint64_t L = Run + S.Pre;
      if (L != 0 && Fn(Addr(Base + S.Pre - L), Addr(Base + S.Pre)))
        return {true, 0, 0, false};
      Run = S.Suf;
    }
  }
  if (StopSI != NS)
    return {false, Run, Addr(uint64_t(StopSI) * SuperBits), false};
  // Tail: the open run reaches from Cap - Run through HighUsed's gaps to
  // AddrLimit.
  return {forEachGap(Addr(Cap - Run), Fn), 0, AddrLimit, true};
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

bool FreeSpaceIndex::isFree(Addr Start, uint64_t Size) const {
  assert(Size != 0 && "querying zero words");
  Addr End = Start + Size;
  if (End > AddrLimit)
    return false;
  if (Start < capBits() &&
      !Occ.rangeClear(Start, std::min<Addr>(End, capBits())))
    return false;
  return HighUsed.empty() || !HighUsed.overlaps(Start, End);
}

Addr FreeSpaceIndex::firstFit(uint64_t Size) const {
  return firstFitFrom(0, Size);
}

Addr FreeSpaceIndex::firstFitFrom(Addr From, uint64_t Size) const {
  assert(Size != 0 && "zero-size fit query");
  Profiler::bump(Profiler::CtrFitQueries);
  // A block containing From may serve the request from From onward.
  if (From != 0 && isFree(From, Size))
    return From;
  // This is the hottest query, so it gets a bespoke walk instead of the
  // generic forEachRun: it exits the moment the carried open run reaches
  // Size (the run's start is already the answer; scanning to its end
  // would be wasted work) and judges whole supers from the always-exact
  // Pre digest before considering a descent.
  const uint64_t Cap = capBits();
  uint64_t Run = 0, Probes = 0;
  Addr Found = InvalidAddr;
  if (From < Cap) {
    size_t SI = size_t(From / SuperBits);
    if (From % SuperBits != 0) {
      Found =
          scanFirstFit(Occ, From, uint64_t(SI + 1) * SuperBits, Run, Size,
                       Probes);
      ++SI;
    }
    const size_t NS = Sum.size();
    for (size_t I = SI; Found == InvalidAddr && I != NS; ++I) {
      const Super &S = Sum[I];
      uint64_t Base = uint64_t(I) * SuperBits;
      if (S.FreeCount == SuperBits) {
        Run += SuperBits;
        if (Run >= Size)
          Found = Addr(Base + SuperBits - Run);
        continue;
      }
      if (Run + S.Pre >= Size) { // the carried run completes here
        Found = Addr(Base - Run);
        break;
      }
      if (uint64_t(S.Max) >= Size) {
        // Max is an upper bound while dirty: a stale pass either finds
        // the fit (cheap — the sweep stops right there) or banks a clean
        // digest whose exact Max skips this super until the next
        // mutation. A stale skip cannot happen. Clean supers promise an
        // in-window fit (Max is exact), so their scan never wastes a
        // full sweep.
        Found = S.Dirty
                    ? firstFitInSuper(I, Run, Size, Probes)
                    : scanFirstFit(Occ, Base, Base + SuperBits, Run, Size,
                                   Probes);
        continue;
      }
      Probes += uint64_t(Run + S.Pre != 0);
      Run = S.Suf;
    }
  } else {
    // Dense board skipped entirely; reconstruct its trailing free run so
    // the tail run start is exact.
    uint64_t Last = Occ.findLastSetBefore(Cap);
    Run = Last == PackedBitmap::NoBit ? Cap : Cap - (Last + 1);
  }
  if (Found == InvalidAddr) {
    // Tail: the open run reaches from Cap - Run through HighUsed's gaps
    // to AddrLimit. Runs starting below From were already rejected by the
    // straddle pre-check, so they are skipped.
    forEachGap(Addr(Cap - Run), [&](Addr S, Addr E) {
      if (S < From)
        return false;
      // The infinite tail always fits.
      if (E == AddrLimit || E - S >= Size) {
        Found = S;
        return true;
      }
      ++Probes;
      return false;
    });
  }
  Profiler::bump(Profiler::CtrFitProbes, Probes);
  assert(Found != InvalidAddr && "infinite tail should always fit");
  return Found;
}

Addr FreeSpaceIndex::bestFit(uint64_t Size) const {
  assert(Size != 0 && "zero-size fit query");
  Profiler::bump(Profiler::CtrFitQueries);
  const unsigned K = classOf(Size);
  uint64_t BestSize = UINT64_MAX;
  Addr Best = InvalidAddr;
  forEachRun(
      AddrLimit,
      [&](size_t, const Super &S, uint64_t) {
        // A dirty super is judged by its Max upper bound alone; a clean
        // one descends only when an interior run could tighten the
        // incumbent: its class must reach Size's class but not exceed
        // the incumbent's (floor-log is monotone). Boundary runs are
        // judged from the always-exact Pre/Suf digests either way.
        if (S.Dirty)
          return uint64_t(S.Max) >= Size;
        unsigned Hi =
            BestSize == UINT64_MAX ? NumClasses - 1 : classOf(BestSize);
        return (S.ClassMask & bitRange(K, Hi + 1)) != 0;
      },
      [&](Addr S, Addr E) {
        uint64_t L = E - S;
        if (L >= Size && L < BestSize) {
          BestSize = L;
          Best = S;
          if (L == Size)
            return true; // exact fit: nothing can be tighter
        }
        return false;
      });
  assert(Best != InvalidAddr && "infinite tail should always fit");
  return Best;
}

Addr FreeSpaceIndex::firstFitAligned(uint64_t Size, uint64_t Align) const {
  assert(Size != 0 && "zero-size fit query");
  assert(isPowerOfTwo(Align) && "alignment must be a power of two");
  Profiler::bump(Profiler::CtrFitQueries);
  // Blocks are disjoint and address-ordered, so the first block (by
  // address) that admits an aligned placement yields the lowest aligned
  // address overall.
  Addr Found = InvalidAddr;
  uint64_t Probes = 0;
  forEachRun(
      AddrLimit,
      [&](size_t, const Super &S, uint64_t) {
        return uint64_t(S.Max) >= Size;
      },
      [&](Addr S, Addr E) {
        if (E - S < Size)
          return false;
        ++Probes;
        Addr Aligned = alignUp(S, Align);
        if (Aligned < E && E - Aligned >= Size) {
          Found = Aligned;
          return true;
        }
        return false;
      });
  Profiler::bump(Profiler::CtrFitProbes, Probes);
  assert(Found != InvalidAddr && "infinite tail should always fit");
  return Found;
}

Addr FreeSpaceIndex::worstFitBelow(uint64_t Size, Addr Limit) const {
  assert(Size != 0 && "zero-size fit query");
  Profiler::bump(Profiler::CtrFitQueries);
  Addr Best = InvalidAddr;
  uint64_t BestSpan = 0;
  ScanEnd End = forEachRun(
      Limit,
      [&](size_t, const Super &S, uint64_t) {
        // A clipped span never exceeds the run's length, so a super
        // whose longest run cannot beat the incumbent (strictly — ties
        // keep the lower address) is skipped whole.
        return uint64_t(S.Max) >= std::max<uint64_t>(Size, BestSpan + 1);
      },
      [&](Addr S, Addr E) {
        if (S >= Limit)
          return true;
        uint64_t Span = std::min<Addr>(E, Limit) - S;
        if (Span >= Size && Span > BestSpan) {
          BestSpan = Span;
          Best = S;
        }
        return false;
      });
  if (!End.Stopped && !End.ReachedTail && End.Carry != 0) {
    // The run left open where the dense walk stopped crosses Limit.
    Addr S = End.Pos - End.Carry;
    if (S < Limit) {
      uint64_t Span = Limit - S;
      if (Span >= Size && Span > BestSpan)
        Best = S;
    }
  }
  return Best;
}

uint64_t FreeSpaceIndex::freeWordsBelow(Addr Limit) const {
  return Limit == 0 ? 0 : freeWordsIn(0, Limit);
}

size_t FreeSpaceIndex::numBlocksBelow(Addr Limit) const {
  if (Limit == 0)
    return 0;
  size_t N = 0;
  const uint64_t Cap = capBits();
  bool PrevUsed = true; // virtual used bit before address 0
  const uint64_t DenseLim = std::min<Addr>(Limit, Cap);
  const size_t FullSupers = size_t(DenseLim / SuperBits);
  for (size_t I = 0; I != FullSupers; ++I) {
    ensureClean(I);
    const Super &S = Sum[I];
    bool AllFree = S.FreeCount == SuperBits;
    bool Bit0Free = AllFree || S.Pre > 0;
    N += S.Trans + size_t(Bit0Free && PrevUsed);
    PrevUsed = !AllFree && S.Suf == 0;
  }
  uint64_t Pos = uint64_t(FullSupers) * SuperBits;
  if (Pos < DenseLim) {
    // Straddling super: count run starts at word level up to the limit.
    size_t W1 = size_t(ceilDiv(DenseLim, WordBits));
    for (size_t WI = size_t(Pos / WordBits); WI != W1; ++WI) {
      uint64_t F = ~Occ.word(WI);
      uint64_t WordEnd = uint64_t(WI + 1) * WordBits;
      if (WordEnd > DenseLim)
        F &= lowMask(unsigned(DenseLim - uint64_t(WI) * WordBits));
      uint64_t Starts = F & ~((F << 1) | uint64_t(!PrevUsed));
      N += popcount64(Starts);
      PrevUsed = (Occ.word(WI) >> 63) & 1;
    }
  }
  if (Limit > Cap) {
    // Runs starting in [Cap, Limit): the one at Cap unless the dense
    // board's last run continues into it, then the gap after each
    // interval.
    forEachGap(Cap, [&](Addr S, Addr) {
      if (S >= Limit)
        return true;
      N += size_t(S != Cap || PrevUsed);
      return false;
    });
  }
  return N;
}

uint64_t FreeSpaceIndex::largestBlockBelow(Addr Limit) const {
  uint64_t Best = 0;
  ScanEnd End = forEachRun(
      Limit,
      [&](size_t, const Super &S, uint64_t) {
        return uint64_t(S.Max) > Best;
      },
      [&](Addr S, Addr E) {
        if (S >= Limit)
          return true;
        Best = std::max<uint64_t>(Best, std::min<Addr>(E, Limit) - S);
        return false;
      });
  if (!End.Stopped && !End.ReachedTail && End.Carry != 0) {
    Addr S = End.Pos - End.Carry;
    if (S < Limit)
      Best = std::max<uint64_t>(Best, Limit - S);
  }
  return Best;
}

void FreeSpaceIndex::occupancyWords(Addr Start, size_t Count,
                                    uint64_t *Out) const {
  Occ.extract(Start, Count, Out);
  Addr End = Start + uint64_t(Count) * WordBits;
  for (auto It = HighUsed.firstEndingAfter(Start);
       It != HighUsed.end() && It->first < End; ++It) {
    Addr Lo = std::max(It->first, Start), Hi = std::min(It->second, End);
    // WBase is the first address of each output word [Lo, Hi) touches.
    for (Addr WBase = Lo - (Lo - Start) % WordBits; WBase < Hi;
         WBase += WordBits)
      Out[(WBase - Start) / WordBits] |=
          bitRange(unsigned(std::max(Lo, WBase) - WBase),
                   unsigned(std::min<Addr>(Hi, WBase + WordBits) - WBase));
  }
}

std::pair<Addr, Addr> FreeSpaceIndex::nextFreeRun(Addr Pos) const {
  const uint64_t Cap = capBits();
  if (Pos < Cap) {
    uint64_t S = Occ.findFirstClear(Pos);
    uint64_t E = S < Cap ? Occ.findFirstSet(S) : PackedBitmap::NoBit;
    if (E != PackedBitmap::NoBit)
      return {Addr(S), Addr(E)};
    // The run reaches the end of the board (or the board is used from
    // Pos to its end): it continues, or starts, above it.
    Pos = Addr(S);
  }
  std::pair<Addr, Addr> Run{InvalidAddr, InvalidAddr};
  forEachGap(Pos, [&](Addr S, Addr E) {
    Run = {S, E};
    return true;
  });
  return Run;
}
