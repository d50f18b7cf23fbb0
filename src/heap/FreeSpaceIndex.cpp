//===- heap/FreeSpaceIndex.cpp - Free-space queries over the heap --------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Free blocks are maximal zero runs of the occupancy bitboard, assembled
// on the fly with a carry of "open run length" threaded across words,
// supers and pages. A run is *complete* when a used bit terminates it;
// runs are met in address order, which makes every lowest-address
// tie-break automatic. One walk steps through the board's directory and
// owns the carry; runs spanning supers need no word access, as a super's
// exact Pre/Suf digests chain suffix -> (free supers) -> prefix.
//
//===----------------------------------------------------------------------===//

#include "heap/FreeSpaceIndex.h"

#include "obs/Profiler.h"
#include "support/MathUtils.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>

using namespace pcb;

FreeSpaceIndex::FreeSpaceIndex() = default;

//===----------------------------------------------------------------------===//
// Digests
//===----------------------------------------------------------------------===//

namespace {

constexpr uint64_t NoBit = ~uint64_t(0);

/// First set bit of the page words \p W in page-local [From, To), or To
/// when none. \p To must be word-aligned; the scan is bounded by To.
/// \p AllClear says the caller knows the range holds no set bit; it is
/// read only once the first word tests clear, so a run cut inside that
/// word costs one load either way.
uint64_t findSetIn(const uint64_t *W, uint64_t From, uint64_t To,
                   bool AllClear) {
  if (From >= To)
    return To;
  size_t WI = size_t(From / WordBits), W1 = size_t((To - 1) / WordBits);
  uint64_t U = W[WI] & ~lowMask(unsigned(From % WordBits));
  if (U == 0 && AllClear)
    return To;
  for (;;) {
    if (U != 0) {
      uint64_t B = uint64_t(WI) * WordBits + countTrailingZeros(U);
      return B < To ? B : To;
    }
    if (WI == W1)
      return To;
    U = W[++WI];
  }
}

/// Last set bit of the page words \p W in page-local [From, To), or
/// NoBit. \p From must be word-aligned. \p AllClear is read as in
/// findSetIn: only after the last word tests clear.
uint64_t findSetBackIn(const uint64_t *W, uint64_t From, uint64_t To,
                       bool AllClear) {
  if (From >= To)
    return NoBit;
  size_t W0 = size_t(From / WordBits), WI = size_t((To - 1) / WordBits);
  uint64_t U = W[WI] & lowMask(unsigned((To - 1) % WordBits) + 1);
  if (U == 0 && AllClear)
    return NoBit;
  for (;;) {
    if (U != 0)
      return uint64_t(WI) * WordBits + topBitIndex(U);
    if (WI == W0)
      return NoBit;
    U = W[--WI];
  }
}

} // namespace

void FreeSpaceIndex::noteReserve(PageSums &D, uint64_t S, uint64_t E) {
  size_t I1 = size_t((E - 1) / SuperBits);
  for (size_t I = size_t(S / SuperBits); I <= I1; ++I) {
    Super &Sp = D.Sum[I];
    uint64_t B = uint64_t(I) * SuperBits, WEnd = B + SuperBits;
    uint64_t Lo = std::max(S, B), Hi = std::min(E, WEnd);
    const bool WasFree = Sp.FreeCount == SuperBits;
    Sp.FreeCount = uint16_t(Sp.FreeCount - (Hi - Lo));
    if (WasFree) {
      // The two remainders are the new prefix and suffix runs, so there
      // is still no interior run: a free super's digest (Max 0, clean)
      // stays exact.
      Sp.Pre = uint16_t(Lo - B);
      Sp.Suf = uint16_t(WEnd - Hi);
      continue;
    }
    // The range lies in one free run. Cutting the prefix or the suffix
    // run leaves its far remainder interior, so Max takes it in;
    // cutting an interior run only shrinks runs, and the stale Max stays
    // an upper bound until a descent recomputes it.
    if (Lo < B + Sp.Pre) {
      Sp.Max = std::max(Sp.Max, uint16_t(B + Sp.Pre - Hi));
      Sp.Pre = uint16_t(Lo - B);
    } else if (Hi > WEnd - Sp.Suf) {
      Sp.Max = std::max(Sp.Max, uint16_t(Lo - (WEnd - Sp.Suf)));
      Sp.Suf = uint16_t(WEnd - Hi);
    }
    Sp.Dirty = true;
  }
}

void FreeSpaceIndex::noteRelease(const OccPage &Pg, PageSums &D, uint64_t S,
                                 uint64_t E) {
  size_t I1 = size_t((E - 1) / SuperBits);
  for (size_t I = size_t(S / SuperBits); I <= I1; ++I) {
    Super &Sp = D.Sum[I];
    uint64_t B = uint64_t(I) * SuperBits, WEnd = B + SuperBits;
    uint64_t Lo = std::max(S, B), Hi = std::min(E, WEnd);
    Sp.FreeCount = uint16_t(Sp.FreeCount + (Hi - Lo));
    if (Sp.FreeCount == SuperBits) {
      Sp = Super();
      continue;
    }
    // The release merged every adjacent run into one; find its extent
    // within the window (the bits are already cleared). Pre and Suf still
    // hold their pre-release values, and [B, Lo) and [Hi, WEnd) kept
    // their bits, so a neighbour run reaching the window's edge is read
    // off them: only a run ending inside the window is scanned for.
    uint64_t RHi = findSetIn(Pg.W, Hi, WEnd, Sp.Suf == WEnd - Hi);
    uint64_t LU = findSetBackIn(Pg.W, B, Lo, Sp.Pre == Lo - B);
    uint64_t RLo = LU == NoBit ? B : LU + 1;
    if (RLo == B)
      Sp.Pre = uint16_t(RHi - B);
    if (RHi == WEnd)
      Sp.Suf = uint16_t(WEnd - RLo);
    if (RLo != B && RHi != WEnd)
      Sp.Max = std::max(Sp.Max, uint16_t(RHi - RLo));
    Sp.Dirty = true;
  }
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
  [[maybe_unused]] bool WasFree = Occ.assign(Start, End, true, NoteMutation);
  assert(WasFree && "reserve target is not free");
  TotalBlocks += size_t(LeftFree) + size_t(RightFree) - 1;
}

void FreeSpaceIndex::release(Addr Start, uint64_t Size) {
  ScopedTimer Timer(Profiler::SecFreeRelease);
  assert(Size != 0 && "releasing zero words");
  Addr End = Start + Size;
  bool LeftFree = Start != 0 && bitFree(Start - 1);
  bool RightFree = End < AddrLimit && bitFree(End);
  [[maybe_unused]] bool WasUsed = Occ.assign(Start, End, false, NoteMutation);
  assert(WasUsed && "releasing a range that is partly free");
  TotalBlocks += 1 - size_t(LeftFree) - size_t(RightFree);
}

//===----------------------------------------------------------------------===//
// The run scan scaffold
//===----------------------------------------------------------------------===//

namespace {

/// Number of all-ones words directly after word \p WI, stopping at word
/// \p W1. The fit scans call it on reaching a full word: PF keeps the
/// heap below its fits nearly full, so a descent otherwise spends most
/// of its time stepping through used words one at a time. The next word
/// is tested inline, so a lone full word costs no kernel call; the
/// kernel runs only for a stretch of two or more.
size_t skipFullWords(const uint64_t *W, size_t WI, size_t W1) {
  if (WI + 1 == W1 || W[WI + 1] != ~uint64_t(0))
    return 0;
  return 1 + findNotOnesWord(W + WI + 2, W1 - WI - 2);
}

/// Enumerates complete maximal free runs over the \p NumWords occupancy
/// words \p W of addresses from \p At on, threading \p Run as the open
/// run length entering the range. Returns true when \p Fn stopped the
/// scan.
template <typename FnT>
bool scanWords(const uint64_t *W, size_t NumWords, Addr At, uint64_t &Run,
               FnT &&Fn) {
  for (size_t WI = 0; WI != NumWords; ++WI) {
    uint64_t U = W[WI];
    if (U == 0) {
      Run += WordBits;
      continue;
    }
    uint64_t Base = At + uint64_t(WI) * WordBits;
    if (U == ~uint64_t(0)) {
      // A full word completes the open run; the full words after it
      // report nothing, so jump to the next partial word.
      if (Run != 0 && Fn(Addr(Base - Run), Addr(Base)))
        return true;
      Run = 0;
      WI += skipFullWords(W, WI, NumWords);
      continue;
    }
    // Jump used-run to used-run: FreeAbove leads from a used run's first
    // bit past its last, so iterations scale with the word's run count,
    // not its popcount.
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

/// The in-word window test of first fit for one window length \p L
/// (1..64): runsGE(F) keeps the bits i where \p F has ones at every
/// position i .. i + L - 1, i.e. the starts of runs of length >= L wholly
/// inside the word (the shifts feed zeros in from the top, so no run is
/// counted past bit 63). The shift-AND chain doubles the covered length
/// 1, 2, 4, ... up to Half, the largest power of two below L (1 for L =
/// 1), and tops it up to exactly L with a last shift of L - Half. The
/// schedule depends on L alone, so every word of a query runs the same
/// ceil(log2 L) steps: no exit on the data, whose trip count would
/// change from word to word.
class WindowSchedule {
public:
  explicit WindowSchedule(uint64_t L)
      : Half(std::bit_floor((L - 1) | 1)), Last(unsigned(L - Half)) {
    assert(L != 0 && L <= WordBits && "window longer than a word");
  }

  uint64_t runsGE(uint64_t F) const {
    for (uint64_t S = 1; S < Half; S <<= 1)
      F &= F >> S;
    return F & (F >> Last);
  }

private:
  uint64_t Half;
  unsigned Last;
};

/// First-fit specialization of the word scan over the \p NumWords words
/// \p W of addresses from \p At on, starting at bit \p FromBit (bits
/// below it treated as used): the lowest block start where \p Size bits
/// fit, or InvalidAddr when the range ends without one (\p Run then
/// carries the trailing open run). Exits as soon as the open run reaches
/// \p Size — the block's start is already determined, its end is
/// irrelevant — and rejects whole words with \p Windows, the schedule
/// for \p Size (null when Size exceeds a word), instead of chopping out
/// their runs. Only a \p Counted scan adds the runs it rejects to
/// \p Probes.
template <bool Counted>
Addr scanFirstFit(const uint64_t *W, size_t NumWords, Addr At,
                  uint64_t FromBit, uint64_t &Run, uint64_t Size,
                  const WindowSchedule *Windows, uint64_t &Probes) {
  size_t W0 = size_t(FromBit / WordBits);
  for (size_t WI = W0; WI != NumWords; ++WI) {
    uint64_t U = W[WI];
    if (WI == W0)
      U |= lowMask(unsigned(FromBit % WordBits));
    uint64_t Base = At + uint64_t(WI) * WordBits;
    if (U == 0) {
      Run += WordBits;
      if (Run >= Size)
        return Addr(Base + WordBits - Run);
      continue;
    }
    unsigned T = countTrailingZeros(U);
    if (Run + T >= Size)
      return Addr(Base - Run); // the carried run completes here
    if (U == ~uint64_t(0)) {
      // A full word rejects the carried run and starts none; neither do
      // the full words after it.
      if constexpr (Counted)
        Probes += uint64_t(Run != 0);
      Run = 0;
      WI += skipFullWords(W, WI, NumWords);
      continue;
    }
    uint64_t F = ~U;
    if (Windows) {
      // Lowest in-word window of Size free bits; its predecessor bit is
      // necessarily used (else a lower window existed), so it is a block
      // start.
      uint64_t M = Windows->runsGE(F);
      if (M != 0)
        return Addr(Base + countTrailingZeros(M));
    }
    // No fit starts in this word: count its completed runs (ends with a
    // free predecessor, plus a carried run cut at bit 0) and carry the
    // free suffix.
    if constexpr (Counted)
      Probes += popcount64(U & (F << 1)) + uint64_t(Run != 0 && T == 0);
    Run = WordBits - 1 - topBitIndex(U);
  }
  return InvalidAddr;
}

} // namespace

template <typename FnT>
bool FreeSpaceIndex::scanSuperFused(const uint64_t *W, Super &Sp, Addr Base,
                                    uint64_t &Run, FnT &&Fn) {
  const uint64_t RunIn = Run;
  unsigned Pre = 0, MaxRun = 0;
  uint64_t CMask = 0;
  bool Stopped = false;
  scanWords(W, SuperWords, Base, Run, [&](Addr S, Addr E) {
    Stopped = Stopped || Fn(S, E);
    if (S <= Base) { // the run reaching the super's base is its prefix
      Pre = unsigned(E - Base);
    } else {
      CMask |= uint64_t(1) << classOf(E - S);
      MaxRun = std::max(MaxRun, unsigned(E - S));
    }
    return false; // the digest needs every run of the super
  });
  // A used bit resets the carry, so only a super without one adds all
  // of its bits to it.
  if (Run - RunIn == SuperBits) {
    Sp = Super();
    return Stopped;
  }
  // The carry left at the end is the suffix run, a boundary run: it
  // stays out of Max and ClassMask.
  Sp.Pre = uint16_t(Pre);
  Sp.Suf = uint16_t(Run);
  Sp.Max = uint16_t(MaxRun);
  Sp.ClassMask = CMask;
  Sp.Dirty = false;
  return Stopped;
}

void FreeSpaceIndex::recomputeSuper(const uint64_t *W, Super &Sp) {
  uint64_t Run = 0;
  scanSuperFused(W, Sp, 0, Run, [](Addr, Addr) { return false; });
}

template <typename VisitorT>
bool FreeSpaceIndex::walk(Addr From, Addr Stop, VisitorT &&V) const {
  uint64_t Run = 0; // the free run open at Pos
  Addr Pos = From;  // the walk has covered [From, Pos)
  size_t K = Occ.lowerBound(From / PageBits);
  for (; K != Occ.size() && Occ.base(K) < Stop; ++K) {
    const Addr PBase = Occ.base(K);
    if (PBase > Pos) {
      // Absent pages, and the supers from the previous page's Top on,
      // are free: they extend the open run.
      Run += PBase - Pos;
      Pos = PBase;
      if (V.grew(Pos, Run))
        return true;
    }
    const OccPage *Pg = Occ.page(K);
    if (!Pg) { // a run of full pages closes the open run
      if (Run != 0 && V.closed(Pos - Run, Pos))
        return true;
      Run = 0;
      Pos = Occ.end(K);
      continue;
    }
    PageSums &D = Occ.side(K);
    // The supers from Top on are free; those from Stop's on are not
    // entered.
    const unsigned Top = topSuper(K);
    const unsigned JEnd =
        unsigned(std::min<uint64_t>(Top, ceilDiv(Stop - PBase, SuperBits)));
    uint64_t Off = Pos % SuperBits; // the cursor inside the first super
    for (unsigned J = unsigned((Pos - PBase) / SuperBits); J < JEnd;
         ++J, Off = 0) {
      const Addr Base = PBase + J * SuperBits;
      Super &S = D.Sum[J];
      if (S.FreeCount == SuperBits) { // a free super extends the open run
        Run += SuperBits - Off;
        if (V.grew(Base + SuperBits, Run))
          return true;
      } else if (V.super(Pg->W + J * SuperWords, S, Base, Off, Run)) {
        return true;
      }
    }
    if (JEnd != Top) { // Stop lies below Top: the open run ends at JEnd
      const Addr At = PBase + JEnd * SuperBits;
      return Run != 0 && V.closed(At - Run, At);
    }
    Pos = std::max<Addr>(Pos, PBase + Top * SuperBits);
  }
  // The open run reaches the next entry, which lies past Stop, or
  // through the tail to AddrLimit.
  const Addr End = K == Occ.size() ? AddrLimit : Occ.base(K);
  return Pos - Run < End && V.closed(Pos - Run, End);
}

template <typename DescendT, typename FnT>
struct FreeSpaceIndex::RunVisitor {
  DescendT Descend;
  FnT Fn;

  bool grew(Addr, uint64_t) { return false; }
  bool closed(Addr S, Addr E) { return Fn(S, E); }
  bool super(const uint64_t *W, Super &S, Addr Base,
             [[maybe_unused]] uint64_t Off, uint64_t &Run) {
    assert(Off == 0 && "run walks start at address 0");
    if (Descend(S, Base))
      return S.Dirty ? scanSuperFused(W, S, Base, Run, Fn)
                     : scanWords(W, SuperWords, Base, Run, Fn);
    // Only the run completing at the prefix is reported, from the
    // always-exact digest; the suffix run is carried on.
    const uint64_t L = Run + S.Pre;
    if (L != 0 && Fn(Addr(Base + S.Pre - L), Addr(Base + S.Pre)))
      return true;
    Run = S.Suf;
    return false;
  }
};

template <bool Counted> struct FreeSpaceIndex::FirstFitVisitor {
  uint64_t Size;
  const WindowSchedule *InWord; // null when Size exceeds a word
  uint64_t &Probes;
  Addr Found = InvalidAddr;

  // The moment the open run reaches Size its start is the answer;
  // scanning on to its end would be wasted work.
  bool grew(Addr End, uint64_t Run) {
    if (Run < Size)
      return false;
    Found = Addr(End - Run);
    return true;
  }
  // A run closed by a run of full pages (a suffix run carried off a
  // digest may reach one at full length), or the tail.
  bool closed(Addr S, Addr E) {
    if (E - S >= Size) {
      Found = S;
      return true;
    }
    if constexpr (Counted)
      ++Probes;
    return false;
  }
  bool super(const uint64_t *W, Super &S, Addr Base, uint64_t Off,
             uint64_t &Run) {
    if (Off != 0) [[unlikely]] {
      // The partial first super, from the cursor on (once a query, so
      // kept off the loop's hot path). Run is 0 here.
      if (!S.Dirty && uint64_t(S.Max) < Size) {
        // No interior run fits, so only the prefix run from the cursor
        // or the suffix run can, and the digest gives both. The first
        // is too short (isFree(From, Size) failed), so the cursor or the
        // suffix run's start, whichever is higher, opens the run carried
        // on.
        if constexpr (Counted)
          Probes += uint64_t(Off < S.Pre);
        Run = SuperBits - std::max<uint64_t>(Off, SuperBits - S.Suf);
        return false;
      }
      Found = scanFirstFit<Counted>(W, SuperWords, Base, Off, Run, Size,
                                    InWord, Probes);
      return Found != InvalidAddr;
    }
    if (Run + S.Pre >= Size) { // the carried run completes here
      Found = Addr(Base - Run);
      return true;
    }
    if (uint64_t(S.Max) < Size) {
      // No interior run fits: the prefix run closes rejected, and the
      // suffix run is carried on from the digest.
      if constexpr (Counted)
        Probes += uint64_t(Run + S.Pre != 0);
      Run = S.Suf;
      return false;
    }
    // Max bounds the interior runs (from above while dirty): a clean
    // super promises a fit, and a stale pass either finds one or banks
    // a clean digest whose exact Max skips the super until the next
    // mutation. Two passes beat one fused sweep here: most stale descents
    // find their fit, so only the no-fit minority pays the second,
    // digest-banking pass over the same 64 words.
    Found = scanFirstFit<Counted>(W, SuperWords, Base, 0, Run, Size, InWord,
                                  Probes);
    if (Found == InvalidAddr && S.Dirty)
      recomputeSuper(W, S);
    return Found != InvalidAddr;
  }
};

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

bool FreeSpaceIndex::isFree(Addr Start, uint64_t Size) const {
  assert(Size != 0 && "querying zero words");
  Addr End = Start + Size;
  return End <= AddrLimit && Occ.rangeClear(Start, End);
}

Addr FreeSpaceIndex::firstFit(uint64_t Size) const {
  return firstFitFrom(0, Size);
}

Addr FreeSpaceIndex::firstFitFrom(Addr From, uint64_t Size) const {
  return countedFirstFit(From, Size, Profiler::CtrFitQueries,
                         Profiler::CtrFitProbes);
}

Addr FreeSpaceIndex::telemetryFirstFit(uint64_t Size) const {
  return countedFirstFit(0, Size, Profiler::CtrTelemetryFitQueries,
                         Profiler::CtrTelemetryFitProbes);
}

Addr FreeSpaceIndex::countedFirstFit(Addr From, uint64_t Size,
                                     Profiler::Counter Queries,
                                     Profiler::Counter Probes) const {
  assert(Size != 0 && "zero-size fit query");
  // One branch per query picks the walk: with no profiler installed the
  // scans do no probe arithmetic at all.
  Profiler *P = Profiler::current();
  uint64_t N = 0;
  if (!P)
    return firstFitWalk<false>(From, Size, N);
  P->count(Queries);
  Addr Found = firstFitWalk<true>(From, Size, N);
  P->count(Probes, N);
  return Found;
}

template <bool Counted>
Addr FreeSpaceIndex::firstFitWalk(Addr From, uint64_t Size,
                                  uint64_t &Probes) const {
  // A block containing From may serve the request from From onward.
  if (From != 0 && isFree(From, Size))
    return From;
  // No window longer than a word lies inside one.
  const WindowSchedule Windows(std::min<uint64_t>(Size, WordBits));
  FirstFitVisitor<Counted> V{Size, Size <= WordBits ? &Windows : nullptr,
                             Probes};
  walk(From, AddrLimit, V);
  assert(V.Found != InvalidAddr && "infinite tail should always fit");
  return V.Found;
}

Addr FreeSpaceIndex::bestFit(uint64_t Size) const {
  assert(Size != 0 && "zero-size fit query");
  Profiler::bump(Profiler::CtrFitQueries);
  const unsigned K = classOf(Size);
  uint64_t BestSize = UINT64_MAX;
  Addr Best = InvalidAddr;
  walk(0, AddrLimit,
       RunVisitor{[&](const Super &S, Addr) {
                    // A dirty super is judged by its Max upper bound
                    // alone; a clean one descends only when an interior
                    // run could tighten the incumbent: its class must
                    // reach Size's class but not exceed the incumbent's
                    // (floor-log is monotone). Boundary runs are judged
                    // from the always-exact Pre/Suf digests either way.
                    if (S.Dirty)
                      return uint64_t(S.Max) >= Size;
                    unsigned Hi = BestSize == UINT64_MAX ? NumClasses - 1
                                                         : classOf(BestSize);
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
                  }});
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
  walk(0, AddrLimit,
       RunVisitor{[&](const Super &S, Addr) { return uint64_t(S.Max) >= Size; },
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
                  }});
  Profiler::bump(Profiler::CtrFitProbes, Probes);
  assert(Found != InvalidAddr && "infinite tail should always fit");
  return Found;
}

Addr FreeSpaceIndex::worstFitBelow(uint64_t Size, Addr Limit) const {
  assert(Size != 0 && "zero-size fit query");
  Profiler::bump(Profiler::CtrFitQueries);
  // The answer's clipped span is the widest, L. A block wholly below
  // Limit is no longer than L, and the block holding Limit is the last
  // to start below it, so the lowest block of at least L words is the
  // lowest whose clipped span is L.
  uint64_t L = largestBlockBelow(Limit);
  if (L < Size)
    return InvalidAddr;
  uint64_t Probes = 0;
  return firstFitWalk<false>(0, L, Probes);
}

uint64_t FreeSpaceIndex::largestBlockBelow(Addr Limit) const {
  uint64_t Best = 0;
  walk(0, Limit,
       RunVisitor{[&](const Super &S, Addr Base) {
                    if (uint64_t(S.Max) <= Best)
                      return false;
                    // The interior runs end before the suffix run starts.
                    // When that is at or below Limit none of them is
                    // clipped, so a clean (exact) Max is their best span
                    // without a descent.
                    if (!S.Dirty && Base + SuperBits - S.Suf <= Limit) {
                      Best = S.Max;
                      return false;
                    }
                    return true;
                  },
                  [&](Addr S, Addr E) {
                    if (S >= Limit)
                      return true;
                    Best = std::max<uint64_t>(Best,
                                              std::min<Addr>(E, Limit) - S);
                    return false;
                  }});
  return Best;
}

bool FreeSpaceIndex::checkDigests(std::string *Why) const {
  for (size_t K = 0; K != Occ.size(); ++K) {
    const OccPage *Pg = Occ.page(K);
    if (!Pg)
      continue;
    const PageSums &D = Occ.side(K);
    const unsigned Top = topSuper(K);
    for (unsigned J = 0; J != SupersPerPage; ++J) {
      // The supers from Top on hold zero words: their digest is a free
      // super's.
      Super True;
      if (J < Top) {
        const uint64_t *W = Pg->W + J * SuperWords;
        recomputeSuper(W, True);
        unsigned Used = 0;
        for (unsigned I = 0; I != SuperWords; ++I)
          Used += popcount64(W[I]);
        True.FreeCount = uint16_t(SuperBits - Used);
      }
      const Super &S = D.Sum[J];
      const char *Field = S.FreeCount != True.FreeCount ? "FreeCount"
                          : S.Pre != True.Pre           ? "Pre"
                          : S.Suf != True.Suf           ? "Suf"
                          : S.Max < True.Max            ? "Max (below)"
                          : S.Dirty                     ? nullptr
                          : S.Max != True.Max           ? "Max"
                          : S.ClassMask != True.ClassMask ? "ClassMask"
                                                          : nullptr;
      if (!Field)
        continue;
      if (Why)
        *Why = "free-space digest of the super at " +
               std::to_string(Occ.base(K) + J * SuperBits) + ": " + Field +
               " disagrees with its words";
      return false;
    }
  }
  return true;
}

std::pair<Addr, Addr> FreeSpaceIndex::nextFreeRun(Addr Pos) const {
  Addr S = Occ.findFirstClear(Pos);
  if (S >= AddrLimit)
    return {InvalidAddr, InvalidAddr};
  uint64_t E = Occ.findFirstSet(S);
  return {S, E == Board::NoBit ? AddrLimit : Addr(E)};
}
