//===- heap/FreeSpaceIndex.h - Free-space queries over the heap -*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Placement queries over the free space — first fit, best fit, next fit,
/// aligned first fit, worst fit below a limit, plus the aggregate queries
/// the telemetry samples — computed directly from a packed occupancy
/// bitboard rather than a second interval structure kept in sync with the
/// heap.
///
/// The index owns one bit per word (1 = used); a free block is a maximal
/// zero run. Mutations (reserve/release) are masked word stores, and
/// every query is a summary-guided scan: the bitmap is grouped into
/// 4096-bit supers, each with a digest (free-bit count, prefix and suffix
/// zero-run lengths, and the longest and the size-class mask of its
/// interior runs, lazily recomputed) that lets scans skip whole supers
/// and assemble runs spanning supers from prefix/suffix arithmetic alone.
/// Free blocks are never stored; they are *views* of the occupancy words,
/// so the index cannot drift from the heap. blocks() lists them on
/// request, for the heap-parity oracle and the tests.
///
/// A super is descended only when an interior run could answer: the
/// boundary runs are read off the exact prefix and suffix lengths, so the
/// super holding the high-water mark, whose one long run is its suffix
/// (the start of the infinite tail), is judged by its digest alone.
///
/// A release must learn the merged free run it joins inside each super it
/// touches. Pre and Suf still hold their pre-release values then, so a
/// neighbour run reaching the super's edge is read off them ([Hi, WEnd)
/// was all free iff Suf == WEnd - Hi, [B, Lo) iff Pre == Lo - B) once the
/// word next to the freed range tests clear; only a neighbour run ending
/// inside the super is found by a word scan.
///
/// What a word step costs. First fit reads a word, tests it for all free,
/// and takes one trailing-zero count to see whether the run it carries in
/// completes. A partial word then costs the ceil(log2 Size) shift-ANDs
/// of the query's window schedule, fixed per query with no exit on the
/// data (a Size above 64 skips the test), and one leading-zero count for
/// the free suffix it carries on. A full word closes the open run and
/// starts none, so the scans reset the carry and jump over the full words
/// after it: the next one is tested inline, and only a stretch of two or
/// more calls the findNotOnesWord kernel (under PF most of a descent is
/// such a stretch). With a profiler installed first fit also counts the
/// runs it rejects, one popcount per partial word; without one it does no
/// probe arithmetic. A super whose digest rules out an interior fit costs
/// a few digest reads and no word at all; so does the partial first
/// super of a firstFitFrom when its digest is clean. scanWords, and so
/// the fused sweep, pays two trailing-zero counts per used run of a word,
/// not per bit, and counts no bits: every mutation keeps FreeCount exact.
///
/// The board is a PagedBoard over the whole 2^60-word address space: a
/// page (eight supers) is allocated when a reservation first touches it,
/// an absent page reads as all free, and each page carries its supers'
/// digests. Every query is a visitor of one walk over the board's
/// directory, which owns the open run: absent pages, free supers and the
/// supers above a page's Top extend it, a run of full pages closes it,
/// and the space after the last page is the tail run to AddrLimit. The
/// walk hands the query each super with a used bit, so it costs
/// O(present pages), whatever the address span. Two scanners read a
/// super's words: scanFirstFit, which exits as soon as the open run
/// reaches the request, and scanWords, the one enumerator of complete
/// runs. The run queries fuse it with a rebuild of a dirty super's
/// digest (scanSuperFused); blocks(), which reads every super with a
/// used bit, calls it alone, so listing the blocks rebuilds no digest
/// and changes no later query's work.
///
/// Semantics are those of testsupport/ReferenceFreeSpaceIndex, the
/// specification (one sorted block map, each query its definition walked
/// in address order), cross-checked continuously by the equivalence
/// property test and the differential fuzzer's heap-parity oracle. All
/// tie-breaks resolve to the lowest address, and largestBlockBelow stays
/// exact for the telemetry layer.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_HEAP_FREESPACEINDEX_H
#define PCBOUND_HEAP_FREESPACEINDEX_H

#include "heap/HeapTypes.h"
#include "heap/PagedBoard.h"
#include "obs/Profiler.h"
#include "support/MathUtils.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pcb {

/// Free-space placement queries as views of a packed occupancy bitboard.
class FreeSpaceIndex {
public:
  /// Initializes with the whole address space [0, AddrLimit) free.
  FreeSpaceIndex();

  FreeSpaceIndex(const FreeSpaceIndex &) = delete;
  FreeSpaceIndex &operator=(const FreeSpaceIndex &) = delete;

  /// Marks [Start, Start + Size) free, coalescing neighbours. The range
  /// must currently be absent from the index (i.e. used).
  void release(Addr Start, uint64_t Size);

  /// Marks [Start, Start + Size) used. The range must be fully free.
  void reserve(Addr Start, uint64_t Size);

  /// True if [Start, Start + Size) is entirely free.
  bool isFree(Addr Start, uint64_t Size) const;

  /// Lowest address where \p Size words fit.
  Addr firstFit(uint64_t Size) const;

  /// Lowest address >= \p From where \p Size words fit (a block
  /// containing \p From counts from \p From onward).
  Addr firstFitFrom(Addr From, uint64_t Size) const;

  /// firstFit(\p Size) for the telemetry layer: the same answer, its
  /// query and probes counted under telemetry.fit_queries/fit_probes, so
  /// fit.queries/fit.probes count placement searches alone.
  Addr telemetryFirstFit(uint64_t Size) const;

  /// Address of the smallest free block that fits \p Size (ties broken by
  /// lowest address).
  Addr bestFit(uint64_t Size) const;

  /// Lowest \p Align-aligned address where \p Size words fit.
  /// \p Align must be a power of two.
  Addr firstFitAligned(uint64_t Size, uint64_t Align) const;

  /// Start of the free block with the largest span clipped to [0, Limit)
  /// among blocks starting below \p Limit whose clipped span is at least
  /// \p Size (ties broken by lowest address), or InvalidAddr when no such
  /// block exists. This is classic worst fit over the committed heap,
  /// answered as largestBlockBelow(Limit) followed by a first fit of that
  /// length (the lowest block that long is the answer).
  Addr worstFitBelow(uint64_t Size, Addr Limit) const;

  /// Number of free blocks (including the infinite tail). Maintained
  /// incrementally: a mutation learns the block-count delta from the two
  /// occupancy bits flanking its range.
  size_t numBlocks() const { return TotalBlocks; }

  /// Free words within [Start, End). Inline: the compactors probe this
  /// once per candidate chunk.
  uint64_t freeWordsIn(Addr Start, Addr End) const {
    assert(Start < End && "empty query range");
    return (End - Start) - Occ.popcountRange(Start, End);
  }

  /// Largest free run clipped to [0, Limit): the maximum over blocks
  /// starting below \p Limit of min(end, Limit) - start. O(supers):
  /// supers whose interior runs cannot beat the incumbent are skipped,
  /// and a clean super whose interior runs all end at or below Limit
  /// lends its Max without a descent.
  uint64_t largestBlockBelow(Addr Limit) const;

  /// Recomputes the digest of every super of every stored page into a
  /// local one and compares: FreeCount, Pre and Suf must be exact, a
  /// clean Max and ClassMask exact, a dirty Max at least the true one.
  /// Writes nothing back, so checking changes no later query's work. On
  /// a mismatch returns false with the super and field in \p Why.
  bool checkDigests(std::string *Why = nullptr) const;

  /// Word \p I of the occupancy board (bit j = address 64 * I + j,
  /// 1 = used); words of absent pages are zero. This is the raw substrate
  /// Heap's mask queries expose.
  uint64_t occupancyWord(uint64_t I) const { return Occ.word(I); }

  /// Copies the occupancy of [Start, Start + 64 * Count) into \p Out as
  /// packed words; arbitrary Start.
  void occupancyWords(Addr Start, size_t Count, uint64_t *Out) const {
    Occ.extract(Start, Count, Out);
  }

  /// Every free block (including the infinite tail) as (start, end), in
  /// address order, into \p Out (cleared first). One walk that reads each
  /// super with a used bit through scanWords; it rebuilds no digest, so
  /// every later query meets the digests it would have met without it.
  void blocks(std::vector<std::pair<Addr, Addr>> &Out) const;

  /// The lowest free address, uncounted: one board search, no fit query.
  Addr lowestFree() const { return Occ.findFirstClear(0); }

private:
  /// Digest granularity: 64 words = 4096 bits per super.
  static constexpr unsigned SuperWords = 64;
  static constexpr unsigned SuperBits = SuperWords * WordBits;
  static constexpr unsigned SupersPerPage = PageWords / SuperWords;
  static constexpr unsigned NumClasses = 61;

  /// Per-super digest. The prefix run starts at the window's base, the
  /// suffix run ends at its end; every other free run is *interior*. A
  /// fully free super has no interior run. FreeCount, Pre and Suf are
  /// maintained exactly by every mutation: O(1) for reserve; for
  /// release, O(1) when a neighbour run reaches the super's edge or ends
  /// in the word next to the freed range, else a word scan bounded by the
  /// super that stops at the run's end. So run assembly across skipped
  /// supers never recomputes anything. Max covers the interior runs only
  /// and degrades to a sound *upper bound* while Dirty, so it still
  /// filters descents — a stale pass costs one recompute, a stale skip
  /// cannot happen. A reserve that cuts the prefix (suffix) run folds the
  /// far remainder, now interior, into Max, and one that cuts an interior
  /// run only shrinks runs; a release folds its merged run in unless it
  /// reaches an edge. The first reservation in a free super leaves no
  /// interior run and a clean digest. ClassMask is only valid when clean;
  /// the query that needs it (bestFit) recomputes on the way. The
  /// defaults are the fully free super.
  struct Super {
    uint16_t Pre = SuperBits;  ///< leading free bits (always exact)
    uint16_t Suf = SuperBits;  ///< trailing free bits (always exact)
    uint16_t Max = 0;          ///< longest interior run (bound while Dirty)
    uint16_t FreeCount = SuperBits; ///< free bits in the window (exact)
    bool Dirty = false;
    uint64_t ClassMask = 0;        ///< classes of the interior runs
  };

  /// One page of the board: its occupancy words (1 = used).
  struct OccPage {
    uint64_t W[PageWords] = {};
  };
  /// The digests of a page's supers, which queries rebuild lazily. The
  /// board keeps them in the page's directory entry, so the walk, whose
  /// visitors judge most supers by their digest alone, reads one
  /// contiguous array.
  struct PageSums {
    Super Sum[SupersPerPage];
  };
  using Board = PagedBoard<OccPage, PageSums>;

  /// Size class of a block: floor(log2(size)). Class K holds sizes in
  /// [2^K, 2^(K+1)). Inline: the run close of the fused sweep and the
  /// descent test of bestFit call it per run and per super.
  static unsigned classOf(uint64_t Size) {
    assert(Size != 0 && "zero-size block");
    unsigned K = log2Floor(Size);
    return K < NumClasses ? K : NumClasses - 1;
  }

  /// The walk from the entry holding \p From up to \p Stop, threading
  /// the open run. It calls V.grew(End, Run) when absent pages or a free
  /// super extend the open run to Run words ending at End; V.closed(S, E)
  /// for the run a run of full pages closes, and for the run open at the
  /// stop, which ends at the first super or entry at or past Stop (a
  /// caller passing a Stop clips it) or at AddrLimit; and V.super(W, S,
  /// Base, Off, Run) for each super with a used bit (words, digest,
  /// address, the cursor's offset in From's super, else 0, and the carry
  /// to advance past it). A call returning true stops the walk, which
  /// then returns true.
  template <typename VisitorT>
  bool walk(Addr From, Addr Stop, VisitorT &&V) const;

  /// The run queries' visitor: reports complete runs to Fn(S, E), true
  /// to stop. A super that \p Descend(Sup, Base) declines reports only
  /// the run completing at its prefix, read off the exact digest, and
  /// carries its suffix run on, so Descend must accept every super whose
  /// interior runs could interest Fn (or account for them itself).
  template <typename DescendT, typename FnT> struct RunVisitor;

  /// First fit's visitor: exits as soon as the open run reaches the
  /// request, and counts the runs it rejects when \p Counted.
  template <bool Counted> struct FirstFitVisitor;

  /// Digest maintenance for a mutation of page-local bits [Lo, Hi) of
  /// \p Pg with digests \p D, which the board reports through
  /// NoteMutation: noteReserve before any query sees the supers again,
  /// noteRelease after the bits have been cleared (it finds the merged
  /// run's extent from the old Pre/Suf where they reach it, else by a
  /// word scan).
  static void noteReserve(PageSums &D, uint64_t Lo, uint64_t Hi);
  static void noteRelease(const OccPage &Pg, PageSums &D, uint64_t Lo,
                          uint64_t Hi);
  static constexpr auto NoteMutation = [](const OccPage &Pg, PageSums &D,
                                          uint64_t Lo, uint64_t Hi, bool Set) {
    Set ? noteReserve(D, Lo, Hi) : noteRelease(Pg, D, Lo, Hi);
  };

  /// scanWords over the super of words \p W at address \p Base, its
  /// complete runs reported to \p Fn (threading \p Run as the carry) and
  /// folded into a rebuilt digest \p Sp (all but FreeCount, never stale):
  /// the run reaching the base is the prefix, every other one interior,
  /// the carry left at the end the suffix, and a super adding all its
  /// bits to the carry is free. So a descent into a dirty super costs one
  /// sweep, which always runs to the super's end; once Fn stops, the
  /// remaining runs feed only the digest. Returns true when Fn stopped.
  template <typename FnT>
  static bool scanSuperFused(const uint64_t *W, Super &Sp, Addr Base,
                             uint64_t &Run, FnT &&Fn);

  /// Rebuilds \p Sp from its words \p W (the fused sweep with no
  /// callback).
  static void recomputeSuper(const uint64_t *W, Super &Sp);

  /// firstFitFrom, its query counted under \p Queries and the runs it
  /// rejected under \p Probes when a profiler is installed.
  Addr countedFirstFit(Addr From, uint64_t Size, Profiler::Counter Queries,
                       Profiler::Counter Probes) const;

  /// First fit from \p From: the walk with a FirstFitVisitor. A
  /// \p Counted walk adds the runs it rejects to \p Probes; the other
  /// does no probe arithmetic.
  template <bool Counted>
  Addr firstFitWalk(Addr From, uint64_t Size, uint64_t &Probes) const;

  /// The supers of entry \p K from this one on are all free (the
  /// board's top word rounded up), so the walk treats them like absent
  /// pages.
  unsigned topSuper(size_t K) const {
    return unsigned(ceilDiv(Occ.top(K), SuperWords));
  }

  /// True when address \p A is free.
  bool bitFree(Addr A) const { return !Occ.test(A); }

  Board Occ;
  size_t TotalBlocks = 1;
};

} // namespace pcb

#endif // PCBOUND_HEAP_FREESPACEINDEX_H
