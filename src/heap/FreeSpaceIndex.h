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
/// The index owns one bit per committed word (1 = used); a free block is
/// a maximal zero run. Mutations (reserve/release) are now plain masked
/// word stores, and every query is a summary-guided scan: the bitmap is
/// grouped into 4096-bit supers, each with a lazily recomputed digest
/// (free-bit count, prefix/suffix/max zero-run lengths, run-start count,
/// and a size-class mask of its interior runs) that lets scans skip whole
/// supers and assemble runs spanning supers from prefix/suffix arithmetic
/// alone. Free blocks are never materialized; they are *views* of the
/// occupancy words, so the index cannot drift from the heap.
///
/// Inside a super, the word scans jump over stretches of full (all-ones)
/// occupancy words with the findNotOnesWord kernel: a full word closes
/// the open run and starts none, so the first one resets the carry to 0
/// and the rest change nothing. Under PF the space below a fit is almost
/// all used, so most of a descent is such a stretch.
///
/// The bitmap covers only the committed prefix of the 2^60-word address
/// space; everything above is implicitly free (the model's infinite
/// tail), except for objects explicitly placed beyond the maximum dense
/// capacity, which live in a tiny sorted interval map (a cold path that
/// exists for address-space-boundary semantics, e.g. a placement ending
/// exactly at AddrLimit).
///
/// Semantics are those of testsupport/ReferenceFreeSpaceIndex, the
/// specification (one sorted block map, each query its definition walked
/// in address order), cross-checked continuously by the equivalence
/// property test and the differential fuzzer's heap-parity oracle. All
/// tie-breaks resolve to the lowest address, and numBlocksBelow /
/// largestBlockBelow stay exact for the telemetry layer.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_HEAP_FREESPACEINDEX_H
#define PCBOUND_HEAP_FREESPACEINDEX_H

#include "heap/HeapTypes.h"
#include "heap/PackedBitmap.h"

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
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

  /// Address of the smallest free block that fits \p Size (ties broken by
  /// lowest address).
  Addr bestFit(uint64_t Size) const;

  /// Lowest \p Align-aligned address where \p Size words fit.
  /// \p Align must be a power of two.
  Addr firstFitAligned(uint64_t Size, uint64_t Align) const;

  /// Start of the free block with the largest span clipped to [0, Limit)
  /// among blocks starting below \p Limit whose clipped span is at least
  /// \p Size (ties broken by lowest address), or InvalidAddr when no such
  /// block exists. This is classic worst fit over the committed heap.
  Addr worstFitBelow(uint64_t Size, Addr Limit) const;

  /// Number of free blocks (including the infinite tail). Maintained
  /// incrementally: a mutation learns the block-count delta from the two
  /// occupancy bits flanking its range.
  size_t numBlocks() const { return TotalBlocks; }

  /// Free words below \p Limit.
  uint64_t freeWordsBelow(Addr Limit) const;

  /// Free words within [Start, End). Inline: the compactors probe this
  /// once per candidate chunk, so the dense popcount path must not pay a
  /// call or touch the (almost always empty) interval map.
  uint64_t freeWordsIn(Addr Start, Addr End) const {
    assert(Start < End && "empty query range");
    uint64_t UsedDense =
        Start < capBits()
            ? Occ.popcountRange(Start, std::min<Addr>(End, capBits()))
            : 0;
    uint64_t UsedHigh = HighUsed.empty() ? 0 : highUsedWordsIn(Start, End);
    return (End - Start) - UsedDense - UsedHigh;
  }

  /// Number of free blocks that begin below \p Limit. O(supers): whole
  /// supers answer from their run-start digests, only the super
  /// straddling \p Limit is scanned at word level.
  size_t numBlocksBelow(Addr Limit) const;

  /// Largest free run clipped to [0, Limit): the maximum over blocks
  /// starting below \p Limit of min(end, Limit) - start. O(supers):
  /// supers that cannot beat the incumbent are skipped via their max-run
  /// digest.
  uint64_t largestBlockBelow(Addr Limit) const;

  /// Word \p I of the occupancy board (bit j = address 64 * I + j,
  /// 1 = used); words beyond the committed prefix are zero. This is the
  /// raw substrate Heap's mask queries expose.
  uint64_t occupancyWord(uint64_t I) const {
    return I < Occ.sizeWords() ? Occ.word(size_t(I)) : highOccupancyWord(I);
  }

  /// Copies the occupancy of [Start, Start + 64 * Count) into \p Out as
  /// packed words; arbitrary Start.
  void occupancyWords(Addr Start, size_t Count, uint64_t *Out) const;

  /// Forward iteration over (start, end) free blocks in address order.
  /// Blocks are materialized lazily by scanning the board.
  class const_iterator {
  public:
    using value_type = std::pair<Addr, Addr>;
    using reference = value_type;
    using pointer = void;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    value_type operator*() const { return {S, E}; }
    const_iterator &operator++() {
      if (E >= AddrLimit) {
        S = InvalidAddr;
        E = InvalidAddr;
      } else {
        auto [NS, NE] = Owner->nextFreeRun(E);
        S = NS;
        E = NE;
      }
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator Old = *this;
      ++*this;
      return Old;
    }
    bool operator==(const const_iterator &O) const { return S == O.S; }
    bool operator!=(const const_iterator &O) const { return !(*this == O); }

  private:
    friend class FreeSpaceIndex;
    const_iterator(const FreeSpaceIndex *Owner, Addr S, Addr E)
        : Owner(Owner), S(S), E(E) {}

    const FreeSpaceIndex *Owner;
    Addr S, E;
  };

  const_iterator begin() const {
    auto [S, E] = nextFreeRun(0);
    return const_iterator(this, S, E);
  }
  const_iterator end() const {
    return const_iterator(this, InvalidAddr, InvalidAddr);
  }

private:
  /// Digest granularity: 64 words = 4096 bits per super.
  static constexpr unsigned SuperWords = 64;
  static constexpr unsigned SuperBits = SuperWords * WordBits;
  /// Dense-bitmap ceiling: 2^26 bits (an 8 MiB board). Reservations
  /// ending beyond it go to the sorted interval map instead.
  static constexpr uint64_t MaxDenseBits = uint64_t(1) << 26;
  static constexpr unsigned NumClasses = 61;

  /// Per-super digest. FreeCount, Pre and Suf are maintained exactly by
  /// every mutation (O(1) for reserve, a window-bounded bit scan for
  /// release), so run assembly across skipped supers never recomputes
  /// anything. Max degrades to a sound *upper bound* while Dirty (a
  /// reserve can only shrink runs; a release folds its merged run in), so
  /// it still filters descents — a stale pass costs one recompute, a
  /// stale skip cannot happen. Trans and ClassMask are only valid when
  /// clean; the queries that need them (numBlocksBelow, bestFit)
  /// recompute on the way. A fully free super has FreeCount == SuperBits
  /// (and canonical Pre = Suf = Max = SuperBits, Trans = 0,
  /// ClassMask = 0, Dirty = false).
  struct Super {
    uint16_t Pre = 0;      ///< leading free bits (always exact)
    uint16_t Suf = 0;      ///< trailing free bits (always exact)
    uint16_t Max = 0;      ///< longest free run (upper bound while Dirty)
    uint16_t Trans = 0;    ///< free runs starting at an interior position
    uint16_t FreeCount = 0;///< free bits in the window (always exact)
    bool Dirty = false;
    uint64_t ClassMask = 0;///< classes of runs interior to the window
  };

  /// Size class of a block: floor(log2(size)). Class K holds sizes in
  /// [2^K, 2^(K+1)).
  static unsigned classOf(uint64_t Size);

  /// Where a run scan ended when no callback stopped it: the open run of
  /// \p Carry free bits ending at \p Pos (a super boundary), or the tail
  /// walk completed (\p ReachedTail).
  struct ScanEnd {
    bool Stopped;
    uint64_t Carry;
    Addr Pos;
    bool ReachedTail;
  };

  /// Walks the complete maximal free runs with start >= \p From in
  /// address order, including the final tail run ending at AddrLimit.
  /// \p Fn(S, E) returns true to stop. \p Descend(I, Sup, CarryIn)
  /// decides whether super \p I is scanned at word level; when it
  /// declines, only the boundary run completing at the super's prefix is
  /// reported (from the always-exact Pre/Suf digests), so Descend must
  /// return true whenever an interior run of the super could interest Fn
  /// (it may recompute the digest itself to decide). Supers whose base
  /// is >= \p StopBase are not entered (the dense walk ends there).
  template <typename DescendT, typename FnT>
  ScanEnd forEachRun(Addr From, Addr StopBase, DescendT Descend,
                     FnT Fn) const;

  /// Committed bits of the dense board (== Occ.sizeBits()).
  uint64_t capBits() const { return Occ.sizeBits(); }

  /// Grows the dense board (in whole supers) to cover [0, NeedBits).
  /// Split so the almost-always-true capacity check inlines into the
  /// mutation hot path.
  void ensureDense(uint64_t NeedBits) {
    if (NeedBits > capBits())
      growDense(NeedBits);
  }
  void growDense(uint64_t NeedBits);

  /// Digest maintenance for a mutation of dense range [S, E):
  /// noteReserve before any query sees the super again, noteRelease after
  /// the bits have been cleared (it scans the merged run's extent).
  void noteReserve(uint64_t S, uint64_t E);
  void noteRelease(uint64_t S, uint64_t E);

  /// One fused pass over super \p I's words: reports complete free runs
  /// to \p Fn (threading \p Run as the open-run carry, exactly like the
  /// plain word scan) while rebuilding the digest as a side effect, so a
  /// descent into a dirty super costs a single sweep instead of
  /// recompute-then-rescan. The sweep always runs to the super's end
  /// (the digest needs it); once Fn stops, remaining runs feed only the
  /// digest. Returns true when Fn stopped.
  template <typename FnT>
  bool scanSuperFused(size_t I, uint64_t &Run, FnT &&Fn) const;

  /// First-fit sweep of dirty super \p I: returns the lowest block start
  /// where \p Size bits fit (exiting immediately — the digest stays
  /// dirty, nothing was wasted), or InvalidAddr after sweeping the whole
  /// window, in which case the digest is banked clean as a side effect
  /// (so the super's now-exact Max skips it until the next mutation).
  Addr firstFitInSuper(size_t I, uint64_t &Run, uint64_t Size,
                       uint64_t &Probes) const;

  /// Recomputes Sum[I] from the occupancy words if dirty.
  void ensureClean(size_t I) const;
  void recomputeSuper(size_t I) const;

  /// True when address \p A (anywhere in [0, AddrLimit)) is free.
  bool bitFree(Addr A) const {
    if (A < capBits())
      return !Occ.test(A);
    return HighUsed.empty() || highRangeFree(A, A + 1);
  }

  /// Used words of the interval map intersecting [S, E).
  uint64_t highUsedWordsIn(Addr S, Addr E) const;
  /// True when [S, E) misses every interval of the map.
  bool highRangeFree(Addr S, Addr E) const;
  /// Occupancy word \p I synthesized from the interval map.
  uint64_t highOccupancyWord(uint64_t I) const;

  /// The maximal free run with the lowest start >= \p Pos (iterator
  /// plumbing; \p Pos must not be interior to a free run).
  std::pair<Addr, Addr> nextFreeRun(Addr Pos) const;

  /// Reserve/release of the interval-map region.
  void highReserve(Addr S, Addr E);
  void highRelease(Addr S, Addr E);

  PackedBitmap Occ;                ///< 1 = used, dense prefix only
  mutable std::vector<Super> Sum;  ///< one digest per super, lazy
  /// Used intervals at or above MaxDenseBits, keyed by start; disjoint
  /// and coalesced (no two touching intervals).
  std::map<Addr, Addr> HighUsed;
  size_t TotalBlocks = 1;
};

} // namespace pcb

#endif // PCBOUND_HEAP_FREESPACEINDEX_H
