//===- heap/PagedBoard.h - Paged bitboard of all addresses ------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One bitboard over the whole address space [0, AddrLimit): bit i of
/// word i/64 is address i (low bit = low address). The board is stored in
/// pages of PageBits addresses under a directory sorted by page number. A
/// page is allocated when a write first touches it; an absent page reads
/// as all zeros (for occupancy, "zero" means free, which is exactly the
/// model's infinite tail).
///
/// A directory entry is either one stored page or a run of full pages
/// with no storage: setting a range that covers absent pages whole (an
/// object of 2^60 - 1 words, say) records them as one run, and clearing
/// part of a run cuts it, storing only the pages the range covers in
/// part.
///
/// The page type is the owner's: it holds the bits as `W[PageWords]`
/// (zero-initialized) plus whatever else the owner keeps per address —
/// Heap its address -> id table. The side type is per-page data kept in
/// the directory entry itself — FreeSpaceIndex its super digests — so a
/// walk that judges pages by it reads one contiguous array instead of
/// touching a separate allocation per page.
///
/// Each entry records Top, one past its page's last nonzero word, exact
/// after every write; the scans stop there, and FreeSpaceIndex's walks
/// treat the supers above it as free without reading them.
///
/// Lookup is O(1) when page P sits at directory position P, which holds
/// for the contiguous prefix every simulation builds, and a binary search
/// otherwise. Range operations visit only the entries they meet, so their
/// cost is O(entries + words read), never O(address span): a board with
/// one object at 0 and one ending at AddrLimit has two entries.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_HEAP_PAGEDBOARD_H
#define PCBOUND_HEAP_PAGEDBOARD_H

#include "heap/HeapTypes.h"
#include "support/BitOps.h"
#include "support/MathUtils.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace pcb {

/// Words per page: 8 of FreeSpaceIndex's 4096-bit supers, so no word scan
/// bounded by a super crosses a page, and a small heap's one page stays
/// 4 KiB of bits.
inline constexpr unsigned PageWords = 512;
inline constexpr uint64_t PageBits = uint64_t(PageWords) * WordBits;

/// Side data for a board that keeps none.
struct NoSide {};

template <typename PageT, typename SideT = NoSide> class PagedBoard {
public:
  /// Sentinel for "no such bit".
  static constexpr uint64_t NoBit = ~uint64_t(0);

  /// Directory entries, in address order.
  size_t size() const { return Dir.size(); }
  /// First address of entry \p K, and one past its last.
  Addr base(size_t K) const { return Dir[K].Num * PageBits; }
  Addr end(size_t K) const { return Dir[K].End * PageBits; }
  /// The page of entry \p K, or null when it is a run of full pages.
  const PageT *page(size_t K) const { return Dir[K].Page.get(); }
  /// The side data of entry \p K (meaningless for a run).
  SideT &side(size_t K) const { return Dir[K].Side; }
  /// Words from top(K) on of entry \p K's page are zero. Scans stop
  /// there, so a sparse or short page costs what its set words span.
  unsigned top(size_t K) const { return Dir[K].Top; }

  /// Position of the entry holding page \p P, or of the first one above
  /// it.
  size_t lowerBound(uint64_t P) const {
    if (P < Dir.size() && Dir[P].Num == P)
      return size_t(P);
    return size_t(std::partition_point(Dir.begin(), Dir.end(),
                                       [P](const Entry &E) {
                                         return E.End <= P;
                                       }) -
                  Dir.begin());
  }

  /// Stored page \p P, or null when it is absent or in a run.
  const PageT *find(uint64_t P) const {
    const Entry *En = holding(P);
    return En ? En->Page.get() : nullptr;
  }

  /// Sets bit \p A, storing its page when absent, and returns the page.
  /// \p A must not lie in a run.
  PageT &setBit(Addr A) {
    size_t K = lowerBound(A / PageBits);
    Entry &En = K == Dir.size() || Dir[K].Num > A / PageBits
                    ? insertPage(A / PageBits)
                    : Dir[K];
    assert(En.Page && "setting a bit in a run of full pages");
    unsigned WI = unsigned(A % PageBits / WordBits);
    En.Page->W[WI] |= uint64_t(1) << (A % WordBits);
    En.Top = std::max(En.Top, WI + 1);
    return *En.Page;
  }

  /// Clears bit \p A, which must lie in a stored page.
  void clearBit(Addr A) {
    size_t K = lowerBound(A / PageBits);
    assert(K != Dir.size() && Dir[K].Num == A / PageBits && Dir[K].Page &&
           "clearing a bit outside the stored pages");
    Entry &En = Dir[K];
    En.Page->W[A % PageBits / WordBits] &= ~(uint64_t(1) << (A % WordBits));
    lowerTop(En);
  }

  /// Word \p WI of the board; absent pages read as zero, runs as ones.
  uint64_t word(uint64_t WI) const {
    const Entry *En = holding(WI / PageWords);
    if (!En)
      return 0;
    return En->Page ? En->Page->W[WI % PageWords] : ~uint64_t(0);
  }

  bool test(Addr A) const { return (word(A / WordBits) >> (A % WordBits)) & 1; }

  /// Calls \p Fn(Page, Lo, Hi) for each entry meeting [S, E), in address
  /// order, with [Lo, Hi) the range's bits relative to the entry's base
  /// and Page null for a run. Stops and returns true when Fn does.
  template <typename FnT> bool forEachEntryIn(Addr S, Addr E, FnT Fn) const {
    for (size_t K = lowerBound(S / PageBits); K != Dir.size() && base(K) < E;
         ++K) {
      Addr B = base(K), End = end(K);
      if (Fn(page(K), S > B ? S - B : 0, std::min(E, End) - B))
        return true;
      if (End >= E) // the common case: the range ends in this entry
        break;
    }
    return false;
  }

  /// True when every bit of [S, E) is zero.
  bool rangeClear(Addr S, Addr E) const {
    return !forEachEntryIn(S, E, [](const PageT *Pg, uint64_t Lo,
                                    uint64_t Hi) {
      return !Pg || !clearIn(Pg->W, Lo, Hi);
    });
  }

  /// Number of set bits in [S, E): the two edge words masked inline, the
  /// whole words between them through the popcountWords kernel.
  uint64_t popcountRange(Addr S, Addr E) const {
    uint64_t N = 0;
    forEachEntryIn(S, E, [&](const PageT *Pg, uint64_t Lo, uint64_t Hi) {
      if (!Pg) {
        N += Hi - Lo;
        return false;
      }
      const uint64_t *W = Pg->W;
      size_t WS = size_t(Lo / WordBits), WE = size_t((Hi - 1) / WordBits);
      uint64_t HiMask = lowMask(unsigned((Hi - 1) % WordBits) + 1);
      uint64_t LoMask = ~lowMask(unsigned(Lo % WordBits));
      if (WS == WE) {
        N += popcount64(W[WS] & LoMask & HiMask);
        return false;
      }
      N += popcount64(W[WS] & LoMask) + popcount64(W[WE] & HiMask);
      if (WE - WS > 1) // a compactor's chunk of two words has no middle
        N += popcountWords(W + WS + 1, WE - WS - 1);
      return false;
    });
    return N;
  }

  /// First set bit at or after \p From, or NoBit.
  uint64_t findFirstSet(Addr From) const {
    for (size_t K = lowerBound(From / PageBits); K != Dir.size(); ++K) {
      Addr B = base(K);
      if (!page(K))
        return std::max(From, B);
      const uint64_t *W = page(K)->W;
      const size_t Top = top(K);
      uint64_t Lo = From > B ? From - B : 0;
      size_t WI = size_t(Lo / WordBits);
      if (WI >= Top)
        continue;
      uint64_t U = W[WI] & ~lowMask(unsigned(Lo % WordBits));
      if (U == 0) {
        WI += 1 + findNonzeroWord(W + WI + 1, Top - WI - 1);
        if (WI == Top)
          continue;
        U = W[WI];
      }
      return B + uint64_t(WI) * WordBits + countTrailingZeros(U);
    }
    return NoBit;
  }

  /// First clear bit at or after \p From; AddrLimit when [From,
  /// AddrLimit) is all set.
  Addr findFirstClear(Addr From) const {
    for (size_t K = lowerBound(From / PageBits);
         K != Dir.size() && base(K) <= From; ++K) {
      if (!page(K)) {
        From = end(K);
        continue;
      }
      Addr B = base(K);
      const uint64_t *W = page(K)->W;
      const size_t Top = top(K);
      size_t WI = size_t((From - B) / WordBits);
      if (WI >= Top)
        return From;
      uint64_t F = ~W[WI] & ~lowMask(unsigned(From % WordBits));
      if (F == 0) {
        WI += 1 + findNotOnesWord(W + WI + 1, Top - WI - 1);
        if (WI == PageWords) {
          From = B + PageBits; // the next page, present or not
          continue;
        }
        F = WI < Top ? ~W[WI] : ~uint64_t(0); // word Top is zero
      }
      return B + uint64_t(WI) * WordBits + countTrailingZeros(F);
    }
    return From;
  }

  /// Last set bit strictly below \p Limit, or NoBit.
  uint64_t findLastSetBefore(Addr Limit) const {
    size_t K = lowerBound(ceilDiv(Limit, PageBits));
    if (K != Dir.size() && base(K) < Limit)
      ++K; // a run holding the limit
    while (K-- != 0) {
      Addr B = base(K);
      if (!page(K))
        return std::min(Limit, end(K)) - 1;
      const uint64_t *W = page(K)->W;
      uint64_t Hi = std::min<Addr>(Limit - B, uint64_t(top(K)) * WordBits);
      if (Hi == 0)
        continue;
      size_t WI = size_t((Hi - 1) / WordBits);
      uint64_t U = W[WI] & lowMask(unsigned((Hi - 1) % WordBits) + 1);
      while (U == 0 && WI != 0)
        U = W[--WI];
      if (U != 0)
        return B + uint64_t(WI) * WordBits + topBitIndex(U);
    }
    return NoBit;
  }

  /// Copies bits [Start, Start + 64 * Count) into \p Out as packed words
  /// (Out[i] bit j = bit Start + 64 * i + j). Arbitrary Start.
  void extract(Addr Start, size_t Count, uint64_t *Out) const {
    // Copy the words under the range page by page, then shift them down.
    const uint64_t Base = Start / WordBits;
    for (size_t I = 0; I != Count;) {
      uint64_t WI = Base + I;
      size_t N = std::min<size_t>(Count - I, PageWords - WI % PageWords);
      const Entry *En = holding(WI / PageWords);
      if (En && En->Page)
        std::copy_n(En->Page->W + WI % PageWords, N, Out + I);
      else
        std::fill_n(Out + I, N, En ? ~uint64_t(0) : 0);
      I += N;
    }
    if (unsigned Shift = unsigned(Start % WordBits)) {
      uint64_t Next = word(Base + Count);
      for (size_t I = 0; I != Count; ++I)
        Out[I] = (Out[I] >> Shift) |
                 ((I + 1 != Count ? Out[I + 1] : Next) << (WordBits - Shift));
    }
  }

  /// Sets (\p Set) or clears [S, E), calling \p Note(Page, Side, Lo, Hi,
  /// To) after the bits [Lo, Hi) of a stored page are set (To) or
  /// cleared. Whole absent pages that a set covers become one run; a
  /// clear that cuts a run stores the pages it covers in part (set full,
  /// then cleared, each step noted). Returns false when some bit of the
  /// range already had the new value.
  template <typename NoteT> bool assign(Addr S, Addr E, bool Set, NoteT Note) {
    bool Flipped = true;
    auto Write = [&](Entry &En, uint64_t P) {
      Addr B = P * PageBits;
      uint64_t Lo = S > B ? S - B : 0, Hi = std::min<Addr>(E - B, PageBits);
      Flipped &= assignIn(En.Page->W, Lo, Hi, Set);
      if (Set)
        En.Top = std::max(En.Top, unsigned((Hi - 1) / WordBits) + 1);
      else
        lowerTop(En);
      Note(*En.Page, En.Side, Lo, Hi, Set);
    };
    auto Partial = [&](uint64_t P) {
      return P * PageBits < S || (P + 1) * PageBits > E;
    };
    const uint64_t PEnd = (E - 1) / PageBits + 1;
    for (uint64_t P = S / PageBits; P != PEnd;) {
      size_t K = lowerBound(P);
      bool In = K != Dir.size() && Dir[K].Num <= P;
      if (In && Dir[K].Page) {
        Write(Dir[K], P);
        ++P;
        continue;
      }
      uint64_t Q = std::min(In ? Dir[K].End : K != Dir.size() ? Dir[K].Num
                                                              : PEnd,
                            PEnd);
      if (In == Set) { // setting a run or clearing absent pages
        Flipped = false;
        P = Q;
        continue;
      }
      if (In) {
        cutRun(K, P, Q);
        for (uint64_t X : {P, Q - 1})
          if (Partial(X) && !find(X)) {
            Entry &En = insertPage(X);
            assignIn(En.Page->W, 0, PageBits, true);
            En.Top = PageWords;
            Note(*En.Page, En.Side, 0, PageBits, true);
            Write(En, X);
          }
      } else {
        uint64_t A = P, Z = Q;
        if (Partial(A)) {
          Write(insertPage(A), A);
          ++A;
        }
        if (Z > A && Partial(Z - 1)) {
          --Z;
          Write(insertPage(Z), Z);
        }
        if (A < Z)
          Dir.insert(Dir.begin() + lowerBound(A),
                     Entry{A, Z, nullptr, SideT()});
      }
      P = Q;
    }
    return Flipped;
  }

private:
  // Word-level helpers over one page's words, on page-local bits [Lo, Hi).

  /// Calls \p Fn(WI, Mask) for each word of [Lo, Hi) with the mask of the
  /// range's bits in it.
  template <typename FnT>
  static void forEachMasked(uint64_t Lo, uint64_t Hi, FnT Fn) {
    size_t WS = size_t(Lo / WordBits), WE = size_t((Hi - 1) / WordBits);
    uint64_t HiMask = lowMask(unsigned((Hi - 1) % WordBits) + 1);
    uint64_t LoMask = ~lowMask(unsigned(Lo % WordBits));
    if (WS == WE)
      return Fn(WS, LoMask & HiMask);
    Fn(WS, LoMask);
    for (size_t I = WS + 1; I != WE; ++I)
      Fn(I, ~uint64_t(0));
    Fn(WE, HiMask);
  }

  /// True when bits [Lo, Hi) of \p W are all zero.
  static bool clearIn(const uint64_t *W, uint64_t Lo, uint64_t Hi) {
    size_t WS = size_t(Lo / WordBits), WE = size_t((Hi - 1) / WordBits);
    uint64_t HiMask = lowMask(unsigned((Hi - 1) % WordBits) + 1);
    uint64_t LoMask = ~lowMask(unsigned(Lo % WordBits));
    if (WS == WE)
      return (W[WS] & LoMask & HiMask) == 0;
    return (W[WS] & LoMask) == 0 && (W[WE] & HiMask) == 0 &&
           findNonzeroWord(W + WS + 1, WE - WS - 1) == WE - WS - 1;
  }

  /// Sets (\p Set) or clears bits [Lo, Hi) of \p W. Returns false when
  /// any of them already had the new value.
  static bool assignIn(uint64_t *W, uint64_t Lo, uint64_t Hi, bool Set) {
    bool Flipped = true;
    forEachMasked(Lo, Hi, [&](size_t WI, uint64_t M) {
      Flipped &= (W[WI] & M) == (Set ? 0 : M);
      W[WI] = Set ? W[WI] | M : W[WI] & ~M;
    });
    return Flipped;
  }

  struct Entry {
    uint64_t Num; ///< first page
    uint64_t End; ///< one past the last page
    std::unique_ptr<PageT> Page; ///< null: End - Num full pages
    mutable SideT Side{};
    unsigned Top = 0; ///< words from Top on are zero
  };

  /// Lowers \p En's Top past the zero words a clear left below it.
  static void lowerTop(Entry &En) {
    while (En.Top != 0 && En.Page->W[En.Top - 1] == 0)
      --En.Top;
  }

  /// The entry holding page \p P, or null when it is absent.
  const Entry *holding(uint64_t P) const {
    if (P < Dir.size() && Dir[P].Num == P)
      return &Dir[P];
    size_t K = lowerBound(P);
    return K != Dir.size() && Dir[K].Num <= P ? &Dir[K] : nullptr;
  }

  /// Stores a fresh page \p P, which must be absent.
  Entry &insertPage(uint64_t P) {
    return *Dir.insert(Dir.begin() + lowerBound(P),
                       Entry{P, P + 1, std::unique_ptr<PageT>(new PageT)});
  }

  /// Removes pages [P, Q) from the run at position \p K.
  void cutRun(size_t K, uint64_t P, uint64_t Q) {
    uint64_t Num = Dir[K].Num, End = Dir[K].End;
    if (Q < End)
      Dir.insert(Dir.begin() + K + 1, Entry{Q, End, nullptr, SideT()});
    if (Num < P)
      Dir[K].End = P;
    else
      Dir.erase(Dir.begin() + K);
  }

  std::vector<Entry> Dir;
};

} // namespace pcb

#endif // PCBOUND_HEAP_PAGEDBOARD_H
