//===- tests/index_equiv_test.cpp - Live index vs reference oracle -------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// Property test: the bitboard FreeSpaceIndex and ReferenceFreeSpaceIndex,
// the specification of every query, are driven through identical random
// reserve/release streams, and every placement and aggregate query is
// compared after every operation. Any semantic drift in the rewrite —
// a tie-break, a boundary, a stale summary — shows up as a mismatch with
// the op number and seed in the failure message.
//
//===----------------------------------------------------------------------===//

#include "heap/FreeSpaceIndex.h"
#include "support/BitOps.h"
#include "support/Random.h"
#include "testsupport/ReferenceFreeSpaceIndex.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

namespace {

using namespace pcb;

/// Compares every query the managers use, plus the aggregates the
/// telemetry samples, on both indexes.
void expectQueriesMatch(const FreeSpaceIndex &Fast,
                        const ReferenceFreeSpaceIndex &Ref, uint64_t Size,
                        Addr From, uint64_t Align, Addr Limit, int Op) {
  SCOPED_TRACE(::testing::Message()
               << "op " << Op << " size " << Size << " from " << From
               << " align " << Align << " limit " << Limit);
  EXPECT_EQ(Fast.firstFit(Size), Ref.firstFit(Size));
  EXPECT_EQ(Fast.firstFitFrom(From, Size), Ref.firstFitFrom(From, Size));
  EXPECT_EQ(Fast.bestFit(Size), Ref.bestFit(Size));
  EXPECT_EQ(Fast.firstFitAligned(Size, Align),
            Ref.firstFitAligned(Size, Align));
  EXPECT_EQ(Fast.firstFit(Size) + Size <= Limit,
            Ref.firstFit(Size) + Size <= Limit);
  EXPECT_EQ(Fast.worstFitBelow(Size, Limit), Ref.worstFitBelow(Size, Limit));
  EXPECT_EQ(Fast.isFree(From, Size), Ref.isFree(From, Size));
  EXPECT_EQ(Fast.numBlocks(), Ref.numBlocks());
  EXPECT_EQ(Fast.numBlocksBelow(Limit), Ref.numBlocksBelow(Limit));
  EXPECT_EQ(Fast.largestBlockBelow(Limit), Ref.largestBlockBelow(Limit));
  EXPECT_EQ(Fast.freeWordsBelow(Limit), Ref.freeWordsBelow(Limit));
}

/// Full structural comparison: both indexes hold exactly the same blocks
/// in the same order.
void expectBlocksMatch(const FreeSpaceIndex &Fast,
                       const ReferenceFreeSpaceIndex &Ref, int Op) {
  SCOPED_TRACE(::testing::Message() << "op " << Op);
  auto FIt = Fast.begin();
  for (const auto &[Start, End] : Ref) {
    ASSERT_NE(FIt, Fast.end());
    EXPECT_EQ((*FIt).first, Start);
    EXPECT_EQ((*FIt).second, End);
    ++FIt;
  }
  EXPECT_EQ(FIt, Fast.end());
}

class IndexEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexEquivalence, RandomOpsMatchReference) {
  const uint64_t Seed = GetParam();
  Rng R(Seed);
  FreeSpaceIndex Fast;
  ReferenceFreeSpaceIndex Ref;
  // Ranges currently reserved in both indexes, eligible for release.
  std::vector<std::pair<Addr, uint64_t>> Reserved;
  constexpr Addr Region = Addr(1) << 20;
  constexpr int NumOps = 10000;

  for (int Op = 0; Op != NumOps; ++Op) {
    if (Reserved.empty() || R.nextBool(0.55)) {
      // Reserve at a placement chosen by one of the real policies'
      // queries, so the streams hit the same block shapes the managers
      // produce (splits at both ends, exact fills, aligned holes).
      uint64_t Size = (uint64_t(1) << R.nextBelow(10)) + R.nextBelow(16);
      Addr A = InvalidAddr;
      switch (R.nextBelow(4)) {
      case 0:
        A = Ref.firstFit(Size);
        break;
      case 1:
        A = Ref.bestFit(Size);
        break;
      case 2:
        A = Ref.firstFitFrom(R.nextBelow(Region), Size);
        break;
      case 3:
        A = Ref.firstFitAligned(Size, uint64_t(1) << R.nextBelow(8));
        break;
      }
      ASSERT_TRUE(Ref.isFree(A, Size));
      Fast.reserve(A, Size);
      Ref.reserve(A, Size);
      Reserved.emplace_back(A, Size);
    } else {
      size_t I = R.nextBelow(Reserved.size());
      auto [A, Size] = Reserved[I];
      Fast.release(A, Size);
      Ref.release(A, Size);
      Reserved[I] = Reserved.back();
      Reserved.pop_back();
    }

    uint64_t QSize = uint64_t(1) << R.nextBelow(14);
    QSize += R.nextBelow(QSize);
    Addr From = R.nextBelow(Region + Region / 4);
    uint64_t Align = uint64_t(1) << R.nextBelow(10);
    Addr Limit = 1 + R.nextBelow(Region);
    expectQueriesMatch(Fast, Ref, QSize, From, Align, Limit, Op);
    if (HasFailure())
      FAIL() << "first divergence at op " << Op << " (seed " << Seed << ")";
    if (Op % 256 == 0)
      expectBlocksMatch(Fast, Ref, Op);
  }
  expectBlocksMatch(Fast, Ref, NumOps);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// Checkerboard stress: thousands of single-word gaps split the free space
// into many blocks on the way up and coalesce them across super
// boundaries on the way down, with the reference checked at every step
// of the teardown.
TEST(IndexEquivalenceStress, CheckerboardSplitsAndCoalesces) {
  FreeSpaceIndex Fast;
  ReferenceFreeSpaceIndex Ref;
  constexpr int N = 4096;
  for (Addr A = 0; A != 2 * N; A += 2) {
    Fast.reserve(A, 1);
    Ref.reserve(A, 1);
  }
  expectBlocksMatch(Fast, Ref, 0);
  // Free the even words in a scrambled but deterministic order so
  // coalescing happens left, right, both, and across leaf boundaries.
  Rng R(99);
  std::vector<Addr> Order;
  for (Addr A = 0; A != 2 * N; A += 2)
    Order.push_back(A);
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[R.nextBelow(I)]);
  int Op = 0;
  for (Addr A : Order) {
    Fast.release(A, 1);
    Ref.release(A, 1);
    EXPECT_EQ(Fast.numBlocks(), Ref.numBlocks());
    EXPECT_EQ(Fast.firstFit(2), Ref.firstFit(2));
    EXPECT_EQ(Fast.largestBlockBelow(2 * N), Ref.largestBlockBelow(2 * N));
    if (++Op % 512 == 0)
      expectBlocksMatch(Fast, Ref, Op);
  }
  expectBlocksMatch(Fast, Ref, Op);
  EXPECT_EQ(Fast.numBlocks(), 1u);
}

// Mask extraction at word boundaries: occupancy spans read back from the
// packed board must agree with per-bit queries for every alignment of
// the read window — including reads straddling the bit-63 -> bit-64 seam,
// whole used and whole free words, widths that are not multiples of 64,
// and windows reaching past the committed prefix (zero-extended).
TEST(IndexEquivalenceStress, MaskExtractionAtWordBoundaries) {
  FreeSpaceIndex Fast;
  const std::vector<std::pair<Addr, uint64_t>> Ranges = {
      {62, 4},    // straddles the word 0 -> word 1 seam
      {128, 64},  // exactly word 2, a full used word
      {193, 63},  // odd start, ends flush at a word boundary
      {257, 130}, // crosses two boundaries with an odd width
  };
  for (auto [S, Sz] : Ranges)
    Fast.reserve(S, Sz);

  auto CheckWindow = [&](Addr Start) {
    std::array<uint64_t, 8> Out{};
    Fast.occupancyWords(Start, Out.size(), Out.data());
    for (unsigned B = 0; B != unsigned(Out.size()) * 64; ++B) {
      uint64_t Got = (Out[B / 64] >> (B % 64)) & 1;
      uint64_t Want = Fast.isFree(Start + B, 1) ? 0 : 1;
      ASSERT_EQ(Got, Want) << "window at " << Start << ", bit " << B;
    }
  };
  for (Addr Start : {Addr(0), Addr(1), Addr(62), Addr(63), Addr(64),
                     Addr(127), Addr(128), Addr(200), Addr(384)})
    CheckWindow(Start);

  // Releasing the seam-straddling and full-word ranges must clear the
  // same windows bit-for-bit.
  Fast.release(62, 4);
  Fast.release(128, 64);
  for (Addr Start : {Addr(0), Addr(62), Addr(63), Addr(64), Addr(127)})
    CheckWindow(Start);
}

// --- Full occupancy words ---------------------------------------------------
//
// The fit scans jump over stretches of all-ones occupancy words. The boards
// below put full words where that jump can go wrong: at the start of a
// super, between two partial runs (the open run must close), under a
// firstFitFrom cursor, before a run that ends at a super boundary, and at
// the very end of the dense board. Every board is queried in two orders:
// with a bestFit sweep first, which descends the dirty supers and banks
// their digests, and with the plain queries first, which meet the supers
// dirty.

constexpr uint64_t Full = ~uint64_t(0);
constexpr unsigned WordsPerSuper = 64;

/// A seeded partial occupancy word: a free hole, a free prefix, a free
/// suffix, or a dense random scatter of short runs.
uint64_t partialWord(Rng &R) {
  unsigned A = unsigned(R.nextBelow(64)), B = unsigned(R.nextBelow(64));
  if (A > B)
    std::swap(A, B);
  ++B;
  switch (R.nextBelow(4)) {
  case 0:
    return ~bitRange(A, B);
  case 1:
    return ~lowMask(B);
  case 2:
    return lowMask(A == 0 ? 1 : A);
  default:
    return R.next() | R.next();
  }
}

/// Reserves the used runs of \p Words in both indexes, in a seeded order.
void reserveBoard(const std::vector<uint64_t> &Words, Rng &R,
                  FreeSpaceIndex &Fast, ReferenceFreeSpaceIndex &Ref) {
  std::vector<std::pair<Addr, uint64_t>> Runs;
  Addr Start = InvalidAddr;
  for (Addr A = 0; A != Addr(Words.size()) * 64; ++A) {
    bool Used = (Words[A / 64] >> (A % 64)) & 1;
    if (Used && Start == InvalidAddr)
      Start = A;
    if (!Used && Start != InvalidAddr) {
      Runs.emplace_back(Start, A - Start);
      Start = InvalidAddr;
    }
  }
  if (Start != InvalidAddr)
    Runs.emplace_back(Start, Addr(Words.size()) * 64 - Start);
  for (size_t I = Runs.size(); I > 1; --I)
    std::swap(Runs[I - 1], Runs[R.nextBelow(I)]);
  for (auto [A, Size] : Runs) {
    Fast.reserve(A, Size);
    Ref.reserve(A, Size);
  }
}

/// Builds \p Words into both indexes and compares every query, at the
/// addresses in \p Points (cursors and limits) and at seeded ones.
void expectFullWordParity(const std::vector<uint64_t> &Words,
                          std::vector<Addr> Points, uint64_t Seed) {
  const Addr End = Addr(Words.size()) * 64;
  for (Addr A = 0; A <= End; A += 64 * WordsPerSuper)
    Points.push_back(A); // super boundaries, the board's end included
  const std::vector<uint64_t> Sizes = {1,  2,   3,   5,   8,    13,   31,
                                       63, 64,  65,  100, 127,  128,  200,
                                       500, 1000, 4000, 4096, 5000};
  for (bool SweepFirst : {true, false}) {
    SCOPED_TRACE(::testing::Message()
                 << "seed " << Seed << (SweepFirst ? " sweep" : " plain")
                 << " first");
    FreeSpaceIndex Fast;
    ReferenceFreeSpaceIndex Ref;
    Rng R(Seed);
    reserveBoard(Words, R, Fast, Ref);
    if (SweepFirst) {
      for (uint64_t Size : Sizes)
        ASSERT_EQ(Fast.bestFit(Size), Ref.bestFit(Size)) << "size " << Size;
      // The digests the sweep banked drive these two queries.
      for (Addr L : Points) {
        if (L == 0)
          continue;
        EXPECT_EQ(Fast.numBlocksBelow(L), Ref.numBlocksBelow(L)) << L;
        EXPECT_EQ(Fast.largestBlockBelow(L), Ref.largestBlockBelow(L)) << L;
      }
    }
    int Op = 0;
    for (uint64_t Size : Sizes)
      for (Addr P : Points)
        expectQueriesMatch(Fast, Ref, Size, P,
                           uint64_t(1) << R.nextBelow(8),
                           std::max<Addr>(1, P), Op++);
    for (int I = 0; I != 200; ++I) {
      uint64_t Size = 1 + R.nextBelow(R.nextBool(0.5) ? 128 : 6000);
      expectQueriesMatch(Fast, Ref, Size, R.nextBelow(End + 128),
                         uint64_t(1) << R.nextBelow(10),
                         1 + R.nextBelow(End + 128), Op++);
    }
    expectBlocksMatch(Fast, Ref, Op);
  }
}

class FullWordParity : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FullWordParity, SuperWithFirst63WordsFull) {
  Rng R(GetParam());
  std::vector<uint64_t> Words(3 * WordsPerSuper);
  for (uint64_t &W : Words)
    W = partialWord(R);
  Words[WordsPerSuper - 1] = ~uint64_t(0) >> 20; // a run carried in
  for (unsigned I = 0; I != 63; ++I)
    Words[WordsPerSuper + I] = Full;
  std::vector<Addr> Points;
  for (unsigned I = 0; I < 63; I += 7)
    Points.push_back(Addr(WordsPerSuper + I) * 64 + R.nextBelow(64));
  expectFullWordParity(Words, Points, GetParam());
}

TEST_P(FullWordParity, FullWordBetweenPartialRuns) {
  Rng R(GetParam());
  std::vector<uint64_t> Words;
  std::vector<Addr> Points;
  while (Words.size() < 2 * WordsPerSuper) {
    // A free suffix, 1-4 full words, then a free prefix: the two runs
    // must not join across the full words.
    Words.push_back(lowMask(1 + unsigned(R.nextBelow(63))));
    Points.push_back(Addr(Words.size()) * 64 - 1);
    for (uint64_t N = 1 + R.nextBelow(4); N != 0; --N)
      Words.push_back(Full);
    Words.push_back(~lowMask(1 + unsigned(R.nextBelow(63))));
    Points.push_back(Addr(Words.size() - 1) * 64);
    Words.push_back(partialWord(R));
  }
  expectFullWordParity(Words, Points, GetParam());
}

TEST_P(FullWordParity, FirstFitFromInsideFullWord) {
  Rng R(GetParam());
  std::vector<uint64_t> Words(2 * WordsPerSuper);
  std::vector<Addr> Points;
  for (size_t I = 0; I != Words.size(); ++I) {
    Words[I] = R.nextBool(0.6) ? Full : partialWord(R);
    if (Words[I] == Full) {
      // Cursors at the word's first bit, inside it and at its last bit.
      Points.push_back(Addr(I) * 64);
      Points.push_back(Addr(I) * 64 + 1 + R.nextBelow(62));
      Points.push_back(Addr(I) * 64 + 63);
    }
  }
  expectFullWordParity(Words, Points, GetParam());
}

TEST_P(FullWordParity, RunEndingAtSuperBoundaryAfterFullWords) {
  Rng R(GetParam());
  std::vector<uint64_t> Words(3 * WordsPerSuper);
  for (uint64_t &W : Words)
    W = partialWord(R);
  // Super 0 ends in full words and then a run reaching its boundary,
  // closed by a used bit; super 1 ends the same way but its run carries
  // into super 2's free prefix.
  for (unsigned I = 8; I != 63; ++I)
    Words[I] = Words[WordsPerSuper + I] = Full;
  Words[63] = lowMask(1 + unsigned(R.nextBelow(63)));
  Words[WordsPerSuper] |= 1;
  Words[2 * WordsPerSuper - 1] = lowMask(1 + unsigned(R.nextBelow(63)));
  Words[2 * WordsPerSuper] = ~lowMask(1 + unsigned(R.nextBelow(63)));
  std::vector<Addr> Points = {Addr(63) * 64, Addr(64) * 64 - 1,
                              Addr(2 * WordsPerSuper - 1) * 64 + 63};
  expectFullWordParity(Words, Points, GetParam());
}

TEST_P(FullWordParity, FullLastWordOnTheDenseBoard) {
  Rng R(GetParam());
  // The board grows in whole supers, so two supers of words commit
  // exactly that much: its last words are full, the tail starts right
  // after them.
  std::vector<uint64_t> Words(2 * WordsPerSuper);
  for (uint64_t &W : Words)
    W = partialWord(R);
  for (size_t I = Words.size() - 1 - R.nextBelow(8); I != Words.size(); ++I)
    Words[I] = Full;
  std::vector<Addr> Points = {Addr(Words.size()) * 64 - 1,
                              Addr(Words.size()) * 64 - 64};
  expectFullWordParity(Words, Points, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FullWordParity, ::testing::Values(1, 7, 42));

} // namespace
