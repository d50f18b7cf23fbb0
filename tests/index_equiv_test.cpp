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
#include "heap/PagedBoard.h"
#include "obs/Profiler.h"
#include "support/BitOps.h"
#include "support/Random.h"
#include "testsupport/ReferenceFreeSpaceIndex.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <ostream>
#include <string>
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
  EXPECT_EQ(Fast.largestBlockBelow(Limit), Ref.largestBlockBelow(Limit));
  if (Limit != 0) {
    EXPECT_EQ(Fast.freeWordsIn(0, Limit), Ref.freeWordsIn(0, Limit));
  }
}

/// Full structural comparison: both indexes hold exactly the same blocks
/// in the same order, and the live index counts them.
void expectBlocksMatch(const FreeSpaceIndex &Fast,
                       const ReferenceFreeSpaceIndex &Ref, int Op) {
  SCOPED_TRACE(::testing::Message() << "op " << Op);
  std::vector<std::pair<Addr, Addr>> Blocks;
  Fast.blocks(Blocks);
  EXPECT_EQ(Blocks, Ref.blocks());
  EXPECT_EQ(Blocks.size(), Fast.numBlocks());
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
    std::string Why;
    ASSERT_TRUE(Fast.checkDigests(&Why))
        << "op " << Op << " (seed " << Seed << "): " << Why;

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

// --- The merged run of a release ---------------------------------------------
//
// A release learns the extent of the free run it merges into from two
// searches inside its super, one on each side of the freed range. A side
// whose neighbour run reaches the super's edge answers from the old Pre or
// Suf digest once its first word tests clear; only a run ending inside the
// super is scanned for. Each board below is built, gets one release, and
// is then queried. Every query runs on a freshly built pair of indexes:
// queries that descend a dirty super rebuild its digest, which would hide
// a wrong one from the queries after them.

constexpr Addr SB = 64 * WordsPerSuper; // bits per super
constexpr Addr B1 = SB, W1 = 2 * SB;    // the window most boards release in

/// Used ranges [S, E), reserved in this order, and the range released
/// afterwards (used throughout).
struct ReleaseBoard {
  const char *Name;
  std::vector<std::pair<Addr, Addr>> Used;
  Addr Lo, Hi;
};

/// Super 0 ends in a 100-bit free run carried into super 1; super 2
/// starts with one.
std::vector<std::pair<Addr, Addr>>
withNeighbours(std::vector<std::pair<Addr, Addr>> Window) {
  Window.insert(Window.begin(), {{0, 64}, {3000, SB - 100}});
  Window.push_back({W1 + 100, W1 + 208});
  Window.push_back({W1 + 900, W1 + 1000});
  return Window;
}

const std::vector<ReleaseBoard> &releaseBoards() {
  static const std::vector<ReleaseBoard> Boards = {
      // [B, Lo) free: the left run reaches the low edge.
      {"LowEdgeRun",
       withNeighbours({{B1 + 1000, B1 + 1200},
                       {B1 + 1200, B1 + 1300},
                       {B1 + 2000, B1 + 2001}}),
       B1 + 1000, B1 + 1200},
      // [Hi, WEnd) free: the right run reaches the high edge and is
      // carried into super 2's prefix.
      {"HighEdgeRun",
       withNeighbours({{B1 + 10, B1 + 20}, {B1 + 3000, B1 + 3100}}),
       B1 + 3000, B1 + 3100},
      // Both sides reach an edge: the release frees the whole super.
      {"BothEdgesFreeTheSuper", withNeighbours({{B1 + 1000, B1 + 1100}}),
       B1 + 1000, B1 + 1100},
      {"InteriorRunsOnBothSides",
       withNeighbours({{B1 + 500, B1 + 501},
                       {B1 + 700, B1 + 900},
                       {B1 + 1100, B1 + 1101},
                       {B1 + 3000, B1 + 3010}}),
       B1 + 700, B1 + 900},
      // The first word past Hi is clear; a used bit 200 bits on, then
      // free space to the edge.
      {"ClearFirstWordThenUsedRight",
       withNeighbours({{B1 + 10, B1 + 20},
                       {B1 + 1024, B1 + 1088},
                       {B1 + 1288, B1 + 1289}}),
       B1 + 1024, B1 + 1088},
      // As above with the used bit 100 bits on, within two words of Hi.
      {"UsedBitNearRight",
       withNeighbours({{B1 + 10, B1 + 20},
                       {B1 + 1024, B1 + 1088},
                       {B1 + 1188, B1 + 1189}}),
       B1 + 1024, B1 + 1088},
      // The word below Lo is clear; the window's first used bit is 224
      // bits below Lo.
      {"ClearFirstWordThenUsedLeft",
       withNeighbours({{B1 + 800, B1 + 801},
                       {B1 + 1024, B1 + 1088},
                       {B1 + 3000, B1 + 3010}}),
       B1 + 1024, B1 + 1088},
      // As above with the first used bit 100 bits below Lo.
      {"UsedBitNearLeft",
       withNeighbours({{B1 + 924, B1 + 925},
                       {B1 + 1024, B1 + 1088},
                       {B1 + 3000, B1 + 3010}}),
       B1 + 1024, B1 + 1088},
      // A release from super 0 into super 1. In super 0 the first used
      // bit is 108 bits below Lo, behind a clear word.
      {"SpansSupers",
       {{2900, 2901},
        {3008, B1 + 100},
        {B1 + 100, B1 + 101},
        {B1 + 2000, B1 + 2001},
        {W1 + 100, W1 + 208}},
       3008, B1 + 100},
      // One used range covers super 1 and reaches into both neighbours.
      {"FreesAWholeSuper",
       withNeighbours({{B1 - 50, W1 + 50}}), B1 - 50, W1 + 50},
      // Two-super boards: super 1 is the dense board's last, so its
      // suffix run continues into the tail above the board.
      {"LastSuperHighEdgeRun",
       {{0, 64}, {3000, SB - 100}, {B1 + 10, B1 + 20}, {B1 + 3000, B1 + 3100}},
       B1 + 3000, B1 + 3100},
      {"LastSuperUsedBitNearRight",
       {{0, 64},
        {3000, SB - 100},
        {B1 + 10, B1 + 20},
        {B1 + 1024, B1 + 1088},
        {B1 + 1188, B1 + 1189}},
       B1 + 1024, B1 + 1088},
  };
  return Boards;
}

/// Failure messages name the board instead of dumping its bytes.
void PrintTo(const ReleaseBoard &Board, std::ostream *OS) {
  *OS << Board.Name;
}

void buildAndRelease(const ReleaseBoard &Board, FreeSpaceIndex &Fast,
                     ReferenceFreeSpaceIndex &Ref) {
  for (auto [S, E] : Board.Used) {
    Fast.reserve(S, E - S);
    Ref.reserve(S, E - S);
  }
  Fast.release(Board.Lo, Board.Hi - Board.Lo);
  Ref.release(Board.Lo, Board.Hi - Board.Lo);
}

class ReleaseExtent : public ::testing::TestWithParam<ReleaseBoard> {};

TEST_P(ReleaseExtent, QueriesMatchAfterRelease) {
  const ReleaseBoard &Board = GetParam();
  auto Fresh = [&](auto Query) {
    FreeSpaceIndex Fast;
    ReferenceFreeSpaceIndex Ref;
    buildAndRelease(Board, Fast, Ref);
    Query(Fast, Ref);
  };
  std::vector<Addr> Points = {Board.Lo, Board.Hi, Board.Lo - 1,
                              Board.Hi + 1};
  for (Addr A = SB; A <= 3 * SB; A += SB)
    Points.insert(Points.end(), {A - 1, A, A + 1});
  for (auto [S, E] : Board.Used)
    Points.insert(Points.end(), {S, E});
  // Every size up to a super and a neighbour's run: a wrong Pre, Suf or
  // Max shows up as a first fit found or missed at some size.
  for (uint64_t Size = 1; Size <= SB + 300; ++Size)
    Fresh([&](FreeSpaceIndex &Fast, ReferenceFreeSpaceIndex &Ref) {
      ASSERT_EQ(Fast.firstFit(Size), Ref.firstFit(Size)) << "size " << Size;
    });
  const std::vector<uint64_t> Sizes = {1,   63,  64,   100,  101,  200,
                                       201, 900, 1000, 1300, 2000, 3000,
                                       3100, 4000, SB, SB + 100, SB + 250};
  for (Addr L : Points) {
    Fresh([&](FreeSpaceIndex &Fast, ReferenceFreeSpaceIndex &Ref) {
      EXPECT_EQ(Fast.largestBlockBelow(L), Ref.largestBlockBelow(L)) << L;
    });
    for (uint64_t Size : Sizes)
      Fresh([&](FreeSpaceIndex &Fast, ReferenceFreeSpaceIndex &Ref) {
        EXPECT_EQ(Fast.worstFitBelow(Size, L), Ref.worstFitBelow(Size, L))
            << "size " << Size << " limit " << L;
      });
  }
  for (uint64_t Size : Sizes)
    Fresh([&](FreeSpaceIndex &Fast, ReferenceFreeSpaceIndex &Ref) {
      EXPECT_EQ(Fast.bestFit(Size), Ref.bestFit(Size)) << "size " << Size;
    });
  Fresh([&](FreeSpaceIndex &Fast, ReferenceFreeSpaceIndex &Ref) {
    int Op = 0;
    for (uint64_t Size : Sizes)
      for (Addr P : Points)
        expectQueriesMatch(Fast, Ref, Size, P, 64, P, Op++);
    expectBlocksMatch(Fast, Ref, Op);
  });
}

INSTANTIATE_TEST_SUITE_P(Boards, ReleaseExtent,
                         ::testing::ValuesIn(releaseBoards()),
                         [](const auto &Info) {
                           return std::string(Info.param.Name);
                         });

// --- In-word windows ----------------------------------------------------------
//
// First fit tests each partial word it reads for a window of Size free bits
// with a shift-AND chain whose shifts are fixed by Size. The boards below
// hold one free window with used flanks in an otherwise used stretch: every
// length 1..64 at every bit offset of a word, and windows across a word
// boundary and across a super boundary split every way, which a fit takes
// through the run carried from the word below. firstFit and firstFitFrom
// run at every Size 1..65 — a window one bit too short, exactly long
// enough and longer, and a Size no word holds — with and without a
// profiler installed, which picks the counted walk.

/// Frees [S, E) in a used stretch [0, 3 * SB), checks the fits of every
/// Size 1..65 against the reference, and reserves the window again.
void expectWindowFits(FreeSpaceIndex &Fast, ReferenceFreeSpaceIndex &Ref,
                      Addr S, Addr E) {
  Fast.release(S, E - S);
  Ref.release(S, E - S);
  const Addr Froms[] = {S - 1, S, S + (E - S) / 2, E - 1, E};
  for (uint64_t Size = 1; Size <= 65; ++Size) {
    SCOPED_TRACE(::testing::Message() << "window [" << S << ", " << E
                                      << ") size " << Size);
    Addr Want = Ref.firstFit(Size);
    ASSERT_EQ(Fast.firstFit(Size), Want);
    for (Addr From : Froms)
      ASSERT_EQ(Fast.firstFitFrom(From, Size), Ref.firstFitFrom(From, Size))
          << "from " << From;
    Profiler Prof;
    ProfilerScope Scope(Prof);
    ASSERT_EQ(Fast.firstFit(Size), Want) << "profiled";
    ASSERT_EQ(Fast.firstFitFrom(S + 1, Size), Ref.firstFitFrom(S + 1, Size))
        << "profiled, from " << S + 1;
  }
  Fast.reserve(S, E - S);
  Ref.reserve(S, E - S);
}

/// The used stretch the window boards free their window in.
void reserveStretch(FreeSpaceIndex &Fast, ReferenceFreeSpaceIndex &Ref) {
  Fast.reserve(0, 3 * SB);
  Ref.reserve(0, 3 * SB);
}

TEST(InWordWindows, EveryLengthAtEveryOffset) {
  FreeSpaceIndex Fast;
  ReferenceFreeSpaceIndex Ref;
  reserveStretch(Fast, Ref);
  const Addr Word = SB + 5 * 64; // a word inside super 1
  for (Addr L = 1; L <= 64; ++L)
    for (Addr Off = 0; Off + L <= 64; ++Off)
      expectWindowFits(Fast, Ref, Word + Off, Word + Off + L);
}

TEST(InWordWindows, AcrossAWordBoundary) {
  FreeSpaceIndex Fast;
  ReferenceFreeSpaceIndex Ref;
  reserveStretch(Fast, Ref);
  const Addr Edge = SB + 7 * 64; // between two words of super 1
  for (Addr Below = 1; Below <= 64; ++Below)
    for (Addr Above = 1; Above <= 64; ++Above)
      expectWindowFits(Fast, Ref, Edge - Below, Edge + Above);
}

TEST(InWordWindows, AcrossASuperBoundary) {
  FreeSpaceIndex Fast;
  ReferenceFreeSpaceIndex Ref;
  reserveStretch(Fast, Ref);
  for (Addr Below = 1; Below <= 64; ++Below)
    for (Addr Above = 1; Above <= 64; ++Above)
      expectWindowFits(Fast, Ref, W1 - Below, W1 + Above);
}

// --- Fits with and without a profiler -----------------------------------------
//
// An installed profiler only picks the walk that counts probes; every fit
// query must return the same address either way, and the telemetry's first
// fit must return firstFit's answer while counting apart from it.

class ProfiledFits : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProfiledFits, SameAddressWithAndWithoutAProfiler) {
  const uint64_t Seed = GetParam();
  Rng R(Seed);
  FreeSpaceIndex Idx;
  std::vector<std::pair<Addr, uint64_t>> Reserved;
  constexpr Addr Region = Addr(1) << 16;
  for (int Op = 0; Op != 3000; ++Op) {
    SCOPED_TRACE(::testing::Message() << "seed " << Seed << " op " << Op);
    // Mostly small first-fit placements, as under PF and the fleet: the
    // stretch below the fits fills up with full and nearly full words.
    if (Reserved.empty() || R.nextBool(0.6)) {
      uint64_t Size = 1 + R.nextBelow(R.nextBool(0.8) ? 64 : 700);
      Addr A = R.nextBool(0.5) ? Idx.firstFit(Size)
                               : Idx.firstFitFrom(R.nextBelow(Region), Size);
      Idx.reserve(A, Size);
      Reserved.emplace_back(A, Size);
    } else {
      size_t I = R.nextBelow(Reserved.size());
      Idx.release(Reserved[I].first, Reserved[I].second);
      Reserved[I] = Reserved.back();
      Reserved.pop_back();
    }
    uint64_t Size = 1 + R.nextBelow(R.nextBool(0.7) ? 65 : 2000);
    Addr From = R.nextBelow(Region);
    uint64_t Align = uint64_t(1) << R.nextBelow(8);
    Addr Limit = 1 + R.nextBelow(Region);
    auto Ask = [&] {
      return std::array<Addr, 6>{Idx.firstFit(Size),
                                 Idx.firstFitFrom(From, Size),
                                 Idx.telemetryFirstFit(Size),
                                 Idx.bestFit(Size),
                                 Idx.firstFitAligned(Size, Align),
                                 Idx.worstFitBelow(Size, Limit)};
    };
    const std::array<Addr, 6> Plain = Ask();
    Profiler Prof;
    std::array<Addr, 6> Profiled;
    {
      ProfilerScope Scope(Prof);
      Profiled = Ask();
    }
    ASSERT_EQ(Plain, Profiled) << "size " << Size << " from " << From;
    EXPECT_EQ(Plain[2], Plain[0]);
    // Five placement queries, one telemetry query.
    EXPECT_EQ(Prof.counter(Profiler::CtrFitQueries), 5u);
    EXPECT_EQ(Prof.counter(Profiler::CtrTelemetryFitQueries), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfiledFits, ::testing::Values(1, 2, 3));

// --- Above the former dense board -------------------------------------------
//
// The occupancy board once stopped at 2^26 bits, with an interval set of
// used ranges above it; it is now paged over the whole address space.
// These boards straddle that old ceiling, sit far above it and crowd the
// top of the address space (placements ending exactly at AddrLimit
// included), so the walks cross absent pages between distant present ones,
// a run continuing across them, and a tail that may be short or missing.

constexpr Addr DenseCeiling = Addr(1) << 26;

/// True when firstFitFrom(From, Size) has an answer: the block containing
/// From holds Size words from From on, or a block above From holds them.
/// (The top of the address space can be too crowded for either.)
bool fitExistsFrom(const ReferenceFreeSpaceIndex &Ref, Addr From,
                   uint64_t Size) {
  if (Ref.isFree(From, Size))
    return true;
  for (const auto &[S, E] : Ref.blocks())
    if (S >= From && E - S >= Size)
      return true;
  return false;
}

class AboveDenseBoard : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AboveDenseBoard, StraddlesCeilingAndReachesAddrLimit) {
  const uint64_t Seed = GetParam();
  Rng R(Seed);
  FreeSpaceIndex Fast;
  ReferenceFreeSpaceIndex Ref;
  std::vector<std::pair<Addr, uint64_t>> Reserved;
  // Three windows of Span words: across the ceiling, far above it, and
  // the top of the address space.
  constexpr Addr Span = Addr(1) << 14;
  const std::array<Addr, 3> Lows = {DenseCeiling - Span / 2, Addr(1) << 40,
                                    AddrLimit - Span};
  auto Pick = [&](size_t Windows) {
    return Lows[R.nextBelow(Windows)] + R.nextBelow(Span);
  };
  // A cursor firstFitFrom can answer for Size: drawn from all three
  // windows, redrawn below the top one when the top is too crowded.
  auto PickFrom = [&](uint64_t Size) {
    Addr From = Pick(3);
    return fitExistsFrom(Ref, From, Size) ? From : Pick(2);
  };
  constexpr int NumOps = 300;

  for (int Op = 0; Op != NumOps; ++Op) {
    if (Reserved.empty() || R.nextBool(0.6)) {
      uint64_t Size = 1 + R.nextBelow(R.nextBool(0.5) ? 64 : 2048);
      Addr A = InvalidAddr;
      switch (R.nextBelow(4)) {
      case 0: // across the ceiling when that range is free
        A = Ref.firstFitFrom(DenseCeiling - 1 - R.nextBelow(Size), Size);
        break;
      case 1: // ending exactly at AddrLimit when that range is free
        A = AddrLimit - Size;
        if (!Ref.isFree(A, Size))
          A = Ref.firstFitFrom(PickFrom(Size), Size);
        break;
      default:
        A = Ref.firstFitFrom(PickFrom(Size), Size);
        break;
      }
      ASSERT_TRUE(Ref.isFree(A, Size)) << "op " << Op;
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

    uint64_t QSize = 1 + R.nextBelow(R.nextBool(0.5) ? 64 : 4096);
    expectQueriesMatch(Fast, Ref, QSize, PickFrom(QSize),
                       uint64_t(1) << R.nextBelow(12), Pick(3), Op);
    Addr S = Pick(3), E = std::min<Addr>(S + 1 + R.nextBelow(Span), AddrLimit);
    EXPECT_EQ(Fast.freeWordsIn(S, E), Ref.freeWordsIn(S, E))
        << "op " << Op << " [" << S << ", " << E << ")";
    // Two occupancy words read at an unaligned start, bit by bit against
    // the reference, and the aligned word under it read both ways.
    Addr W = std::min<Addr>(Pick(3), AddrLimit - 2 * 64);
    std::array<uint64_t, 2> Out{};
    Fast.occupancyWords(W, Out.size(), Out.data());
    for (unsigned B = 0; B != 2 * 64; ++B)
      EXPECT_EQ((Out[B / 64] >> (B % 64)) & 1, Ref.isFree(W + B, 1) ? 0u : 1u)
          << "op " << Op << " bit " << W + B;
    uint64_t Aligned = 0;
    Fast.occupancyWords(W / 64 * 64, 1, &Aligned);
    EXPECT_EQ(Fast.occupancyWord(W / 64), Aligned) << "op " << Op;
    if (HasFailure())
      FAIL() << "first divergence at op " << Op << " (seed " << Seed << ")";
    if (Op % 16 == 0)
      expectBlocksMatch(Fast, Ref, Op);
  }
  expectBlocksMatch(Fast, Ref, NumOps);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AboveDenseBoard, ::testing::Values(1, 2, 3));

// --- Page boundaries and absent pages ----------------------------------------
//
// The board keeps PageBits-address pages under a sorted directory. A page
// absent from it reads as free, and whole pages a reservation covers are
// stored as one run of full pages. The walks join the free space of absent
// pages to the open run and treat the space after the last entry as the
// tail to AddrLimit. The boards below put absent pages between present
// ones, a free run across absent pages, mutations straddling a page
// boundary, releases that empty a stored page, and runs of full pages that
// releases cut, and compare every query with the reference.

constexpr Addr PB = PageBits;

/// Used ranges [S, E), reserved in order, then ranges released in order.
struct PageBoard {
  const char *Name;
  std::vector<std::pair<Addr, Addr>> Used;
  std::vector<std::pair<Addr, Addr>> Released;
};

const std::vector<PageBoard> &pageBoards() {
  static const std::vector<PageBoard> Boards = {
      // Pages 0 and 5 present, pages 1-4 absent between them.
      {"AbsentPagesBetween",
       {{0, 100}, {PB - 300, PB - 200}, {5 * PB + 10, 5 * PB + 20},
        {6 * PB - 64, 6 * PB}},
       {}},
      // A free run from the last 150 words of page 0, across absent
      // pages 1-4, to 40 words into page 5.
      {"RunAcrossAbsentPages",
       {{0, PB - 150}, {5 * PB + 40, 5 * PB + 4000},
        {5 * PB + 4100, 5 * PB + 4101}},
       {}},
      // A reservation across the boundary of pages 0 and 1, kept and
      // released.
      {"StraddlingReserve",
       {{100, 200}, {PB - 100, PB + 100}, {PB + 300, PB + 301}},
       {}},
      {"StraddlingRelease",
       {{100, 200}, {PB - 100, PB + 100}, {PB + 300, PB + 301}},
       {{PB - 100, PB + 100}}},
      // A release that leaves stored page 1 all free.
      {"ReleaseEmptiesAPage",
       {{0, 64}, {PB + 500, PB + 700}, {2 * PB + 5, 2 * PB + 9}},
       {{PB + 500, PB + 700}}},
      // An object covering pages 1-3 whole: a run of full pages.
      {"RunOfFullPages",
       {{10, 20}, {PB - 30, 4 * PB + 30}, {5 * PB, 5 * PB + 1}},
       {}},
      {"RunReleasedWhole",
       {{10, 20}, {PB - 30, 4 * PB + 30}, {5 * PB, 5 * PB + 1}},
       {{PB - 30, 4 * PB + 30}}},
      // Releases inside a run: a hole within one page, a range whose
      // edges cut pages 2 and 4 and which frees page 3 whole, and
      // page-aligned ranges that free whole pages only.
      {"ReleaseInsideARunPage", {{PB - 30, 4 * PB + 30}},
       {{2 * PB + 100, 2 * PB + 200}}},
      {"ReleaseCutsRunEdges", {{PB - 30, 6 * PB + 30}},
       {{2 * PB + 100, 4 * PB + 7}}},
      {"ReleaseFreesWholePagesOfRun", {{0, 8 * PB}},
       {{2 * PB, 3 * PB}, {5 * PB, 7 * PB}}},
      // Page 0's last super ends in a 2000-word suffix run, which its
      // digest carries straight into a run of full pages.
      {"SuffixRunBeforeRunOfFullPages", {{0, PB - 2000}, {PB, 3 * PB}}, {}},
      // The top page of the address space, far above page 0.
      {"TopPage", {{0, 10}, {AddrLimit - 100, AddrLimit - 40}}, {}},
  };
  return Boards;
}

void PrintTo(const PageBoard &Board, std::ostream *OS) { *OS << Board.Name; }

class PageBoundaries : public ::testing::TestWithParam<PageBoard> {};

TEST_P(PageBoundaries, QueriesMatchReference) {
  const PageBoard &Board = GetParam();
  std::vector<Addr> Points = {1, AddrLimit - 200, AddrLimit - 1};
  for (Addr P = 0; P <= 9; ++P)
    Points.insert(Points.end(), {P * PB, P * PB + 1, P * PB + PB / 2});
  for (const auto &Ranges : {Board.Used, Board.Released})
    for (auto [S, E] : Ranges)
      for (Addr P : {S - 1, S, S + 1, E - 1, E, E + 1})
        if (P < AddrLimit) // S - 1 wraps when S is 0
          Points.push_back(P);
  const std::vector<uint64_t> Sizes = {1,      63,         64,     100,
                                       150,    151,        4096,   PB - 1,
                                       PB,     PB + 1,     3 * PB, 4 * PB + 200,
                                       10 * PB};
  for (bool SweepFirst : {true, false}) {
    SCOPED_TRACE(SweepFirst ? "sweep first" : "plain first");
    FreeSpaceIndex Fast;
    ReferenceFreeSpaceIndex Ref;
    for (auto [S, E] : Board.Used) {
      Fast.reserve(S, E - S);
      Ref.reserve(S, E - S);
    }
    for (auto [S, E] : Board.Released) {
      Fast.release(S, E - S);
      Ref.release(S, E - S);
    }
    if (SweepFirst) {
      for (uint64_t Size : Sizes)
        ASSERT_EQ(Fast.bestFit(Size), Ref.bestFit(Size)) << "size " << Size;
    }
    int Op = 0;
    for (Addr P : Points) {
      EXPECT_EQ(Fast.largestBlockBelow(P), Ref.largestBlockBelow(P)) << P;
      for (uint64_t Size : Sizes) {
        if (!fitExistsFrom(Ref, P, Size))
          continue;
        uint64_t Align = uint64_t(1) << (Op % 16);
        expectQueriesMatch(Fast, Ref, Size, P, Align, P, Op++);
      }
      for (Addr Q : Points) {
        if (P < Q) {
          EXPECT_EQ(Fast.freeWordsIn(P, Q), Ref.freeWordsIn(P, Q))
              << "[" << P << ", " << Q << ")";
        }
      }
      std::array<uint64_t, 2> Out{};
      Addr W = std::min<Addr>(P, AddrLimit - 2 * 64);
      Fast.occupancyWords(W, Out.size(), Out.data());
      for (unsigned B = 0; B != 2 * 64; ++B)
        EXPECT_EQ((Out[B / 64] >> (B % 64)) & 1,
                  Ref.isFree(W + B, 1) ? 0u : 1u)
            << "bit " << W + B;
    }
    expectBlocksMatch(Fast, Ref, Op);
  }
}

INSTANTIATE_TEST_SUITE_P(Boards, PageBoundaries,
                         ::testing::ValuesIn(pageBoards()),
                         [](const auto &Info) {
                           return std::string(Info.param.Name);
                         });

// --- Digest-first queries ------------------------------------------------
//
// A super's Max covers its interior runs only; the prefix and suffix runs
// are read off the exact Pre/Suf. A reservation that cuts the prefix or
// the suffix run leaves its far remainder interior, and Max must take it
// in, or a fit there is skipped. largestBlockBelow lends a clean super's
// Max only when no interior run reaches Limit, first fit judges its
// partial first super by a clean digest, and worstFitBelow is a first fit
// for the widest clipped span. The board below spans six pages and 48
// supers, so every query crosses super and page boundaries, and its
// cursors and limits sit on super boundaries and inside prefix, interior
// and suffix runs.

constexpr unsigned DigestSupers = 48;

/// Free runs [S, E) of the board; every one is at least 16 words long.
std::vector<std::pair<Addr, Addr>> digestBoardRuns() {
  std::vector<std::pair<Addr, Addr>> Runs;
  for (unsigned I = 0; I != DigestSupers; ++I) {
    const Addr B = I * SB, WEnd = B + SB;
    if (I / 8 == 3) // page 3 is never stored
      continue;
    switch (I % 4) {
    case 0: // a prefix run and two interior runs; the last bit is used
      Runs.push_back({B, B + 200 + 40 * I});
      Runs.push_back({B + 208 + 40 * I, B + 224 + 41 * I});
      Runs.push_back({WEnd - 1100 - 20 * I, WEnd - 1040});
      break;
    case 1: // interior runs, and a suffix run into the next super
      Runs.push_back({B + 8, B + 108 + 25 * I});
      Runs.push_back({B + 1500, B + 1548});
      // (below page 3 the suffix run reaches the absent page instead)
      Runs.push_back({WEnd - 300 - 10 * I, I == 23 ? WEnd : WEnd + 150});
      break;
    case 2: // the prefix run from below, one interior and a long suffix
      Runs.push_back({B + 158, B + 188 + 50 * I});
      Runs.push_back({WEnd - 3000 + 50 * I, WEnd});
      break;
    case 3: // every other one wholly free
      if (I % 8 == 3)
        Runs.push_back({B, WEnd});
      break;
    }
  }
  return Runs;
}

/// Reserves the board's span (less page 3) in two ranges, so each super
/// starts from an exact, clean digest, and releases its free runs. With
/// \p Clean, a bestFit(1) then descends every dirty super (no run is one
/// word long, so it never stops early) and banks clean digests.
void buildDigestBoard(FreeSpaceIndex &Fast, ReferenceFreeSpaceIndex &Ref,
                      bool Clean) {
  for (auto [S, E] : {std::pair<Addr, Addr>{0, 24 * SB},
                      std::pair<Addr, Addr>{32 * SB, DigestSupers * SB}}) {
    Fast.reserve(S, E - S);
    Ref.reserve(S, E - S);
  }
  for (auto [S, E] : digestBoardRuns()) {
    Fast.release(S, E - S);
    Ref.release(S, E - S);
  }
  if (Clean) {
    ASSERT_EQ(Fast.bestFit(1), Ref.bestFit(1));
  }
}

/// Super boundaries, and the first, second, middle and last words of
/// every free run.
std::vector<Addr> digestBoardPoints() {
  std::vector<Addr> Points;
  for (Addr A = 0; A <= DigestSupers * SB; A += SB)
    Points.push_back(A);
  for (auto [S, E] : digestBoardRuns())
    Points.insert(Points.end(), {S, S + 1, S + (E - S) / 2, E - 1});
  return Points;
}

/// Builds the board (clean or not), reserves \p Cut, and checks every
/// query at the sizes around \p Size, each on a freshly built board: a
/// query that descends the cut super rebuilds its digest and would hide
/// a missing fold from the queries after it.
void expectQueriesAfterCut(std::pair<Addr, Addr> Cut, uint64_t Size) {
  std::vector<Addr> Points = digestBoardPoints();
  Points.insert(Points.end(), {Cut.first - 1, Cut.second, Cut.second + 1});
  for (bool Clean : {true, false}) {
    SCOPED_TRACE(Clean ? "clean board" : "dirty board");
    auto Fresh = [&](auto Query) {
      FreeSpaceIndex Fast;
      ReferenceFreeSpaceIndex Ref;
      buildDigestBoard(Fast, Ref, Clean);
      Fast.reserve(Cut.first, Cut.second - Cut.first);
      Ref.reserve(Cut.first, Cut.second - Cut.first);
      std::string Why;
      ASSERT_TRUE(Fast.checkDigests(&Why)) << Why;
      Query(Fast, Ref);
    };
    int Op = 0;
    for (uint64_t Sz : {Size - 1, Size, Size + 1}) {
      Fresh([&](FreeSpaceIndex &Fast, ReferenceFreeSpaceIndex &Ref) {
        EXPECT_EQ(Fast.firstFit(Sz), Ref.firstFit(Sz)) << "size " << Sz;
        EXPECT_EQ(Fast.bestFit(Sz), Ref.bestFit(Sz)) << "size " << Sz;
      });
      for (Addr P : Points)
        Fresh([&](FreeSpaceIndex &Fast, ReferenceFreeSpaceIndex &Ref) {
          expectQueriesMatch(Fast, Ref, Sz, P, 16, std::max<Addr>(P, 1),
                             Op++);
        });
    }
  }
}

TEST(DigestFirst, PrefixCutRemainderOutrunsInteriorMax) {
  // Super 40: a 1800-word prefix run, interior runs of 56 and 860
  // words; super 39 below it is used throughout. The cut leaves a
  // 1780-word interior remainder.
  const Addr B = 40 * SB;
  expectQueriesAfterCut({B + 10, B + 20}, 1780);
}

TEST(DigestFirst, SuffixCutRemainderOutrunsInteriorMax) {
  // Super 6: a 2700-word suffix run, a 330-word interior run; super 7
  // above it is used throughout. The cut leaves a 2000-word interior
  // remainder below it.
  const Addr Suf = 7 * SB - 2700;
  expectQueriesAfterCut({Suf + 2000, Suf + 2010}, 2000);
}

TEST(DigestFirst, QueriesAtBoundariesAndInsideRuns) {
  const std::vector<Addr> Points = digestBoardPoints();
  const std::vector<uint64_t> Sizes = {1,    16,   17,   48,   100,  330,
                                       331,  700,  1000, 1260, 1500, 1800,
                                       2000, 2700, 4096, 5000, 9000, 20000};
  for (bool Clean : {true, false}) {
    SCOPED_TRACE(Clean ? "clean board" : "dirty board");
    FreeSpaceIndex Fast;
    ReferenceFreeSpaceIndex Ref;
    buildDigestBoard(Fast, Ref, Clean);
    int Op = 0;
    for (Addr P : Points) {
      EXPECT_EQ(Fast.largestBlockBelow(P), Ref.largestBlockBelow(P)) << P;
      if (P != 0) {
        EXPECT_EQ(Fast.freeWordsIn(0, P), Ref.freeWordsIn(0, P)) << P;
      }
      for (uint64_t Size : Sizes) {
        expectQueriesMatch(Fast, Ref, Size, P, uint64_t(1) << (Op % 8),
                           std::max<Addr>(P, 1), Op);
        ++Op;
      }
    }
    expectBlocksMatch(Fast, Ref, Op);
    std::string Why;
    EXPECT_TRUE(Fast.checkDigests(&Why)) << Why;
  }
}

// The same limits on freshly built boards: a largestBlockBelow or
// worstFitBelow that runs first meets the digests as the build left them
// (or as the cleaning sweep banked them), not as earlier queries did.
TEST(DigestFirst, LimitQueriesOnFreshBoards) {
  for (bool Clean : {true, false}) {
    SCOPED_TRACE(Clean ? "clean board" : "dirty board");
    for (Addr P : digestBoardPoints()) {
      if (P == 0)
        continue;
      for (uint64_t Size : {uint64_t(1), uint64_t(500), uint64_t(2500)}) {
        FreeSpaceIndex Fast;
        ReferenceFreeSpaceIndex Ref;
        buildDigestBoard(Fast, Ref, Clean);
        EXPECT_EQ(Fast.worstFitBelow(Size, P), Ref.worstFitBelow(Size, P))
            << "size " << Size << " limit " << P;
        EXPECT_EQ(Fast.largestBlockBelow(P), Ref.largestBlockBelow(P)) << P;
      }
    }
  }
}

// A firstFitFrom whose cursor lies in the prefix run of a super: judged
// by a clean digest whose Max rules out the fit, the super costs the one
// probe of the run from the cursor, which closes below the answer; its
// interior run is not counted. A dirty digest sends the walk through the
// words, which count both runs.
TEST(DigestFirst, PartialFirstSuperCountsTheCursorRun) {
  for (bool Clean : {true, false}) {
    SCOPED_TRACE(Clean ? "clean digest" : "dirty digest");
    FreeSpaceIndex Fast;
    Fast.reserve(100, 10);
    Fast.reserve(150, SB - 150); // free: [0, 100) and [110, 150)
    if (Clean) {
      ASSERT_EQ(Fast.bestFit(1), 110u);
    }
    Profiler Prof;
    ProfilerScope Scope(Prof);
    EXPECT_EQ(Fast.firstFitFrom(50, 200), SB);
    EXPECT_EQ(Prof.counter(Profiler::CtrFitProbes), Clean ? 1u : 2u);
  }
}

// --- One walk over a board of many pages ----------------------------------
//
// Every query is a visitor of one walk over the board's directory. The
// board below spans 160 pages, 1280 supers, with free runs from two words
// to several pages long, so the walk meets absent pages (free runs that
// cover pages whole), runs of full pages (used stretches that do),
// free and partial supers inside stored pages, and runs spanning all of
// these. It is built by reserving the whole span, one run of full pages,
// and releasing the free runs, which leaves every touched super's digest
// dirty. A bestFit(1) sweep then banks clean digests (no run is one word
// long, so it never stops early), and a churn after the sweep dirties
// some of them again.

constexpr unsigned ManyPages = 160;

/// Free runs [S, E) of the board, in address order, each at least two
/// words long.
const std::vector<std::pair<Addr, Addr>> &manyPageRuns() {
  static const std::vector<std::pair<Addr, Addr>> Runs = [] {
    std::vector<std::pair<Addr, Addr>> Out;
    Rng R(29);
    const Addr End = ManyPages * PB;
    bool Free = false;
    for (Addr A = 0; A < End; Free = !Free) {
      // Half the stretches that start on a page boundary span pages, so
      // runs of full pages and absent pages often meet a run that ends
      // or starts on the boundary.
      const uint64_t Kind =
          A % PB == 0 && R.nextBool(0.5) ? 18 : R.nextBelow(20);
      uint64_t Len = Kind < 8    ? 2 + R.nextBelow(63)        // in a word
                     : Kind < 15 ? 65 + R.nextBelow(2000)     // in a super
                     : Kind < 18 ? SB + R.nextBelow(3 * SB)   // over supers
                     : Kind < 19 ? PB + R.nextBelow(2 * PB)   // over pages
                                 : alignUp(A + 2, R.nextBool(0.5) ? PB : SB) -
                                       A; // to a boundary
      Len = std::min<uint64_t>(Len, End - A);
      if (Free && Len >= 2)
        Out.push_back({A, A + Len});
      A += Len;
    }
    return Out;
  }();
  return Runs;
}

enum class ManyPageDigests { Dirty, Clean, Churned };

void buildManyPageBoard(FreeSpaceIndex &Fast, ReferenceFreeSpaceIndex &Ref,
                        ManyPageDigests Digests) {
  Fast.reserve(0, ManyPages * PB);
  Ref.reserve(0, ManyPages * PB);
  for (auto [S, E] : manyPageRuns()) {
    Fast.release(S, E - S);
    Ref.release(S, E - S);
  }
  if (Digests == ManyPageDigests::Dirty)
    return;
  ASSERT_EQ(Fast.bestFit(1), Ref.bestFit(1));
  if (Digests == ManyPageDigests::Clean)
    return;
  // Cut one word out of the middle of every third run of five words or
  // more: the cut dirties its super and leaves both halves two words or
  // longer.
  const auto &Runs = manyPageRuns();
  for (size_t I = 0; I < Runs.size(); I += 3) {
    auto [S, E] = Runs[I];
    if (E - S < 5)
      continue;
    Fast.reserve(S + (E - S) / 2, 1);
    Ref.reserve(S + (E - S) / 2, 1);
  }
}

const char *digestsName(ManyPageDigests Digests) {
  return Digests == ManyPageDigests::Dirty   ? "dirty digests"
         : Digests == ManyPageDigests::Clean ? "clean digests"
                                             : "churned digests";
}

/// Page boundaries and the words either side, every sixth super
/// boundary, and the first, second, middle and last words of every sixth
/// free run.
std::vector<Addr> manyPagePoints() {
  std::vector<Addr> Points;
  for (Addr P = 0; P <= ManyPages; ++P) {
    if (P != 0)
      Points.push_back(P * PB - 1);
    Points.insert(Points.end(), {P * PB, P * PB + 1});
  }
  for (Addr A = SB; A < ManyPages * PB; A += 6 * SB)
    Points.insert(Points.end(), {A, A + 1});
  const auto &Runs = manyPageRuns();
  for (size_t I = 0; I < Runs.size(); I += 6) {
    auto [S, E] = Runs[I];
    Points.insert(Points.end(), {S, S + 1, S + (E - S) / 2, E - 1});
  }
  return Points;
}

const std::vector<uint64_t> ManyPageSizes = {1,      2,      33,     64,
                                             65,     700,    SB,     SB + 1,
                                             3 * SB, PB + 5, 2 * PB};

TEST(ManyPages, QueriesMatchReference) {
  ASSERT_GT(ManyPages * PB / SB, 1000u);
  const std::vector<Addr> Points = manyPagePoints();
  for (ManyPageDigests Digests :
       {ManyPageDigests::Dirty, ManyPageDigests::Clean,
        ManyPageDigests::Churned}) {
    SCOPED_TRACE(digestsName(Digests));
    FreeSpaceIndex Fast;
    ReferenceFreeSpaceIndex Ref;
    buildManyPageBoard(Fast, Ref, Digests);
    int Op = 0;
    for (Addr P : Points) {
      EXPECT_EQ(Fast.largestBlockBelow(P), Ref.largestBlockBelow(P)) << P;
      for (uint64_t Size : ManyPageSizes) {
        expectQueriesMatch(Fast, Ref, Size, P, uint64_t(1) << (Op % 12),
                           std::max<Addr>(P, 1), Op);
        ++Op;
      }
    }
    expectBlocksMatch(Fast, Ref, Op);
    std::string Why;
    EXPECT_TRUE(Fast.checkDigests(&Why)) << Why;
  }
}

// blocks() reads every super through scanWords and rebuilds no digest.
// fit.probes shows which digests are clean: a dirty super whose stale Max
// admits a request is descended and its rejected runs counted, while a
// clean one that cannot fit is passed over. So a profiled first fit must
// count as many probes after blocks() as on a board built alike that
// never listed its blocks, and the listed board's digests must still
// keep their contract. The churned board holds stale Max bounds.
TEST(ManyPages, BlocksRebuildNoDigest) {
  const std::vector<Addr> Points = manyPagePoints();
  for (ManyPageDigests Digests :
       {ManyPageDigests::Dirty, ManyPageDigests::Churned}) {
    SCOPED_TRACE(digestsName(Digests));
    FreeSpaceIndex Listed, Unlisted;
    ReferenceFreeSpaceIndex Ref, Ref2;
    buildManyPageBoard(Listed, Ref, Digests);
    buildManyPageBoard(Unlisted, Ref2, Digests);
    std::vector<std::pair<Addr, Addr>> Blocks;
    Listed.blocks(Blocks);
    EXPECT_EQ(Blocks, Ref.blocks());
    std::string Why;
    EXPECT_TRUE(Listed.checkDigests(&Why)) << Why;
    for (size_t I = 0; I < Points.size(); I += 7) {
      for (uint64_t Size : ManyPageSizes) {
        const Addr P = Points[I];
        SCOPED_TRACE(::testing::Message() << "size " << Size << " at " << P);
        Profiler Got, Want;
        {
          ProfilerScope Scope(Got);
          EXPECT_EQ(Listed.firstFit(Size), Ref.firstFit(Size));
          EXPECT_EQ(Listed.firstFitFrom(P, Size), Ref.firstFitFrom(P, Size));
        }
        {
          ProfilerScope Scope(Want);
          Unlisted.firstFit(Size);
          Unlisted.firstFitFrom(P, Size);
        }
        EXPECT_EQ(Got.counter(Profiler::CtrFitProbes),
                  Want.counter(Profiler::CtrFitProbes));
      }
    }
  }
}

// Two boards built alike take the same queries, one always under a
// profiler and the other under one only every other query: the answers
// must agree, and so must the probe counts of the queries both count, so
// an uncounted walk banks the same digests as a counted one.
TEST(ManyPages, ProfilerChangesNoAnswerAndNoProbeCount) {
  const std::vector<Addr> Points = manyPagePoints();
  for (ManyPageDigests Digests :
       {ManyPageDigests::Dirty, ManyPageDigests::Churned}) {
    SCOPED_TRACE(digestsName(Digests));
    FreeSpaceIndex Counted, Mixed;
    ReferenceFreeSpaceIndex Ref, Ref2;
    buildManyPageBoard(Counted, Ref, Digests);
    buildManyPageBoard(Mixed, Ref2, Digests);
    int Op = 0;
    for (size_t I = 0; I < Points.size(); I += 3) {
      for (uint64_t Size : ManyPageSizes) {
        const Addr P = Points[I];
        SCOPED_TRACE(::testing::Message()
                     << "op " << Op << " size " << Size << " at " << P);
        const uint64_t Align = uint64_t(1) << (Op % 12);
        auto Ask = [&](const FreeSpaceIndex &Idx) {
          return std::array<Addr, 7>{Idx.firstFit(Size),
                                     Idx.firstFitFrom(P, Size),
                                     Idx.telemetryFirstFit(Size),
                                     Idx.bestFit(Size),
                                     Idx.firstFitAligned(Size, Align),
                                     Idx.worstFitBelow(Size, P + 1),
                                     Idx.largestBlockBelow(P + 1)};
        };
        auto Probes = [](const Profiler &Prof) {
          return std::array<uint64_t, 2>{
              Prof.counter(Profiler::CtrFitProbes),
              Prof.counter(Profiler::CtrTelemetryFitProbes)};
        };
        Profiler Want;
        std::array<Addr, 7> Answers;
        {
          ProfilerScope Scope(Want);
          Answers = Ask(Counted);
        }
        EXPECT_EQ(Answers[1], Ref.firstFitFrom(P, Size));
        if (Op++ % 2 == 0) {
          EXPECT_EQ(Ask(Mixed), Answers);
          continue;
        }
        Profiler Got;
        {
          ProfilerScope Scope(Got);
          EXPECT_EQ(Ask(Mixed), Answers);
        }
        EXPECT_EQ(Probes(Got), Probes(Want));
      }
    }
  }
}

} // namespace
