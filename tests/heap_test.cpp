//===- tests/heap_test.cpp - Unit tests for src/heap ---------------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "heap/ChunkView.h"
#include "heap/FreeSpaceIndex.h"
#include "heap/Heap.h"
#include "heap/HeapImage.h"
#include "heap/Metrics.h"
#include "heap/PagedBoard.h"
#include "obs/Profiler.h"
#include "support/Random.h"
#include "testsupport/ReferenceFreeSpaceIndex.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

using namespace pcb;

namespace {

// --- FreeSpaceIndex ------------------------------------------------------

TEST(FreeSpaceIndex, StartsFullyFree) {
  FreeSpaceIndex F;
  EXPECT_TRUE(F.isFree(0, 1024));
  EXPECT_EQ(F.firstFit(16), 0u);
  EXPECT_EQ(F.numBlocks(), 1u);
}

TEST(FreeSpaceIndex, ReserveReleaseRoundTrip) {
  FreeSpaceIndex F;
  F.reserve(0, 16);
  EXPECT_FALSE(F.isFree(0, 1));
  EXPECT_EQ(F.firstFit(1), 16u);
  F.release(0, 16);
  EXPECT_TRUE(F.isFree(0, 16));
  EXPECT_EQ(F.numBlocks(), 1u); // coalesced back into the tail
}

TEST(FreeSpaceIndex, FirstFitSkipsSmallHoles) {
  FreeSpaceIndex F;
  F.reserve(0, 100);
  F.release(10, 4);  // hole of 4
  F.release(30, 8);  // hole of 8
  EXPECT_EQ(F.firstFit(4), 10u);
  EXPECT_EQ(F.firstFit(5), 30u);
  EXPECT_EQ(F.firstFit(8), 30u);
  EXPECT_EQ(F.firstFit(9), 100u); // only the tail fits
}

TEST(FreeSpaceIndex, BestFitPrefersTightHole) {
  FreeSpaceIndex F;
  F.reserve(0, 100);
  F.release(10, 16);
  F.release(40, 4);
  EXPECT_EQ(F.bestFit(3), 40u);
  EXPECT_EQ(F.bestFit(4), 40u);
  EXPECT_EQ(F.bestFit(5), 10u);
}

TEST(FreeSpaceIndex, FirstFitFromCursor) {
  FreeSpaceIndex F;
  F.reserve(0, 100);
  F.release(10, 8);
  F.release(50, 8);
  EXPECT_EQ(F.firstFitFrom(0, 8), 10u);
  EXPECT_EQ(F.firstFitFrom(20, 8), 50u);
  EXPECT_EQ(F.firstFitFrom(60, 8), 100u);
  // A cursor inside a block uses the block's remainder.
  EXPECT_EQ(F.firstFitFrom(12, 4), 12u);
  EXPECT_EQ(F.firstFitFrom(12, 6), 12u); // [12, 18) still fits 6
  EXPECT_EQ(F.firstFitFrom(13, 6), 50u); // [13, 18) does not
}

TEST(FreeSpaceIndex, AlignedFit) {
  FreeSpaceIndex F;
  F.reserve(0, 64);
  F.release(6, 10); // block [6, 16): aligned-8 start within is 8
  EXPECT_EQ(F.firstFitAligned(8, 8), 8u);
  EXPECT_EQ(F.firstFitAligned(9, 8), 64u);
  EXPECT_EQ(F.firstFitAligned(4, 4), 8u);
}

// The compactors' hole test: the first fit, compared against a limit
// (their high-water mark). Blocks are address-ordered, so when the first
// fit does not end at or below the limit, no later block does either.
TEST(FreeSpaceIndex, FitBelowLimit) {
  FreeSpaceIndex F;
  F.reserve(0, 100);
  F.release(10, 8);
  Addr A = F.firstFit(8);
  EXPECT_EQ(A, 10u);
  EXPECT_LE(A + 8, Addr(100));
  EXPECT_LE(A + 8, Addr(18)); // ends exactly at the limit
  EXPECT_GT(A + 8, Addr(17)); // one word past it
  Addr B = F.firstFit(9);
  EXPECT_EQ(B, 100u); // the hole is too small: the fit is the tail
  EXPECT_GT(B + 9, Addr(100));
}

// A free run that a full occupancy word closes is a rejected candidate
// like any other: the first-fit scan counts it as a probe before jumping
// over the full words.
TEST(FreeSpaceIndex, FitProbesCountRunsClosedByFullWords) {
  FreeSpaceIndex Idx;
  Idx.reserve(0, 56);   // word 0 ends in the free run [56, 64)
  Idx.reserve(64, 64);  // word 1 is full
  Idx.reserve(160, 32); // word 2 starts with the free run [128, 160)
  Profiler Prof;
  ProfilerScope Scope(Prof);
  EXPECT_EQ(Idx.firstFit(16), 128u);
  EXPECT_EQ(Prof.counter(Profiler::CtrFitProbes), 1u);
}

TEST(FreeSpaceIndex, FreeWordsAccounting) {
  FreeSpaceIndex F;
  F.reserve(0, 100);
  F.release(10, 8);
  F.release(30, 4);
  EXPECT_EQ(F.freeWordsIn(0, 100), 12u);
  EXPECT_EQ(F.freeWordsIn(0, 32), 10u);
  EXPECT_EQ(F.freeWordsIn(10, 18), 8u);
  EXPECT_EQ(F.freeWordsIn(12, 40), 10u);
  EXPECT_EQ(F.freeWordsIn(50, 90), 0u);
}

TEST(FreeSpaceIndex, RandomizedAgainstReference) {
  // Property test: the free index agrees with the reference index, the
  // specification's sorted block vector, over random reserves and
  // releases.
  Rng R(99);
  FreeSpaceIndex F;
  ReferenceFreeSpaceIndex Ref;
  const Addr Universe = 512;
  for (int Op = 0; Op != 4000; ++Op) {
    Addr Start = R.nextBelow(Universe - 16);
    uint64_t Size = 1 + R.nextBelow(16);
    if (Ref.isFree(Start, Size) && R.nextBool(0.55)) {
      F.reserve(Start, Size);
      Ref.reserve(Start, Size);
    } else if (Ref.freeWordsIn(Start, Start + Size) == 0 && R.nextBool(0.9)) {
      F.release(Start, Size);
      Ref.release(Start, Size);
    }
    Addr P1 = R.nextBelow(Universe - 8);
    uint64_t S1 = 1 + R.nextBelow(8);
    ASSERT_EQ(F.isFree(P1, S1), Ref.isFree(P1, S1));
    ASSERT_EQ(F.freeWordsIn(P1, P1 + S1), Ref.freeWordsIn(P1, P1 + S1));
    // First fit really is first: nothing free of that size earlier.
    uint64_t S2 = 1 + R.nextBelow(8);
    Addr Fit = F.firstFit(S2);
    ASSERT_TRUE(F.isFree(Fit, S2));
    for (Addr A = 0; A < Fit && A + S2 <= Universe; ++A)
      ASSERT_FALSE(F.isFree(A, S2)) << "missed earlier fit at " << A;
  }
}

// --- Heap ----------------------------------------------------------------

TEST(Heap, PlaceFreeMoveLifecycle) {
  Heap H;
  ObjectId A = H.place(0, 10);
  ObjectId B = H.place(16, 8);
  EXPECT_TRUE(H.isLive(A));
  EXPECT_EQ(H.object(A).Address, 0u);
  EXPECT_EQ(H.stats().LiveWords, 18u);
  EXPECT_EQ(H.stats().HighWaterMark, 24u);

  H.free(A);
  EXPECT_FALSE(H.isLive(A));
  EXPECT_EQ(H.stats().LiveWords, 8u);
  EXPECT_EQ(H.stats().HighWaterMark, 24u); // footprint never shrinks

  H.move(B, 0);
  EXPECT_EQ(H.object(B).Address, 0u);
  EXPECT_EQ(H.stats().MovedWords, 8u);
  EXPECT_EQ(H.stats().NumMoves, 1u);
}

TEST(Heap, OverlappingSlideAllowed) {
  Heap H;
  ObjectId A = H.place(4, 10);
  H.move(A, 0); // target overlaps the source; memmove semantics
  EXPECT_EQ(H.object(A).Address, 0u);
  EXPECT_TRUE(H.isFree(10, 4));
}

TEST(Heap, UsedWordsIn) {
  Heap H;
  H.place(0, 4);
  H.place(8, 4);
  EXPECT_EQ(H.usedWordsIn(0, 12), 8u);
  EXPECT_EQ(H.usedWordsIn(2, 8), 4u);
  EXPECT_EQ(H.usedWordsIn(4, 4), 0u);
}

TEST(Heap, LiveObjectsInAddressOrder) {
  Heap H;
  ObjectId C = H.place(32, 4);
  ObjectId A = H.place(0, 4);
  ObjectId B = H.place(16, 4);
  std::vector<ObjectId> Live = H.liveObjects();
  ASSERT_EQ(Live.size(), 3u);
  EXPECT_EQ(Live[0], A);
  EXPECT_EQ(Live[1], B);
  EXPECT_EQ(Live[2], C);

  auto In = H.liveObjectsIn(10, 10); // [10, 20): only B
  ASSERT_EQ(In.size(), 1u);
  EXPECT_EQ(In[0], B);

  // Straddling object: starts before the range but reaches into it.
  auto Straddle = H.liveObjectsIn(2, 4);
  ASSERT_EQ(Straddle.size(), 1u);
  EXPECT_EQ(Straddle[0], A);
}

TEST(Heap, StatsAccumulate) {
  Heap H;
  ObjectId A = H.place(0, 4);
  H.free(A);
  ObjectId B = H.place(0, 4);
  (void)B;
  EXPECT_EQ(H.stats().TotalAllocatedWords, 8u);
  EXPECT_EQ(H.stats().NumAllocations, 2u);
  EXPECT_EQ(H.stats().NumFrees, 1u);
  EXPECT_EQ(H.stats().PeakLiveWords, 4u);
}

// --- ChunkView -----------------------------------------------------------

TEST(ChunkView, IndexArithmetic) {
  ChunkView V(3); // chunks of 8
  EXPECT_EQ(V.chunkSize(), 8u);
  EXPECT_EQ(V.indexOf(0), 0u);
  EXPECT_EQ(V.indexOf(7), 0u);
  EXPECT_EQ(V.indexOf(8), 1u);
  EXPECT_EQ(V.startOf(2), 16u);
  EXPECT_EQ(V.endOf(2), 24u);
}

TEST(ChunkView, FullCoverage) {
  ChunkView V(3);
  // Aligned 32-word object at 0 fully covers chunks 0..3.
  EXPECT_EQ(V.firstFullIndex(0, 32), 0u);
  EXPECT_EQ(V.lastFullIndex(0, 32), 3u);
  EXPECT_EQ(V.numFullChunks(0, 32), 4u);
  // Unaligned at 4: fully covers chunks 1..3 only.
  EXPECT_EQ(V.firstFullIndex(4, 32), 1u);
  EXPECT_EQ(V.lastFullIndex(4, 32), 3u);
  EXPECT_EQ(V.numFullChunks(4, 32), 3u);
  // Small object covers no chunk fully.
  EXPECT_EQ(V.numFullChunks(4, 6), 0u);
}

TEST(ChunkView, TouchedChunks) {
  ChunkView V(3);
  EXPECT_EQ(V.firstTouchedIndex(4), 0u);
  EXPECT_EQ(V.lastTouchedIndex(4, 32), 4u); // [4, 36) touches chunk 4
  EXPECT_EQ(V.lastTouchedIndex(0, 8), 0u);
}

TEST(ChunkView, OccupyingDefinition) {
  // Definition 4.2: object at [a, a+s) is f-occupying iff it covers some
  // address k * 2^i + f.
  ChunkView V(3);
  EXPECT_TRUE(V.isOccupying(0, 1, 0));
  EXPECT_FALSE(V.isOccupying(0, 1, 1));
  EXPECT_TRUE(V.isOccupying(5, 4, 0)); // [5, 9) covers 8 = 1*8 + 0
  EXPECT_TRUE(V.isOccupying(5, 4, 6));
  EXPECT_FALSE(V.isOccupying(5, 4, 1));
  // Object of a full chunk size occupies every offset.
  for (uint64_t F = 0; F != 8; ++F)
    EXPECT_TRUE(V.isOccupying(3, 8, F));
}

TEST(ChunkView, OccupyingMatchesBruteForce) {
  // Property: the closed-form f-occupying test agrees with enumerating
  // the object's words, across all small placements, sizes and offsets.
  for (unsigned LogSize : {1u, 2u, 3u, 4u}) {
    ChunkView V(LogSize);
    uint64_t Chunk = V.chunkSize();
    for (Addr Start = 0; Start != 3 * Chunk; ++Start)
      for (uint64_t Size = 1; Size <= 2 * Chunk; ++Size)
        for (uint64_t F = 0; F != Chunk; ++F) {
          bool Brute = false;
          for (Addr W = Start; W != Start + Size; ++W)
            if (W % Chunk == F) {
              Brute = true;
              break;
            }
          ASSERT_EQ(V.isOccupying(Start, Size, F), Brute)
              << "log=" << LogSize << " start=" << Start
              << " size=" << Size << " f=" << F;
        }
  }
}

TEST(ChunkView, FullCoverageMatchesBruteForce) {
  ChunkView V(3);
  uint64_t Chunk = V.chunkSize();
  for (Addr Start = 0; Start != 4 * Chunk; ++Start)
    for (uint64_t Size = 1; Size <= 4 * Chunk; ++Size) {
      uint64_t Brute = 0;
      for (uint64_t K = V.indexOf(Start); K <= V.indexOf(Start + Size - 1);
           ++K)
        if (Start <= V.startOf(K) && V.endOf(K) <= Start + Size)
          ++Brute;
      ASSERT_EQ(V.numFullChunks(Start, Size), Brute)
          << "start=" << Start << " size=" << Size;
    }
}

TEST(FreeSpaceIndex, AlignedFitMatchesBruteForce) {
  // Property: firstFitAligned returns the lowest aligned address that a
  // brute-force scan over the free map would find.
  Rng R(321);
  FreeSpaceIndex F;
  ReferenceFreeSpaceIndex Ref;
  const Addr Universe = 256;
  for (int Op = 0; Op != 1500; ++Op) {
    Addr Start = R.nextBelow(Universe - 16);
    uint64_t Size = 1 + R.nextBelow(16);
    if (Ref.isFree(Start, Size) && R.nextBool(0.6)) {
      F.reserve(Start, Size);
      Ref.reserve(Start, Size);
    } else if (Ref.freeWordsIn(Start, Start + Size) == 0) {
      F.release(Start, Size);
      Ref.release(Start, Size);
    }
    uint64_t QSize = 1 + R.nextBelow(12);
    uint64_t Align = uint64_t(1) << R.nextBelow(4);
    Addr Got = F.firstFitAligned(QSize, Align);
    Addr Brute = InvalidAddr;
    for (Addr A = 0; A + QSize <= 2 * Universe; A += Align)
      if (F.isFree(A, QSize)) {
        Brute = A;
        break;
      }
    ASSERT_EQ(Got, Brute) << "size=" << QSize << " align=" << Align;
  }
}

TEST(Heap, ConsistencyCheckerPassesThroughChurn) {
  Heap H;
  Rng R(17);
  std::vector<ObjectId> Live;
  for (int Op = 0; Op != 2000; ++Op) {
    if (Live.empty() || R.nextBool(0.6)) {
      uint64_t Size = 1 + R.nextBelow(32);
      Live.push_back(H.place(H.freeSpace().firstFit(Size), Size));
    } else {
      size_t Pick = size_t(R.nextBelow(Live.size()));
      H.free(Live[Pick]);
      Live[Pick] = Live.back();
      Live.pop_back();
    }
    if (Op % 100 == 0) {
      ASSERT_TRUE(H.checkConsistency()) << "op " << Op;
    }
  }
  EXPECT_TRUE(H.checkConsistency());
}

// --- HeapImage -----------------------------------------------------------

TEST(HeapImage, RendersOccupancyGlyphs) {
  Heap H;
  H.place(0, 16);
  H.place(20, 8);
  std::string Img = renderHeapImage(H, 32, 4, 1);
  // 4 cells of 8 words: full, full, half-used, half-used.
  EXPECT_EQ(Img, "##::");
}

TEST(HeapImage, EmptyHeap) {
  Heap H;
  EXPECT_EQ(renderHeapImage(H, 0), "(empty heap)");
}

TEST(HeapImage, WrapsAcrossLines) {
  Heap H;
  H.place(0, 8);
  std::string Img = renderHeapImage(H, 16, /*MaxColumns=*/4, /*MaxLines=*/4);
  // 16 words in cells of 1 word across 4-column lines: #### / #### / ....
  EXPECT_EQ(Img, "####\n####\n....\n....");
}

TEST(Heap, MoveBeyondMarkGrowsFootprint) {
  Heap H;
  ObjectId A = H.place(0, 8);
  EXPECT_EQ(H.stats().HighWaterMark, 8u);
  H.move(A, 100);
  EXPECT_EQ(H.stats().HighWaterMark, 108u);
  EXPECT_EQ(H.stats().MovedWords, 8u);
  EXPECT_TRUE(H.checkConsistency());
}

// Objects across 2^24 and 2^26 (where the start and occupancy boards once
// switched to cold structures), at 2^40 and ending at AddrLimit: every
// address-ordered query must agree with a naive recount from the object
// table, and range queries over [0, AddrLimit) must cost the pages
// present, not the span (the ctest timeout would catch a span walk).
TEST(Heap, QueriesAcrossTheAddressSpace) {
  Heap H;
  const Addr P24 = Addr(1) << 24, P26 = Addr(1) << 26, P40 = Addr(1) << 40;
  std::vector<ObjectId> Ids;
  for (auto [A, Size] : std::vector<std::pair<Addr, uint64_t>>{
           {0, 8},
           {P24 - 5, 10},
           {P24 + 7, 3},
           {P26 - 1, 2},
           {P26 + 40000, 3 * PageBits}, // covers two pages whole
           {P40, 64},
           {P40 + 64, 1},
           {AddrLimit - 100, 50},
           {AddrLimit - 16, 16}})
    Ids.push_back(H.place(A, Size));
  H.free(Ids[2]);
  H.move(Ids[6], P40 + 1000);
  H.move(Ids[3], P24 + 100);

  std::vector<ObjectId> Naive;
  for (ObjectId Id = 0; Id != H.numObjects(); ++Id)
    if (H.isLive(Id))
      Naive.push_back(Id);
  std::sort(Naive.begin(), Naive.end(), [&](ObjectId X, ObjectId Y) {
    return H.object(X).Address < H.object(Y).Address;
  });
  EXPECT_EQ(H.liveObjects(), Naive);

  std::vector<Addr> Points = {0, 1, AddrLimit - 200, AddrLimit - 1};
  for (ObjectId Id : Naive) {
    const Object &O = H.object(Id);
    for (Addr A : {O.Address - 1, O.Address, O.Address + 1, O.end() - 1,
                   O.end()})
      if (A < AddrLimit)
        Points.push_back(A);
  }
  for (Addr A : Points) {
    SCOPED_TRACE(::testing::Message() << "at " << A);
    ObjectId First = InvalidObjectId;
    for (ObjectId Id : Naive)
      if (H.object(Id).Address >= A) {
        First = Id;
        break;
      }
    EXPECT_EQ(H.firstLiveAt(A), First);
    for (uint64_t Size : {uint64_t(1), uint64_t(64), uint64_t(100000)}) {
      if (A + Size > AddrLimit)
        continue;
      std::vector<ObjectId> In;
      for (ObjectId Id : Naive)
        if (H.object(Id).Address < A + Size && H.object(Id).end() > A)
          In.push_back(Id);
      EXPECT_EQ(H.liveObjectsIn(A, Size), In) << "size " << Size;
    }
    if (A > AddrLimit - 2 * 64)
      continue;
    std::array<uint64_t, 2> Starts{};
    H.objectStartWords(A, Starts.size(), Starts.data());
    for (unsigned B = 0; B != 2 * 64; ++B) {
      bool Want = std::any_of(Naive.begin(), Naive.end(), [&](ObjectId Id) {
        return H.object(Id).Address == A + B;
      });
      EXPECT_EQ((Starts[B / 64] >> (B % 64)) & 1, Want ? 1u : 0u)
          << "bit " << A + B;
    }
  }
  std::string Why;
  EXPECT_TRUE(H.checkConsistency(&Why)) << Why;

  // The free space is the gaps between the live objects, in address order.
  std::vector<std::pair<Addr, Addr>> Gaps;
  uint64_t LiveWords = 0;
  Addr Prev = 0;
  for (ObjectId Id : Naive) {
    const Object &O = H.object(Id);
    if (O.Address > Prev)
      Gaps.emplace_back(Prev, O.Address);
    Prev = O.end();
    LiveWords += O.Size;
  }
  ASSERT_EQ(Prev, AddrLimit) << "an object must end at AddrLimit";
  const FreeSpaceIndex &F = H.freeSpace();
  EXPECT_EQ(F.freeWordsIn(0, AddrLimit), AddrLimit - LiveWords);
  EXPECT_EQ(F.numBlocks(), Gaps.size());
  // The mark is AddrLimit: no tail lies above it to leave out.
  EXPECT_EQ(measureFragmentation(H).FreeBlocks, Gaps.size());
  std::vector<std::pair<Addr, Addr>> Blocks(F.begin(), F.end());
  EXPECT_EQ(Blocks, Gaps);
}

TEST(FreeSpaceIndex, BlockCountTracksFragmentation) {
  FreeSpaceIndex F;
  EXPECT_EQ(F.numBlocks(), 1u); // the infinite tail
  F.reserve(0, 64);
  EXPECT_EQ(F.numBlocks(), 1u);
  F.release(8, 8);
  F.release(24, 8);
  EXPECT_EQ(F.numBlocks(), 3u);
  F.release(16, 8); // bridges the two holes
  EXPECT_EQ(F.numBlocks(), 2u);
  F.release(0, 8);
  F.release(32, 32); // merges with the tail
  EXPECT_EQ(F.numBlocks(), 1u);
}

TEST(FreeSpaceIndex, AggregateQueriesBelowLimit) {
  FreeSpaceIndex F;
  // The tail starts at 0, so everything below any limit is one clipped
  // block.
  EXPECT_EQ(F.largestBlockBelow(100), 100u);
  F.reserve(0, 64); // tail now starts at 64
  EXPECT_EQ(F.largestBlockBelow(64), 0u);
  F.release(8, 8);
  F.release(24, 4);
  EXPECT_EQ(F.largestBlockBelow(64), 8u);
  // A block straddling the limit counts, clipped.
  EXPECT_EQ(F.largestBlockBelow(26), 8u);
  EXPECT_EQ(F.largestBlockBelow(12), 4u); // [8,16) clipped to [8,12)
}

TEST(Metrics, FastPathMatchesRescan) {
  // Property test: measureFragmentation (complement identity, maintained
  // block count and largest-block walk) agrees with a brute-force walk of
  // the free list over a random churn workload.
  Rng R(2013);
  Heap H;
  std::vector<ObjectId> Live;
  for (int Op = 0; Op != 600; ++Op) {
    if (Live.empty() || R.nextBool(0.6)) {
      uint64_t Size = 1 + R.nextBelow(32);
      Live.push_back(H.place(H.freeSpace().firstFit(Size), Size));
    } else {
      size_t K = size_t(R.nextBelow(Live.size()));
      H.free(Live[K]);
      Live.erase(Live.begin() + K);
    }

    FragmentationMetrics M = measureFragmentation(H);
    uint64_t FreeWords = 0, FreeBlocks = 0, Largest = 0;
    for (const auto &[Start, End] : H.freeSpace()) {
      if (Start >= M.FootprintWords)
        break;
      uint64_t Span =
          std::min<Addr>(End, M.FootprintWords) - Start;
      FreeWords += Span;
      Largest = std::max(Largest, Span);
      ++FreeBlocks;
    }
    ASSERT_EQ(M.FreeWords, FreeWords);
    ASSERT_EQ(M.FreeBlocks, FreeBlocks);
    ASSERT_EQ(M.LargestFreeBlock, Largest);
  }
}

/// The smallest block length in [1, Free] whose fragmentation is <=
/// Peak, found by walking every length.
uint64_t bruteThreshold(double Peak, uint64_t Free) {
  for (uint64_t L = 1; L != Free; ++L)
    if (externalFragmentation(L, Free) <= Peak)
      return L;
  return Free;
}

/// Fills \p H with free blocks of the lengths \p Gaps, in address order,
/// each after one used word. With \p LastAtTop the last block is the
/// freed top of the footprint (clipped by the high-water mark); else one
/// used word closes the footprint.
void layoutGaps(Heap &H, const std::vector<uint64_t> &Gaps, bool LastAtTop) {
  std::vector<ObjectId> Holes;
  Addr A = 0;
  for (uint64_t G : Gaps) {
    H.place(A, 1);
    Holes.push_back(H.place(A + 1, G));
    A += 1 + G;
  }
  if (!LastAtTop)
    H.place(A, 1);
  for (ObjectId Id : Holes)
    H.free(Id);
}

/// maxExternalFragmentation against max(Peak, measured), bit for bit.
void expectPeakMatchesMeasure(const Heap &H, double Peak) {
  double Want =
      std::max(Peak, measureFragmentation(H).ExternalFragmentation);
  double Got = maxExternalFragmentation(H, Peak);
  EXPECT_EQ(std::memcmp(&Want, &Got, sizeof(double)), 0)
      << "peak " << Peak << ": want " << Want << ", got " << Got;
}

TEST(Metrics, PeakSkipRuleAtTheThreshold) {
  // Heaps whose largest block is T - 1, T and T + 1 words, T the
  // smallest length whose fragmentation does not exceed the peak: the
  // helper may answer "the peak" without measuring only from T on.
  const double Peaks[] = {0.0, 0.1, 0.25, 1.0 / 3, 0.5, 0.7,
                          1.0 - 1.0 / 97, 0.999, 1.0};
  for (uint64_t Free : {1u, 2u, 7u, 100u, 1000u, 4097u})
    for (double Peak : Peaks) {
      const uint64_t T = bruteThreshold(Peak, Free);
      for (uint64_t L : {T - 1, T, T + 1}) {
        if (L == 0 || L > Free)
          continue;
        for (bool AtTop : {false, true}) {
          // The rest of the free words in blocks no longer than L, with
          // the L-block last so AtTop puts it under the mark.
          std::vector<uint64_t> Gaps;
          for (uint64_t Rest = Free - L; Rest != 0;) {
            Gaps.push_back(std::min(Rest, L));
            Rest -= Gaps.back();
          }
          Gaps.push_back(L);
          Heap H;
          layoutGaps(H, Gaps, AtTop);
          FragmentationMetrics M = measureFragmentation(H);
          ASSERT_EQ(M.FreeWords, Free);
          ASSERT_EQ(M.LargestFreeBlock, L);
          SCOPED_TRACE("free " + std::to_string(Free) + " largest " +
                       std::to_string(L) + (AtTop ? " at top" : ""));
          expectPeakMatchesMeasure(H, Peak);
        }
      }
    }
}

TEST(Metrics, PeakSkipRuleDegenerateHeaps) {
  for (double Peak : {0.0, 0.5, 1.0}) {
    Heap Empty; // HWM = 0
    expectPeakMatchesMeasure(Empty, Peak);
    Heap Packed; // nothing free below the mark
    Packed.place(0, 5);
    Packed.place(5, 3);
    expectPeakMatchesMeasure(Packed, Peak);
    Heap Drained; // everything freed: one block, the whole footprint
    Drained.free(Drained.place(0, 9));
    expectPeakMatchesMeasure(Drained, Peak);
  }
}

TEST(Metrics, PeakSkipRuleAtAddrLimit) {
  // A footprint that ends at AddrLimit leaves no room above the mark, so
  // no fit of the threshold length need exist anywhere: two used words
  // split the free space into halves, and only peaks at or above the
  // halves' fragmentation may be answered without measuring.
  Heap H;
  H.place(AddrLimit / 2, 1);
  H.place(AddrLimit - 1, 1);
  ASSERT_EQ(H.stats().HighWaterMark, AddrLimit);
  for (double Peak : {0.0, 0.25, 0.4999, 0.5, 0.75, 1.0})
    expectPeakMatchesMeasure(H, Peak);
  // A block of nearly the whole free space below a mark at AddrLimit.
  Heap Top;
  Top.place(0, 1);
  Top.place(AddrLimit - 1, 1);
  for (double Peak : {0.0, 0.5, 1.0})
    expectPeakMatchesMeasure(Top, Peak);
}

} // namespace
