//===- tests/mm_test.cpp - Unit tests for src/mm -------------------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "adversary/CohenPetrankProgram.h"
#include "driver/Execution.h"
#include "mm/BuddyManager.h"
#include "mm/ChunkedManager.h"
#include "mm/CompactionLedger.h"
#include "mm/EvacuatingCompactor.h"
#include "mm/HybridManager.h"
#include "mm/ManagerFactory.h"
#include "mm/MeshingCompactor.h"
#include "mm/PagedSpaceManager.h"
#include "mm/SegregatedFitManager.h"
#include "mm/SequentialFitManagers.h"
#include "mm/SlidingCompactor.h"
#include "obs/Profiler.h"
#include "support/MathUtils.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace pcb;

namespace {

// --- CompactionLedger ----------------------------------------------------

TEST(CompactionLedger, BudgetTracksAllocations) {
  Heap H;
  CompactionLedger L(H, 10.0);
  EXPECT_EQ(L.budgetWords(), 0u);
  EXPECT_FALSE(L.canMove(1));
  H.place(0, 100);
  EXPECT_EQ(L.budgetWords(), 10u);
  EXPECT_TRUE(L.canMove(10));
  EXPECT_FALSE(L.canMove(11));
  EXPECT_TRUE(L.holds());
}

TEST(CompactionLedger, SpendingReducesRemaining) {
  Heap H;
  CompactionLedger L(H, 4.0);
  ObjectId A = H.place(0, 40);
  EXPECT_EQ(L.remainingWords(), 10u);
  H.move(A, 64); // 40 words moved: over budget
  EXPECT_EQ(L.remainingWords(), 0u);
  EXPECT_FALSE(L.holds()); // the ledger reports the violation
}

TEST(CompactionLedger, UnlimitedMode) {
  Heap H;
  CompactionLedger L(H, 0.0);
  EXPECT_TRUE(L.isUnlimited());
  EXPECT_TRUE(L.canMove(UINT64_MAX / 2));
  EXPECT_TRUE(L.holds());
}

TEST(CompactionLedger, BudgetFormulaIsExactPast2To53) {
  // double(2^53 + 1) rounds to 2^53; the integral-c path must not.
  const uint64_t S = (uint64_t(1) << 53) + 1;
  EXPECT_EQ(cPartialBudget(S, 1.0), S);
  EXPECT_EQ(cPartialBudget(S + 2, 2.0), (S + 2) / 2);
  EXPECT_EQ(cPartialBudget(S - 2, 3.0), (S - 2) / 3);
  EXPECT_EQ(cPartialBudget(100, 2.5), 40u);
  EXPECT_EQ(cPartialBudget(100, 0x1p70), 0u);
  EXPECT_EQ(cPartialBudget(100, 0.0), UINT64_MAX);
  // The ends of the accepted quota range: a quotient past 2^64 saturates
  // (converting it would be undefined), and c = inf allows no moves.
  EXPECT_EQ(cPartialBudget(100, 1e-300), UINT64_MAX);
  EXPECT_EQ(cPartialBudget(uint64_t(1) << 60, 0x1p-5), UINT64_MAX);
  EXPECT_EQ(cPartialBudget(100, HUGE_VAL), 0u);
}

// --- Placement policies --------------------------------------------------

TEST(FirstFit, ReusesLowestHole) {
  Heap H;
  FirstFitManager MM(H, 10.0);
  ObjectId A = MM.allocate(8);
  ObjectId B = MM.allocate(8);
  ObjectId C = MM.allocate(8);
  (void)C;
  EXPECT_EQ(H.object(A).Address, 0u);
  EXPECT_EQ(H.object(B).Address, 8u);
  MM.free(B);
  ObjectId D = MM.allocate(4);
  EXPECT_EQ(H.object(D).Address, 8u); // lowest hole, not the tail
}

TEST(BestFit, PrefersTightestHole) {
  Heap H;
  BestFitManager MM(H, 10.0);
  ObjectId A = MM.allocate(16);
  ObjectId Sep1 = MM.allocate(1);
  ObjectId B = MM.allocate(4);
  ObjectId Sep2 = MM.allocate(1);
  (void)Sep1;
  (void)Sep2;
  MM.free(A);
  MM.free(B);
  // A 4-word request fits both holes; best fit takes the 4-word one.
  ObjectId C = MM.allocate(4);
  EXPECT_EQ(H.object(C).Address, 17u);
}

TEST(WorstFit, PrefersLargestHoleBelowMark) {
  Heap H;
  WorstFitManager MM(H, 10.0);
  ObjectId A = MM.allocate(16);
  ObjectId Sep1 = MM.allocate(1);
  ObjectId B = MM.allocate(4);
  ObjectId Sep2 = MM.allocate(1);
  (void)Sep1;
  (void)Sep2;
  MM.free(A); // hole [0, 16)
  MM.free(B); // hole [17, 21)
  // Worst fit puts a 4-word request in the *big* hole.
  ObjectId C = MM.allocate(4);
  EXPECT_EQ(H.object(C).Address, 0u);
  // And falls back to the tail when nothing below the mark fits.
  ObjectId D = MM.allocate(64);
  EXPECT_EQ(H.object(D).Address, 22u);
}

TEST(NextFit, AdvancesCursor) {
  Heap H;
  NextFitManager MM(H, 10.0);
  ObjectId A = MM.allocate(8);
  ObjectId B = MM.allocate(8);
  MM.free(A);
  // Cursor sits after B; the hole at 0 is behind it.
  ObjectId C = MM.allocate(8);
  EXPECT_EQ(H.object(C).Address, 16u);
  MM.free(B);
  (void)B;
  // Request beyond the tail from cursor still succeeds.
  ObjectId D = MM.allocate(8);
  EXPECT_EQ(H.object(D).Address, 24u);
}

TEST(AlignedFit, AlignsToRoundedSize) {
  Heap H;
  AlignedFitManager MM(H, 10.0);
  ObjectId A = MM.allocate(3); // rounds to alignment 4
  ObjectId B = MM.allocate(8);
  EXPECT_EQ(H.object(A).Address % 4, 0u);
  EXPECT_EQ(H.object(B).Address % 8, 0u);
}

// The cursor lands inside the infinite tail block: the next request must
// be served from the cursor itself (the block containing the cursor
// counts from the cursor onward), not from the tail's start or a hole
// behind the cursor.
TEST(NextFit, CursorInsideTailBlockAllocatesAtCursor) {
  Heap H;
  NextFitManager MM(H, 10.0);
  ObjectId A = MM.allocate(8);
  ObjectId B = MM.allocate(8);
  MM.free(A); // hole [0, 8) behind the cursor; tail starts at 16
  MM.free(B);
  // The whole space is one free block [0, AddrLimit) again, and the
  // cursor sits at 16, strictly inside it.
  ASSERT_EQ(H.freeSpace().numBlocks(), 1u);
  ObjectId C = MM.allocate(4);
  EXPECT_EQ(H.object(C).Address, 16u);
  // The cursor keeps advancing through the tail rather than rewinding.
  ObjectId D = MM.allocate(4);
  EXPECT_EQ(H.object(D).Address, 20u);
}

// A cursor parked exactly at the start of the tail block is the
// wraparound boundary case: the fit query's "block containing From"
// probe and its "first block at or after From" scan meet at one address.
TEST(NextFit, CursorExactlyAtTailStart) {
  Heap H;
  NextFitManager MM(H, 10.0);
  ObjectId A = MM.allocate(8); // cursor = 8 = tail start
  (void)A;
  ObjectId B = MM.allocate(8);
  EXPECT_EQ(H.object(B).Address, 8u);
}

// Every finite hole is smaller than the request's alignment, so aligned
// fit must skip them all and place in the tail at the next aligned
// address — not in any unaligned-but-large-enough scrap.
TEST(AlignedFit, AlignmentLargerThanAnyFiniteHole) {
  Heap H;
  AlignedFitManager MM(H, 10.0);
  // Pin 1-word objects at every 4th address so the free space below the
  // frontier is eight 3-word holes at addresses 1 mod 4.
  for (Addr A = 0; A <= 32; A += 4)
    H.place(A, 1);
  // Request 16 -> alignment 16, larger than any finite hole: the
  // placement must come from the tail at the next 16-aligned address.
  ObjectId Big = MM.allocate(16);
  EXPECT_EQ(H.object(Big).Address, 48u);
  // A 3-word request (alignment 4) fits no hole either: each hole starts
  // at 1 mod 4 and is only 3 words deep, so its only 4-aligned address
  // is its one-past-the-end. The gap before Big serves it at 36.
  ObjectId Small = MM.allocate(3);
  EXPECT_EQ(H.object(Small).Address, 36u);
}

// --- Buddy ---------------------------------------------------------------

TEST(Buddy, SplitsAndCoalesces) {
  Heap H;
  BuddyManager MM(H, 10.0);
  ObjectId A = MM.allocate(4);
  ObjectId B = MM.allocate(4);
  EXPECT_EQ(H.object(A).Address, 0u);
  EXPECT_EQ(H.object(B).Address, 4u);
  MM.free(A);
  MM.free(B);
  // The pair coalesces: an 8-word request reuses the same block.
  ObjectId C = MM.allocate(8);
  EXPECT_EQ(H.object(C).Address, 0u);
}

TEST(Buddy, RoundsToPowerOfTwo) {
  Heap H;
  BuddyManager MM(H, 10.0);
  ObjectId A = MM.allocate(5); // occupies an 8-block
  EXPECT_EQ(MM.internalPaddingWords(), 3u);
  ObjectId B = MM.allocate(8);
  EXPECT_EQ(H.object(B).Address, 8u); // padding is not handed out
  MM.free(A);
  EXPECT_EQ(MM.internalPaddingWords(), 0u);
}

TEST(Buddy, BlockAlignment) {
  Heap H;
  BuddyManager MM(H, 10.0);
  MM.allocate(1);
  ObjectId B = MM.allocate(16);
  EXPECT_EQ(H.object(B).Address % 16, 0u);
}

// --- Segregated fit ------------------------------------------------------

TEST(SegregatedFit, ClassesDoNotMix) {
  Heap H;
  SegregatedFitManager MM(H, 10.0);
  ObjectId A = MM.allocate(4);
  ObjectId B = MM.allocate(8);
  MM.free(A);
  // The freed 4-slot must not serve an 8-request.
  ObjectId C = MM.allocate(8);
  EXPECT_NE(H.object(C).Address, H.object(A).Address);
  // But it does serve the next 4-request.
  ObjectId D = MM.allocate(4);
  EXPECT_EQ(H.object(D).Address, 0u);
  (void)B;
}

// --- Paged space -----------------------------------------------------------

TEST(PagedSpace, SlotsPackWithinOnePage) {
  Heap H;
  PagedSpaceManager::Options Opts;
  Opts.PageLog = 5; // 32-word pages
  PagedSpaceManager MM(H, 10.0, Opts);
  ObjectId A = MM.allocate(4);
  ObjectId B = MM.allocate(4);
  EXPECT_EQ(H.object(A).Address, 0u);
  EXPECT_EQ(H.object(B).Address, 4u);
  EXPECT_EQ(MM.numPages(), 1u);
}

TEST(PagedSpace, ClassesUseSeparatePages) {
  Heap H;
  PagedSpaceManager::Options Opts;
  Opts.PageLog = 5;
  PagedSpaceManager MM(H, 10.0, Opts);
  ObjectId A = MM.allocate(4);
  ObjectId B = MM.allocate(8);
  EXPECT_EQ(H.object(A).Address / 32, 0u);
  EXPECT_EQ(H.object(B).Address / 32, 1u);
}

TEST(PagedSpace, EmptyPagesRecycleAcrossClasses) {
  // The structural advantage over flat segregated fit: a page emptied of
  // 4-word objects serves 8-word objects next.
  Heap H;
  PagedSpaceManager::Options Opts;
  Opts.PageLog = 5;
  PagedSpaceManager MM(H, 10.0, Opts);
  std::vector<ObjectId> Small;
  for (int I = 0; I != 8; ++I)
    Small.push_back(MM.allocate(4)); // fills page 0
  for (ObjectId Id : Small)
    MM.free(Id); // page 0 empties and is recycled
  EXPECT_EQ(MM.numFreePages(), 1u);
  ObjectId Big = MM.allocate(8);
  EXPECT_EQ(H.object(Big).Address / 32, 0u) << "page 0 was not recycled";
}

TEST(PagedSpace, HumongousRunsAndTheirRelease) {
  Heap H;
  PagedSpaceManager::Options Opts;
  Opts.PageLog = 5;
  PagedSpaceManager MM(H, 10.0, Opts);
  ObjectId Big = MM.allocate(100); // 4 pages of 32
  EXPECT_EQ(H.object(Big).Address, 0u);
  EXPECT_EQ(MM.numPages(), 4u);
  // A small allocation goes after the run.
  ObjectId Small = MM.allocate(4);
  EXPECT_EQ(H.object(Small).Address / 32, 4u);
  MM.free(Big);
  EXPECT_EQ(MM.numFreePages(), 4u);
  // The freed run is reused for the next humongous request.
  ObjectId Big2 = MM.allocate(60);
  EXPECT_EQ(H.object(Big2).Address, 0u);
}

TEST(PagedSpace, EvacuationConsolidatesSparsePages) {
  Heap H;
  PagedSpaceManager::Options Opts;
  Opts.PageLog = 5;
  Opts.EvacuationThreshold = 0.5;
  PagedSpaceManager MM(H, 4.0, Opts); // generous budget
  // Two pages of 8-word slots, one survivor each.
  std::vector<ObjectId> Ids;
  for (int I = 0; I != 8; ++I)
    Ids.push_back(MM.allocate(8));
  for (int I = 0; I != 8; ++I)
    if (I != 0 && I != 4)
      MM.free(Ids[I]);
  ASSERT_EQ(MM.numFreePages(), 0u);
  // A 16-word request has no slot and no free page: evacuation must
  // consolidate the two quarter-full pages instead of growing the heap.
  uint64_t HwmBefore = H.stats().HighWaterMark;
  ObjectId Big = MM.allocate(16);
  EXPECT_GT(MM.numEvacuations(), 0u);
  EXPECT_LE(H.object(Big).end(), HwmBefore);
  EXPECT_TRUE(MM.ledger().holds());
}

TEST(PagedSpace, EvacuationRespectsBudget) {
  Heap H;
  PagedSpaceManager::Options Opts;
  Opts.PageLog = 5;
  Opts.EvacuationThreshold = 1.0;
  PagedSpaceManager MM(H, 1000.0, Opts); // almost no budget
  std::vector<ObjectId> Ids;
  for (int I = 0; I != 8; ++I)
    Ids.push_back(MM.allocate(8));
  for (int I = 0; I != 8; ++I)
    if (I % 4 != 0)
      MM.free(Ids[I]);
  MM.allocate(16);
  EXPECT_EQ(MM.numEvacuations(), 0u);
  EXPECT_EQ(H.stats().MovedWords, 0u);
}

// --- Evacuating compactor ------------------------------------------------

TEST(Evacuating, ReusesSparseChunkWithinBudget) {
  Heap H;
  EvacuatingCompactor::Options Opts;
  Opts.DensityThreshold = 0.5;
  Opts.MinEvacuationSize = 4;
  EvacuatingCompactor MM(H, 4.0, Opts); // generous budget: 1/4
  // Fill [0, 64) with 16 x 4-word objects, then free all but one per
  // 16-word chunk to build sparse chunks.
  std::vector<ObjectId> Ids;
  for (int I = 0; I != 16; ++I)
    Ids.push_back(MM.allocate(4));
  for (int I = 0; I != 16; ++I)
    if (I % 4 != 0)
      MM.free(Ids[I]);
  // Each 16-chunk holds 4 live words (density 1/4 <= 1/2). A 16-word
  // request should evacuate a chunk rather than extend past the mark...
  uint64_t HwmBefore = H.stats().HighWaterMark;
  ObjectId Big = MM.allocate(16);
  EXPECT_LT(H.object(Big).Address, HwmBefore);
  EXPECT_GT(MM.numEvacuations(), 0u);
  EXPECT_GT(H.stats().MovedWords, 0u);
  EXPECT_TRUE(MM.ledger().holds());
}

TEST(Evacuating, RespectsBudget) {
  Heap H;
  EvacuatingCompactor::Options Opts;
  Opts.DensityThreshold = 1.0;
  Opts.MinEvacuationSize = 4;
  EvacuatingCompactor MM(H, 1000.0, Opts); // nearly no budget
  std::vector<ObjectId> Ids;
  for (int I = 0; I != 16; ++I)
    Ids.push_back(MM.allocate(4));
  for (int I = 0; I != 16; ++I)
    if (I % 2 != 0)
      MM.free(Ids[I]);
  // Budget is 64/1000 = 0 words; no evacuation may happen.
  MM.allocate(16);
  EXPECT_EQ(H.stats().MovedWords, 0u);
  EXPECT_TRUE(MM.ledger().holds());
}

// --- Hybrid: slot bookkeeping across evacuation ----------------------------

TEST(Hybrid, EvacuationSplitsContainingFreeSlot) {
  // The hardest bookkeeping path: evacuating a sparse chunk frees the
  // big slot that *contains* it; the manager must buddy-split that slot
  // so later allocations of other classes reuse the complement without
  // overlapping the cleared chunk.
  Heap H;
  HybridManager::Options Opts;
  Opts.DensityThreshold = 0.5;
  Opts.MinEvacuationSize = 4;
  HybridManager MM(H, 2.0, Opts);
  // Fund the compaction budget.
  for (int I = 0; I != 4; ++I)
    MM.free(MM.allocate(16));
  // A 9-word object in a 16-word class-4 slot: the slot's third 4-chunk
  // holds a single live word.
  ObjectId A = MM.allocate(9);
  Addr OldAddr = H.object(A).Address;
  // A class-2 slot miss triggers evacuation of that sparse chunk.
  ObjectId B = MM.allocate(4);
  EXPECT_GT(MM.numEvacuations(), 0u);
  EXPECT_NE(H.object(A).Address, OldAddr);
  EXPECT_TRUE(MM.ledger().holds());
  ASSERT_TRUE(H.checkConsistency());
  // The split slot's complement serves other classes cleanly.
  ObjectId C = MM.allocate(8);
  ObjectId D = MM.allocate(4);
  EXPECT_TRUE(H.isLive(B));
  EXPECT_TRUE(H.isLive(C));
  EXPECT_TRUE(H.isLive(D));
  ASSERT_TRUE(H.checkConsistency());
}

TEST(Hybrid, DeniedEvacuationReturnsItsSlot) {
  // The slot an evacuation takes for an object whose move is then denied
  // must go back to its free list, or the heap leaks that slot.
  Heap H;
  HybridManager::Options Opts;
  Opts.DensityThreshold = 0.5;
  Opts.MinEvacuationSize = 4;
  HybridManager MM(H, 2.0, Opts);
  for (int I = 0; I != 4; ++I)
    MM.free(MM.allocate(16));
  ObjectId A = MM.allocate(9);
  ASSERT_EQ(H.object(A).Address, 0u);
  // The class-2 miss picks the sparse chunk [8, 12) and takes the fresh
  // class-4 slot at 16 for the 9-word object; the gate denies the move.
  MM.setSpendGate([] { return false; });
  ObjectId B = MM.allocate(4);
  EXPECT_EQ(MM.numEvacuations(), 0u);
  EXPECT_EQ(H.object(A).Address, 0u);
  EXPECT_EQ(H.object(B).Address, 32u);
  // The denied move's slot is reused, not leaked below a new carve at 48.
  ObjectId C = MM.allocate(16);
  EXPECT_EQ(H.object(C).Address, 16u);
  ASSERT_TRUE(H.checkConsistency());
}

// --- Sliding compactor ---------------------------------------------------

TEST(Sliding, UnlimitedPacksPerfectly) {
  Heap H;
  SlidingCompactor MM(H, 0.0); // unlimited budget
  std::vector<ObjectId> Ids;
  for (int I = 0; I != 8; ++I)
    Ids.push_back(MM.allocate(8));
  for (int I = 0; I != 8; I += 2)
    MM.free(Ids[I]);
  // 32 live words in [0, 64) with holes; a 32-word request compacts and
  // fits below the old mark.
  ObjectId Big = MM.allocate(32);
  EXPECT_LE(H.object(Big).end(), 64u);
  EXPECT_EQ(MM.numCompactions(), 1u);
  EXPECT_EQ(H.stats().HighWaterMark, 64u);
}

TEST(Sliding, PreservesAddressOrder) {
  Heap H;
  SlidingCompactor MM(H, 0.0);
  ObjectId P = MM.allocate(6);
  ObjectId Q = MM.allocate(6);
  ObjectId R = MM.allocate(6);
  ObjectId S = MM.allocate(6);
  MM.free(Q);
  MM.free(S);
  // Two 6-word holes; a 10-word request cannot use either, but 12 free
  // words sit below the mark, so the manager slides.
  MM.allocate(10);
  EXPECT_EQ(MM.numCompactions(), 1u);
  EXPECT_EQ(H.object(P).Address, 0u);
  EXPECT_EQ(H.object(R).Address, 6u); // Lisp-2 order preserved
}

TEST(Sliding, FiniteBudgetStopsCompacting) {
  Heap H;
  SlidingCompactor MM(H, 1000000.0);
  std::vector<ObjectId> Ids;
  for (int I = 0; I != 8; ++I)
    Ids.push_back(MM.allocate(8));
  for (int I = 0; I != 8; I += 2)
    MM.free(Ids[I]);
  uint64_t Hwm = H.stats().HighWaterMark;
  ObjectId Big = MM.allocate(32);
  // No budget: the request must extend the heap instead.
  EXPECT_GE(H.object(Big).Address, Hwm);
  EXPECT_TRUE(MM.ledger().holds());
}

TEST(Buddy, SplitChainFromLargeBlock) {
  Heap H;
  BuddyManager MM(H, 10.0);
  ObjectId Big = MM.allocate(32);
  MM.free(Big);
  // A 1-word request splits the 32-block down to order 0 at address 0 and
  // leaves buddies at 1, 2, 4, 8, 16.
  ObjectId Tiny = MM.allocate(1);
  EXPECT_EQ(H.object(Tiny).Address, 0u);
  EXPECT_EQ(H.object(MM.allocate(2)).Address, 2u);
  EXPECT_EQ(H.object(MM.allocate(4)).Address, 4u);
  EXPECT_EQ(H.object(MM.allocate(1)).Address, 1u);
}

TEST(PagedSpace, HumongousRunSpansFrontierGap) {
  // A humongous request larger than any free-page run must extend the
  // frontier even when scattered free pages exist.
  Heap H;
  PagedSpaceManager::Options Opts;
  Opts.PageLog = 5;
  PagedSpaceManager MM(H, 10.0, Opts);
  ObjectId A = MM.allocate(4);  // page 0
  ObjectId B = MM.allocate(32); // page 1 (full page slot)
  ObjectId C = MM.allocate(32); // page 2
  MM.free(B);                   // free page 1, isolated
  ASSERT_EQ(MM.numFreePages(), 1u);
  ObjectId Big = MM.allocate(64); // needs 2 consecutive pages
  EXPECT_EQ(H.object(Big).Address, 3u * 32u) << "must start a fresh run";
  (void)A;
  (void)C;
  EXPECT_TRUE(H.checkConsistency());
}

// --- Move callback plumbing ----------------------------------------------

TEST(MoveCallback, ImmediateFreeOnMove) {
  Heap H;
  EvacuatingCompactor::Options Opts;
  Opts.DensityThreshold = 1.0;
  Opts.MinEvacuationSize = 4;
  EvacuatingCompactor MM(H, 2.0, Opts);
  std::vector<std::pair<Addr, Addr>> Moves;
  MM.setMoveCallback([&](ObjectId, Addr From, Addr To) {
    Moves.emplace_back(From, To);
    return true; // adversary behaviour: free it immediately
  });
  std::vector<ObjectId> Ids;
  for (int I = 0; I != 8; ++I)
    Ids.push_back(MM.allocate(4));
  for (int I = 1; I != 8; ++I)
    MM.free(Ids[I]);
  // One 4-word object left in [0, 32); a 32-word request evacuates it,
  // and the callback frees it mid-flight.
  MM.allocate(32);
  ASSERT_EQ(Moves.size(), 1u);
  EXPECT_FALSE(H.isLive(Ids[0]));
  EXPECT_TRUE(MM.ledger().holds());
}

// --- Chunked manager: counters, triggers, humongous runs ------------------

TEST(Chunked, BumpsWithinChunksWithoutStraddling) {
  Heap H;
  ChunkedManager::Options Opts;
  Opts.ChunkLog = 4; // 16-word chunks
  ChunkedManager MM(H, 10.0, Opts);
  ObjectId A = MM.allocate(6);
  ObjectId B = MM.allocate(6);
  // 4 words remain in chunk 0: a 6-word request must retire it and open
  // chunk 1 rather than straddle the boundary.
  ObjectId C = MM.allocate(6);
  EXPECT_EQ(H.object(A).Address, 0u);
  EXPECT_EQ(H.object(B).Address, 6u);
  EXPECT_EQ(H.object(C).Address, 16u);
  EXPECT_EQ(MM.countersAt(0).Bump, 12u);
  EXPECT_EQ(MM.countersAt(16).Bump, 6u);
  EXPECT_EQ(MM.countersAt(0).Freed, 0u);
  EXPECT_TRUE(H.checkConsistency());
}

TEST(Chunked, FreedCounterSaturatesAndRecyclesWithoutMoves) {
  // Counter saturation: Freed climbing all the way to Bump must release
  // the chunk (garbage collection for free — no moved words) and reset
  // both counters for its next cycle.
  Heap H;
  ChunkedManager::Options Opts;
  Opts.ChunkLog = 4;
  ChunkedManager MM(H, 10.0, Opts);
  std::vector<ObjectId> Ids;
  for (int I = 0; I != 4; ++I)
    Ids.push_back(MM.allocate(4)); // fills chunk 0 exactly
  MM.allocate(1);                  // retires chunk 0, opens chunk 1
  EXPECT_EQ(MM.countersAt(0).Bump, 16u);
  for (ObjectId Id : Ids)
    MM.free(Id);
  // Freed == Bump: released on the last free, counters back to zero, and
  // the transient trigger (Freed crossed the threshold mid-way) is gone.
  EXPECT_EQ(MM.numFreeChunks(), 1u);
  EXPECT_EQ(MM.numPendingTriggers(), 0u);
  EXPECT_EQ(MM.countersAt(0).Bump, 0u);
  EXPECT_EQ(MM.countersAt(0).Freed, 0u);
  EXPECT_EQ(H.stats().MovedWords, 0u);
  // The recycled chunk is the next one opened (lowest-first).
  ObjectId Reuse = MM.allocate(16);
  EXPECT_EQ(H.object(Reuse).Address, 0u);
  EXPECT_EQ(H.stats().MovedWords, 0u);
  EXPECT_TRUE(H.checkConsistency());
}

TEST(Chunked, TriggerFiresExactlyAtTheGarbageShareBoundary) {
  // The trigger rule is inclusive: freed words == threshold * chunk size
  // queues the chunk; one word short does not.
  Heap H;
  ChunkedManager::Options Opts;
  Opts.ChunkLog = 4;            // 16-word chunks
  Opts.GarbageThreshold = 0.5;  // boundary at exactly 8 freed words
  ChunkedManager MM(H, 2.0, Opts);
  std::vector<ObjectId> Ids;
  for (int I = 0; I != 16; ++I)
    Ids.push_back(MM.allocate(1));
  MM.allocate(1); // retires chunk 0
  for (int I = 0; I != 7; ++I)
    MM.free(Ids[I]);
  EXPECT_EQ(MM.numPendingTriggers(), 0u) << "7/16 < 0.5 must not trigger";
  MM.free(Ids[7]);
  EXPECT_EQ(MM.numPendingTriggers(), 1u) << "8/16 == 0.5 must trigger";
  // The next allocation drains the queue: 8 survivors move, within the
  // budget floor(17/2) = 8.
  MM.allocate(1);
  EXPECT_EQ(MM.numChunkEvacuations(), 1u);
  EXPECT_EQ(MM.numPendingTriggers(), 0u);
  EXPECT_EQ(H.stats().MovedWords, 8u);
  EXPECT_GE(MM.numFreeChunks(), 1u);
  EXPECT_TRUE(MM.ledger().holds());
  EXPECT_TRUE(H.checkConsistency());
}

TEST(Chunked, HumongousRunsDedicateChunksAndRecycle) {
  Heap H;
  ChunkedManager::Options Opts;
  Opts.ChunkLog = 4;
  ChunkedManager MM(H, 10.0, Opts);
  ObjectId Big = MM.allocate(40); // 3 dedicated chunks
  EXPECT_EQ(H.object(Big).Address, 0u);
  MM.free(Big);
  EXPECT_EQ(MM.numFreeChunks(), 3u);
  // A small allocation reuses the lowest recycled chunk; a second
  // humongous request no longer finds 3 consecutive free chunks and must
  // take a fresh run at the frontier.
  ObjectId Small = MM.allocate(4);
  EXPECT_EQ(H.object(Small).Address, 0u);
  ObjectId Big2 = MM.allocate(40);
  EXPECT_EQ(H.object(Big2).Address, 48u);
  EXPECT_EQ(H.stats().MovedWords, 0u) << "humongous runs are never moved";
  EXPECT_TRUE(H.checkConsistency());
}

TEST(Chunked, BudgetDeniedTriggerWaitsForTheBudgetToGrow) {
  Heap H;
  ChunkedManager::Options Opts;
  Opts.ChunkLog = 4;
  ChunkedManager MM(H, 1000.0, Opts); // budget: 1 word per 1000 allocated
  std::vector<ObjectId> Ids;
  for (int I = 0; I != 16; ++I)
    Ids.push_back(MM.allocate(1));
  MM.allocate(1); // retires chunk 0
  for (int I = 0; I != 8; ++I)
    MM.free(Ids[I]);
  ASSERT_EQ(MM.numPendingTriggers(), 1u);
  // Draining needs 8 words of budget; floor(18/1000) = 0. The trigger
  // must stay queued, untouched, not half-evacuated.
  MM.free(MM.allocate(1));
  EXPECT_EQ(MM.numChunkEvacuations(), 0u);
  EXPECT_EQ(H.stats().MovedWords, 0u);
  EXPECT_EQ(MM.numPendingTriggers(), 1u);
  // Churn until the budget covers the survivors, then the queued chunk
  // finally drains.
  for (int I = 0; I != 520; ++I)
    MM.free(MM.allocate(16));
  EXPECT_EQ(MM.numChunkEvacuations(), 1u);
  EXPECT_EQ(MM.numPendingTriggers(), 0u);
  EXPECT_EQ(H.stats().MovedWords, 8u);
  EXPECT_TRUE(MM.ledger().holds());
  EXPECT_TRUE(H.checkConsistency());
}

// --- Meshing compactor: probes, merges, edge addresses --------------------

TEST(Meshing, MergesDisjointChunksInsteadOfGrowing) {
  Heap H;
  MeshingCompactor MM(H, 4.0); // budget floor(128/4) = 32: exactly one merge
  // Two 64-word chunks of 8 x 8-word slots; free chunk 0's odd slots and
  // chunk 1's even slots so their occupancies interleave disjointly.
  std::vector<ObjectId> Ids;
  for (int I = 0; I != 16; ++I)
    Ids.push_back(MM.allocate(8));
  for (int I = 1; I < 8; I += 2)
    MM.free(Ids[I]);
  for (int I = 8; I < 16; I += 2)
    MM.free(Ids[I]);
  // Largest hole is 8 words: a 24-word request must mesh, not extend.
  ObjectId Big = MM.allocate(24);
  EXPECT_EQ(MM.numMerges(), 1u);
  EXPECT_EQ(H.stats().MovedWords, 32u) << "exactly the source chunk popcount";
  EXPECT_EQ(H.stats().HighWaterMark, 128u) << "the merge freed chunk 0";
  EXPECT_LT(H.object(Big).Address, 128u);
  EXPECT_TRUE(MM.ledger().holds());
  EXPECT_TRUE(H.checkConsistency());
}

TEST(Meshing, FruitlessPassIsCachedUntilTheHeapChanges) {
  Heap H;
  MeshingCompactor MM(H, 4.0);
  // Three chunks, each live only at offset [0, 8): every pair collides.
  std::vector<ObjectId> Keep, Fill;
  for (int I = 0; I != 3; ++I) {
    Keep.push_back(MM.allocate(8));
    Fill.push_back(MM.allocate(56));
  }
  for (ObjectId Id : Fill)
    MM.free(Id);
  EXPECT_FALSE(MM.meshPass());
  EXPECT_EQ(MM.numProbes(), 3u) << "3 candidate pairs, all colliding";
  // Nothing changed: the pass must short-circuit without re-probing.
  EXPECT_FALSE(MM.meshPass());
  EXPECT_EQ(MM.numProbes(), 3u);
  // A free invalidates the cache; the next pass scans again.
  MM.free(Keep[2]);
  MM.allocate(8); // first fit: lands at 8, thickening chunk 0
  EXPECT_FALSE(MM.meshPass());
  EXPECT_EQ(MM.numProbes(), 4u) << "one surviving pair, re-probed";
}

TEST(Meshing, MergeTargetLandingAtAddrLimit) {
  // A merge whose destination offset pushes an object flush against the
  // end of the address space must still account and move correctly.
  Heap H;
  MeshingCompactor MM(H, 1.0);
  const uint64_t SrcIndex = (AddrLimit - 128) / 64;
  ObjectId Src = H.place(AddrLimit - 72, 8); // source chunk, offset 56
  H.place(AddrLimit - 64, 8);                // destination chunk, offset 0
  MM.mergeChunks(SrcIndex, SrcIndex + 1);
  EXPECT_EQ(H.object(Src).Address, AddrLimit - 8)
      << "moved object must end exactly at AddrLimit";
  EXPECT_EQ(H.usedWordsIn(AddrLimit - 128, 64), 0u);
  EXPECT_EQ(MM.numMerges(), 1u);
  EXPECT_EQ(H.stats().MovedWords, 8u);
  EXPECT_TRUE(MM.ledger().holds());
  EXPECT_TRUE(H.checkConsistency());
}

TEST(MeshingDeathTest, DoubleMergeOfTheSamePairDies) {
  // After a merge the source chunk is empty; meshing the same pair again
  // is a policy bug the assertions must catch, not a silent no-op.
  Heap H;
  MeshingCompactor MM(H, 1.0);
  H.place(0, 8);      // chunk 0, offset 0
  H.place(64 + 8, 8); // chunk 1, offset 8: disjoint
  MM.mergeChunks(0, 1);
  ASSERT_EQ(H.usedWordsIn(0, 64), 0u);
  EXPECT_DEATH(MM.mergeChunks(0, 1), "meshing an empty source chunk");
}

// --- One fit search per placement -----------------------------------------

/// A manager whose placements are tallied: how many moved nothing, how
/// many of those also ran a compaction pass, and how many of those ran
/// other than exactly one fit query.
template <typename Base> class PlacementTally : public Base {
public:
  using Base::Base;
  uint64_t Still = 0;
  uint64_t StillAfterCompaction = 0;
  uint64_t StillNotOneQuery = 0;

protected:
  Addr placeFor(uint64_t Size) override {
    const Profiler &P = *Profiler::current();
    uint64_t Queries = P.counter(Profiler::CtrFitQueries);
    uint64_t Passes = P.counter(Profiler::CtrCompactionPasses);
    uint64_t Moves = this->heap().stats().NumMoves;
    Addr A = Base::placeFor(Size);
    if (this->heap().stats().NumMoves == Moves) {
      ++Still;
      StillAfterCompaction +=
          P.counter(Profiler::CtrCompactionPasses) != Passes;
      StillNotOneQuery += P.counter(Profiler::CtrFitQueries) - Queries != 1;
    }
    return A;
  }
};

/// Runs PF (M = 2^12) against \p ManagerT with quota \p C: every
/// allocation that moved nothing must have run exactly one fit query,
/// including those whose compaction attempt came to nothing (which PF
/// provokes on every c-partial manager; an unlimited slide always moves).
template <typename ManagerT> void expectOneFitSearchPerPlacement(double C) {
  Profiler Prof;
  ProfilerScope Scope(Prof);
  Heap H;
  PlacementTally<ManagerT> MM(H, C);
  const uint64_t M = pow2(12);
  CohenPetrankProgram PF(M, pow2(7), 10.0);
  Execution(MM, PF, M).run();
  EXPECT_GT(MM.Still, 0u);
  if (C > 0) {
    EXPECT_GT(MM.StillAfterCompaction, 0u) << "no fruitless compaction ran";
  }
  EXPECT_EQ(MM.StillNotOneQuery, 0u)
      << "of " << MM.Still << " placements that moved nothing";
}

TEST(OneFitSearch, Evacuating) {
  expectOneFitSearchPerPlacement<EvacuatingCompactor>(10.0);
}

TEST(OneFitSearch, Meshing) {
  expectOneFitSearchPerPlacement<MeshingCompactor>(10.0);
}

TEST(OneFitSearch, Sliding) {
  expectOneFitSearchPerPlacement<SlidingCompactor>(10.0);
}

TEST(OneFitSearch, SlidingUnlimited) {
  expectOneFitSearchPerPlacement<SlidingCompactor>(0.0);
}

// --- Property sweep across all managers ----------------------------------

struct ChurnCase {
  const char *Policy;
  uint64_t Seed;
};

class ManagerChurn : public ::testing::TestWithParam<ChurnCase> {};

TEST_P(ManagerChurn, RandomWorkloadInvariants) {
  ChurnCase Case = GetParam();
  Heap H;
  auto MM = createManager(Case.Policy, H, 20.0, /*LiveBound=*/pow2(14));
  ASSERT_NE(MM, nullptr);
  MM->setMoveCallback([](ObjectId, Addr, Addr) { return false; });

  Rng R(Case.Seed);
  std::vector<ObjectId> Live;
  uint64_t ExpectedLiveWords = 0;
  for (int Op = 0; Op != 4000; ++Op) {
    if (Live.empty() || R.nextBool(0.55)) {
      uint64_t Size = uint64_t(1) << R.nextBelow(7);
      if (R.nextBool(0.3))
        Size += R.nextBelow(Size); // non-power-of-two sizes too
      ObjectId Id = MM->allocate(Size);
      ASSERT_TRUE(H.isLive(Id));
      ExpectedLiveWords += H.object(Id).Size;
      Live.push_back(Id);
    } else {
      size_t Pick = size_t(R.nextBelow(Live.size()));
      ObjectId Id = Live[Pick];
      Live[Pick] = Live.back();
      Live.pop_back();
      if (!H.isLive(Id))
        continue;
      ExpectedLiveWords -= H.object(Id).Size;
      MM->free(Id);
    }
    ASSERT_EQ(H.stats().LiveWords, ExpectedLiveWords);
    ASSERT_TRUE(MM->ledger().holds()) << "budget breached by "
                                      << Case.Policy;
  }
  // No two live objects overlap: total live words fit in the footprint.
  EXPECT_LE(H.stats().LiveWords, H.stats().HighWaterMark);
  // Address-ordered live objects are pairwise disjoint.
  std::vector<ObjectId> Sorted = H.liveObjects();
  for (size_t I = 1; I < Sorted.size(); ++I)
    ASSERT_LE(H.object(Sorted[I - 1]).end(), H.object(Sorted[I]).Address);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ManagerChurn,
    ::testing::Values(ChurnCase{"first-fit", 1}, ChurnCase{"best-fit", 2},
                      ChurnCase{"next-fit", 3}, ChurnCase{"aligned-fit", 4},
                      ChurnCase{"worst-fit", 12},
                      ChurnCase{"buddy", 5}, ChurnCase{"segregated-fit", 6},
                      ChurnCase{"evacuating", 7}, ChurnCase{"hybrid", 8},
                      ChurnCase{"sliding", 9},
                      ChurnCase{"sliding-unlimited", 10},
                      ChurnCase{"bump-compactor", 11},
                      ChurnCase{"paged-space", 13},
                      ChurnCase{"chunked", 14}, ChurnCase{"meshing", 15}),
    [](const ::testing::TestParamInfo<ChurnCase> &Info) {
      std::string Name = Info.param.Policy;
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

TEST(ManagerFactory, KnowsAllPolicies) {
  Heap H;
  for (const std::string &Policy : allManagerPolicies()) {
    auto MM = createManager(Policy, H, 10.0, /*LiveBound=*/1024);
    ASSERT_NE(MM, nullptr) << Policy;
    if (Policy == "sliding-unlimited")
      EXPECT_EQ(MM->name(), "sliding-unlimited");
    else
      EXPECT_EQ(MM->name(), Policy);
  }
  EXPECT_EQ(createManager("no-such-policy", H, 10.0), nullptr);
  // The bump compactor needs the program's live bound.
  EXPECT_EQ(createManager("bump-compactor", H, 10.0), nullptr);
}

TEST(ManagerFactory, UnknownPolicyFailsWithTheFullPolicyList) {
  // Regression test: an unknown policy must fail loudly, naming every
  // valid policy — not fall back to a default manager or an opaque null.
  Heap H;
  std::string Error;
  EXPECT_EQ(createManagerChecked("no-such-policy", H, 10.0, 0, &Error),
            nullptr);
  EXPECT_NE(Error.find("unknown policy 'no-such-policy'"),
            std::string::npos)
      << Error;
  for (const std::string &Policy : allManagerPolicies())
    EXPECT_NE(Error.find(Policy), std::string::npos)
        << "error message omits valid policy '" << Policy << "': " << Error;
  EXPECT_EQ(Error.find("requires a live bound"), std::string::npos)
      << "unknown-name failure must not reuse the bump-compactor message";
}

TEST(ManagerFactory, NewFamilyPoliciesAreListedInErrorPaths) {
  // Regression test for the chunked/meshing rollout: a near-miss name
  // must list the new policies among the valid ones, and both must
  // create without a live bound (unlike bump-compactor).
  Heap H;
  std::string Error;
  EXPECT_EQ(createManagerChecked("chunkd", H, 10.0, 0, &Error), nullptr);
  EXPECT_NE(Error.find("unknown policy 'chunkd'"), std::string::npos)
      << Error;
  EXPECT_NE(Error.find("chunked"), std::string::npos) << Error;
  EXPECT_NE(Error.find("meshing"), std::string::npos) << Error;
  Error.clear();
  auto Chunked = createManagerChecked("chunked", H, 10.0, 0, &Error);
  ASSERT_NE(Chunked, nullptr) << Error;
  EXPECT_EQ(Chunked->name(), "chunked");
  Heap H2;
  auto Meshing = createManagerChecked("meshing", H2, 10.0, 0, &Error);
  ASSERT_NE(Meshing, nullptr) << Error;
  EXPECT_EQ(Meshing->name(), "meshing");
  EXPECT_TRUE(Error.empty()) << Error;
}

TEST(ManagerFactory, BumpCompactorWithoutLiveBoundGetsItsOwnDiagnosis) {
  // A *known* policy failing for a missing parameter must not be
  // reported as unknown.
  Heap H;
  std::string Error;
  EXPECT_EQ(createManagerChecked("bump-compactor", H, 10.0, 0, &Error),
            nullptr);
  EXPECT_NE(Error.find("bump-compactor"), std::string::npos) << Error;
  EXPECT_NE(Error.find("requires a live bound"), std::string::npos)
      << Error;
  EXPECT_EQ(Error.find("unknown policy"), std::string::npos) << Error;
  // With the bound supplied the same call succeeds and leaves no stale
  // error behind.
  Error.clear();
  EXPECT_NE(createManagerChecked("bump-compactor", H, 10.0, 1024, &Error),
            nullptr);
  EXPECT_TRUE(Error.empty()) << Error;
}

TEST(ManagerFactory, CheckedSuccessMatchesUnchecked) {
  for (const std::string &Policy : allManagerPolicies()) {
    Heap H;
    std::string Error;
    auto MM = createManagerChecked(Policy, H, 10.0, 1024, &Error);
    ASSERT_NE(MM, nullptr) << Policy << ": " << Error;
    EXPECT_TRUE(Error.empty()) << Policy << ": " << Error;
  }
  // The list used in error messages covers exactly the factory's names.
  std::string List = managerPolicyList();
  for (const std::string &Policy : allManagerPolicies())
    EXPECT_NE(List.find(Policy), std::string::npos) << List;
}

} // namespace
