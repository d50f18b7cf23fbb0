//===- tests/service_test.cpp - Fleet service-layer gauntlet -------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// The service layer's conformance gauntlet: the fleet report must be
// byte-identical across thread counts and slice sizes (the determinism
// contract work-stealing rests on), session schedules must be pure
// functions of (fleet seed, global id), the edge configurations (empty
// fleet, one arena, ragged striping, batch-size boundaries) must drain
// cleanly, and a fault planted in one arena's event stream via the
// LogTap port must be detected and attributed to that arena alone —
// sibling shards' stats, masks, ledgers, and timelines stay untouched.
//
//===----------------------------------------------------------------------===//

#include "service/ServiceFleet.h"

#include "heap/Metrics.h"
#include "service/SessionWorkload.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace pcb;

namespace {

/// The small audited fleet most tests run: big enough to exercise
/// admission churn, multiple flush boundaries, and the oracle's deep
/// checks; small enough to stay milliseconds.
FleetOptions smallFleet() {
  FleetOptions FO;
  FO.NumArenas = 3;
  FO.NumSessions = 48;
  FO.Threads = 1;
  FO.SliceFlushes = 4;
  FO.Shard.Policy = "evacuating";
  FO.Shard.C = 50.0;
  FO.Shard.BatchSize = 8;
  FO.Shard.MaxResident = 4;
  FO.Shard.SampleEverySessions = 4;
  FO.Shard.Audit = true;
  FO.Shard.DeepCheckEvery = 8;
  FO.Shard.Session.FleetSeed = 7;
  FO.Shard.Session.TargetOps = 32;
  FO.Shard.Session.LiveBound = 256;
  FO.Shard.Session.MaxLogSize = 5;
  return FO;
}

/// Runs a fleet and renders both report forms, concatenated — the byte
/// string the determinism tests compare.
std::string runAndRender(const FleetOptions &FO) {
  ServiceFleet Fleet(FO);
  Fleet.run();
  FleetReport R = Fleet.report();
  std::ostringstream OS;
  R.printText(OS);
  R.printJson(OS);
  R.FleetTimeline.printCsv(OS);
  return OS.str();
}

/// Everything deterministic about one drained shard, as a comparable
/// byte string (stats, masks, ledger, violations, timeline).
std::string shardFingerprint(const ArenaShard &S) {
  std::ostringstream OS;
  const HeapStats &St = S.heap().stats();
  OS << "retired=" << S.sessionsRetired() << " flushes=" << S.flushes()
     << " ops=" << S.opsApplied() << " hs=" << St.HighWaterMark
     << " live=" << St.LiveWords << " alloc=" << St.TotalAllocatedWords
     << " moved=" << St.MovedWords << " allocs=" << St.NumAllocations
     << " frees=" << St.NumFrees << " moves=" << St.NumMoves
     << " occ=" << S.heap().occupancyMask(64)
     << " starts=" << S.heap().objectStartMask(64);
  const CompactionLedger &L = S.manager().ledger();
  OS << " budget=" << (L.isUnlimited() ? 0 : L.budgetWords());
  OS << " violations=" << S.violations().size();
  for (const Violation &V : S.violations())
    OS << " [" << V.describe() << "]";
  OS << "\n";
  S.timeline().printCsv(OS);
  return OS.str();
}

// --- Session workload purity ---------------------------------------------

TEST(SessionWorkload, SeedSplitsIndependentlyOfOrder) {
  // splitSeed discipline: a session's seed depends only on (fleet seed,
  // global id), and distinct ids get distinct streams.
  EXPECT_EQ(sessionSeed(7, 41), sessionSeed(7, 41));
  EXPECT_NE(sessionSeed(7, 41), sessionSeed(7, 42));
  EXPECT_NE(sessionSeed(7, 41), sessionSeed(8, 41));
}

TEST(SessionWorkload, PatternCyclesThroughDirectFamilies) {
  // Five direct patterns, cycled by id: ids 0 and 5 share one, 0..4 are
  // all distinct.
  EXPECT_EQ(sessionPattern(0), sessionPattern(5));
  for (uint64_t A = 0; A != 5; ++A)
    for (uint64_t B = A + 1; B != 5; ++B)
      EXPECT_NE(sessionPattern(A), sessionPattern(B))
          << "ids " << A << " and " << B;
}

TEST(SessionWorkload, TraceIsStableUnderGenerationOrderPermutation) {
  SessionParams P;
  P.FleetSeed = 7;
  P.TargetOps = 24;
  P.LiveBound = 128;
  P.MaxLogSize = 4;
  // Materialize ids forward, then backward; each id's trace must be
  // byte-identical — generation holds no hidden cross-session state.
  std::vector<std::vector<TraceOp>> Forward, Backward(10);
  for (uint64_t Id = 0; Id != 10; ++Id)
    Forward.push_back(generateSessionTrace(P, Id));
  for (uint64_t Id = 10; Id-- != 0;)
    Backward[size_t(Id)] = generateSessionTrace(P, Id);
  for (uint64_t Id = 0; Id != 10; ++Id) {
    ASSERT_EQ(Forward[size_t(Id)].size(), Backward[size_t(Id)].size());
    for (size_t I = 0; I != Forward[size_t(Id)].size(); ++I) {
      EXPECT_EQ(Forward[size_t(Id)][I].Op, Backward[size_t(Id)][I].Op);
      EXPECT_EQ(Forward[size_t(Id)][I].Value, Backward[size_t(Id)][I].Value);
    }
  }
}

TEST(SessionWorkload, TeardownFreesEveryAllocation) {
  SessionParams P;
  P.FleetSeed = 3;
  P.TargetOps = 40;
  for (uint64_t Id = 0; Id != 8; ++Id) {
    std::vector<TraceOp> Ops = generateSessionTrace(P, Id);
    uint64_t Allocs = 0, Frees = 0;
    for (const TraceOp &Op : Ops)
      (Op.Op == TraceOp::Kind::Alloc ? Allocs : Frees) += 1;
    EXPECT_EQ(Allocs, Frees) << "session " << Id
                             << " retires with live objects";
  }
}

// --- Determinism across threads and slices -------------------------------

TEST(ServiceFleet, ReportByteIdenticalAtThreads1248) {
  FleetOptions FO = smallFleet();
  FO.Threads = 1;
  std::string Reference = runAndRender(FO);
  for (unsigned Threads : {2u, 4u, 8u}) {
    FleetOptions Parallel = FO;
    Parallel.Threads = Threads;
    EXPECT_EQ(Reference, runAndRender(Parallel))
        << "report diverged at threads=" << Threads;
  }
}

TEST(ServiceFleet, ReportByteIdenticalAcrossSliceSizes) {
  // The scheduler quantum bounds progress per acquisition, nothing else:
  // single-flush slices and one giant slice must render identically.
  FleetOptions FO = smallFleet();
  FO.SliceFlushes = 1;
  std::string Fine = runAndRender(FO);
  FO.SliceFlushes = 1 << 20;
  EXPECT_EQ(Fine, runAndRender(FO));
  FO.SliceFlushes = 3;
  FO.Threads = 4;
  EXPECT_EQ(Fine, runAndRender(FO));
}

TEST(ServiceFleet, ShardExecutionIndependentOfSliceSchedule) {
  // Drive two identical shards: one a flush at a time, one in a single
  // slice. Every deterministic observable must match.
  ShardConfig Cfg = smallFleet().Shard;
  ArenaShard Fine(/*ArenaId=*/0, /*NumSessions=*/16, /*FirstGlobalId=*/0,
                  /*GlobalStride=*/1, Cfg);
  ArenaShard Coarse(0, 16, 0, 1, Cfg);
  while (!Fine.runSlice(1)) {
  }
  EXPECT_TRUE(Coarse.runSlice(1 << 20));
  EXPECT_EQ(shardFingerprint(Fine), shardFingerprint(Coarse));
}

TEST(ArenaShard, FlushTelemetryMatchesMeasuredFragmentation) {
  // The flush settles most samples with one fit query and measures the
  // largest block only when the peak could rise; driven one flush at a
  // time, its peak and mean must equal those of a full measurement after
  // every flush.
  uint64_t LaterRises = 0; // rises of a peak that was already nonzero
  for (const char *Policy : {"evacuating", "first-fit", "sliding"})
    for (uint64_t Batch : {1u, 16u}) {
      ShardConfig Cfg = smallFleet().Shard;
      Cfg.Policy = Policy;
      Cfg.BatchSize = Batch;
      Cfg.Audit = false;
      ArenaShard S(0, 24, 0, 1, Cfg);
      double Peak = 0.0, UtilSum = 0.0;
      for (bool Drained = false; !Drained;) {
        uint64_t Before = S.flushes();
        Drained = S.runSlice(1);
        if (S.flushes() == Before)
          continue;
        FragmentationMetrics FM = measureFragmentation(S.heap());
        LaterRises += uint64_t(Peak != 0.0 && FM.ExternalFragmentation > Peak);
        Peak = std::max(Peak, FM.ExternalFragmentation);
        UtilSum += FM.Utilization;
        ASSERT_EQ(S.peakFragmentation(), Peak)
            << Policy << " batch " << Batch << " flush " << S.flushes();
      }
      ASSERT_NE(S.flushes(), 0u);
      EXPECT_EQ(S.meanUtilization(), UtilSum / double(S.flushes()))
          << Policy << " batch " << Batch;
    }
  EXPECT_NE(LaterRises, 0u) << "no flush raised a nonzero peak";
}

// --- Edge configurations -------------------------------------------------

TEST(ServiceFleet, EmptyFleetDrainsClean) {
  FleetOptions FO = smallFleet();
  FO.NumSessions = 0;
  ServiceFleet Fleet(FO);
  Fleet.run();
  FleetReport R = Fleet.report();
  EXPECT_TRUE(R.clean());
  EXPECT_EQ(R.TotalSessions, 0u);
  EXPECT_EQ(R.TotalOpsApplied, 0u);
  EXPECT_EQ(R.TotalFootprintWords, 0u);
  EXPECT_EQ(R.Arenas.size(), 3u);
}

TEST(ServiceFleet, SingleArenaServesEverySession) {
  FleetOptions FO = smallFleet();
  FO.NumArenas = 1;
  ServiceFleet Fleet(FO);
  Fleet.run();
  FleetReport R = Fleet.report();
  EXPECT_TRUE(R.clean());
  ASSERT_EQ(R.Arenas.size(), 1u);
  EXPECT_EQ(R.Arenas[0].Sessions, FO.NumSessions);
  EXPECT_EQ(R.TotalSessions, FO.NumSessions);
}

TEST(ServiceFleet, RaggedStripingAssignsEverySessionExactlyOnce) {
  // 10 sessions over 4 arenas: counts 3,3,2,2 in arena order, totals 10.
  FleetOptions FO = smallFleet();
  FO.NumArenas = 4;
  FO.NumSessions = 10;
  ServiceFleet Fleet(FO);
  Fleet.run();
  FleetReport R = Fleet.report();
  ASSERT_EQ(R.Arenas.size(), 4u);
  EXPECT_EQ(R.Arenas[0].Sessions, 3u);
  EXPECT_EQ(R.Arenas[1].Sessions, 3u);
  EXPECT_EQ(R.Arenas[2].Sessions, 2u);
  EXPECT_EQ(R.Arenas[3].Sessions, 2u);
  EXPECT_EQ(R.TotalSessions, 10u);
  EXPECT_TRUE(R.clean());
}

TEST(ServiceFleet, MoreArenasThanSessionsLeavesIdleShards) {
  FleetOptions FO = smallFleet();
  FO.NumArenas = 8;
  FO.NumSessions = 3;
  ServiceFleet Fleet(FO);
  Fleet.run();
  FleetReport R = Fleet.report();
  EXPECT_EQ(R.TotalSessions, 3u);
  for (unsigned A = 3; A != 8; ++A) {
    EXPECT_EQ(R.Arenas[A].Sessions, 0u);
    EXPECT_EQ(R.Arenas[A].Stats.HighWaterMark, 0u);
  }
  EXPECT_TRUE(R.clean());
}

// --- Batch-size boundaries -----------------------------------------------

/// Total ops of every session assigned to a (1-arena) fleet.
uint64_t totalTraceOps(const FleetOptions &FO) {
  uint64_t Total = 0;
  for (uint64_t Id = 0; Id != FO.NumSessions; ++Id)
    Total += generateSessionTrace(FO.Shard.Session, Id).size();
  return Total;
}

TEST(ServiceFleet, BatchSizeOneFlushesEveryRequestAlone) {
  FleetOptions FO = smallFleet();
  FO.NumArenas = 1;
  FO.NumSessions = 6;
  FO.Shard.BatchSize = 1;
  ServiceFleet Fleet(FO);
  Fleet.run();
  FleetReport R = Fleet.report();
  EXPECT_TRUE(R.clean());
  // One op per flush, so the two counters coincide exactly.
  EXPECT_EQ(R.TotalFlushes, R.TotalOpsApplied);
  EXPECT_EQ(R.TotalOpsApplied, totalTraceOps(FO));
  EXPECT_EQ(R.TotalLiveWords, 0u) << "teardown must free everything";
}

TEST(ServiceFleet, BatchLargerThanSessionLengthStarvationFlushes) {
  // Batch far above what the residents can ever queue: every flush is a
  // starvation flush, and the arena must still drain completely.
  FleetOptions FO = smallFleet();
  FO.NumArenas = 1;
  FO.NumSessions = 5;
  FO.Shard.BatchSize = 1 << 20;
  FO.Shard.MaxResident = 2;
  ServiceFleet Fleet(FO);
  Fleet.run();
  FleetReport R = Fleet.report();
  EXPECT_TRUE(R.clean());
  EXPECT_EQ(R.TotalSessions, 5u);
  EXPECT_EQ(R.TotalOpsApplied, totalTraceOps(FO));
  EXPECT_EQ(R.TotalLiveWords, 0u);
  // Each flush drains everything the residents hold, so there are far
  // fewer flushes than ops.
  EXPECT_LT(R.TotalFlushes, R.TotalOpsApplied);
}

TEST(ServiceFleet, FinalPartialBatchFlushesOnDrain) {
  // A batch size that does not divide the total op count: the last,
  // short batch must still be applied (drain flush), not dropped.
  FleetOptions FO = smallFleet();
  FO.NumArenas = 1;
  FO.NumSessions = 3;
  uint64_t Total = totalTraceOps(FO);
  FO.Shard.BatchSize = 7;
  ASSERT_NE(Total % FO.Shard.BatchSize, 0u)
      << "pick a batch size that leaves a remainder";
  ServiceFleet Fleet(FO);
  Fleet.run();
  FleetReport R = Fleet.report();
  EXPECT_EQ(R.TotalOpsApplied, Total);
  EXPECT_EQ(R.TotalSessions, 3u);
  EXPECT_TRUE(R.clean());
}

// --- Shard isolation under fault injection -------------------------------

TEST(ServiceFleet, PlantedFaultIsAttributedToItsArenaOnly) {
  const unsigned Corrupted = 1;

  // Reference: the same fleet with no tap.
  FleetOptions Clean = smallFleet();
  ServiceFleet Reference(Clean);
  Reference.run();
  ASSERT_TRUE(Reference.report().clean());

  // Corrupt arena 1's *recorded* event stream through the LogTap port:
  // every alloc event under-reports its size by one word, so the audit
  // replay can no longer reproduce the heap's statistics.
  FleetOptions Tapped = Clean;
  Tapped.ArenaTap = [Corrupted](unsigned Arena, HeapEvent &E) {
    if (Arena == Corrupted && E.Event == HeapEvent::Kind::Alloc &&
        E.Size > 1)
      --E.Size;
    return true;
  };
  ServiceFleet Fleet(Tapped);
  Fleet.run();
  FleetReport R = Fleet.report();

  // The fault is detected...
  EXPECT_FALSE(R.clean());
  ASSERT_FALSE(R.Violations.empty());
  // ...attributed to the corrupted arena only...
  for (const FleetViolation &FV : R.Violations)
    EXPECT_EQ(FV.ArenaId, Corrupted) << FV.V.describe();
  EXPECT_GT(R.Arenas[Corrupted].NumViolations, 0u);

  // ...and the siblings are bit-for-bit untouched: stats, occupancy and
  // object-start masks, ledger, timeline. Shared-nothing means a fault
  // in one shard cannot leak into another's state.
  for (unsigned A = 0; A != Clean.NumArenas; ++A) {
    if (A == Corrupted)
      continue;
    EXPECT_EQ(shardFingerprint(Reference.shard(A)),
              shardFingerprint(Fleet.shard(A)))
        << "arena " << A << " contaminated by arena " << Corrupted;
  }
  // The corrupted arena's heap itself is also intact — the fault lives
  // in its telemetry stream, and detection must not perturb execution.
  const HeapStats &Ref = Reference.shard(Corrupted).heap().stats();
  const HeapStats &Got = Fleet.shard(Corrupted).heap().stats();
  EXPECT_EQ(Ref.HighWaterMark, Got.HighWaterMark);
  EXPECT_EQ(Ref.TotalAllocatedWords, Got.TotalAllocatedWords);
  EXPECT_EQ(Reference.shard(Corrupted).heap().occupancyMask(64),
            Fleet.shard(Corrupted).heap().occupancyMask(64));
  EXPECT_EQ(Reference.shard(Corrupted).heap().objectStartMask(64),
            Fleet.shard(Corrupted).heap().objectStartMask(64));
}

TEST(ServiceFleet, DroppedEventsAreAlsoDetected) {
  // The tap's other move: silently dropping free events from the log.
  FleetOptions FO = smallFleet();
  FO.ArenaTap = [](unsigned Arena, HeapEvent &E) {
    return !(Arena == 2 && E.Event == HeapEvent::Kind::Free);
  };
  ServiceFleet Fleet(FO);
  Fleet.run();
  FleetReport R = Fleet.report();
  EXPECT_FALSE(R.clean());
  for (const FleetViolation &FV : R.Violations)
    EXPECT_EQ(FV.ArenaId, 2u);
}

// --- Report invariants and percentiles -----------------------------------

TEST(FleetReport, PercentileNearestRank) {
  EXPECT_EQ(percentileNearestRank({}, 0.99), 0.0);
  EXPECT_EQ(percentileNearestRank({5.0}, 0.50), 5.0);
  EXPECT_EQ(percentileNearestRank({5.0}, 0.99), 5.0);
  EXPECT_EQ(percentileNearestRank({4.0, 1.0, 3.0, 2.0}, 0.50), 2.0);
  EXPECT_EQ(percentileNearestRank({4.0, 1.0, 3.0, 2.0}, 0.99), 4.0);
  EXPECT_EQ(percentileNearestRank({4.0, 1.0, 3.0, 2.0}, 0.25), 1.0);
}

TEST(FleetReport, TotalsAreConsistentWithArenaRows) {
  FleetOptions FO = smallFleet();
  ServiceFleet Fleet(FO);
  Fleet.run();
  FleetReport R = Fleet.report();
  uint64_t Footprint = 0, Sessions = 0, Flushes = 0, Ops = 0;
  for (const ArenaSummary &A : R.Arenas) {
    Footprint += A.Stats.HighWaterMark;
    Sessions += A.Sessions;
    Flushes += A.Flushes;
    Ops += A.OpsApplied;
  }
  EXPECT_EQ(R.TotalFootprintWords, Footprint);
  EXPECT_EQ(R.TotalSessions, Sessions);
  EXPECT_EQ(R.TotalFlushes, Flushes);
  EXPECT_EQ(R.TotalOpsApplied, Ops);
  EXPECT_EQ(R.TotalSessions, FO.NumSessions);
  // The drained fleet holds nothing: every session tears down.
  EXPECT_EQ(R.TotalLiveWords, 0u);
  // The fleet timeline exists and its final epoch sums the arenas.
  ASSERT_FALSE(R.FleetTimeline.empty());
  EXPECT_EQ(R.FleetTimeline.points().back().Step, R.TotalSessions);
}

TEST(FleetReport, WriteFileReportsUnwritablePath) {
  FleetOptions FO = smallFleet();
  FO.NumSessions = 4;
  ServiceFleet Fleet(FO);
  Fleet.run();
  std::string Error;
  EXPECT_FALSE(Fleet.report().writeFile("/no/such/dir/report.json", &Error));
  EXPECT_FALSE(Error.empty());
}

// --- Golden fleet report -------------------------------------------------

/// The fixed configuration the committed goldens were generated from.
std::string goldenReport(bool Json) {
  ServiceFleet Fleet(smallFleet());
  Fleet.run();
  FleetReport R = Fleet.report();
  std::ostringstream OS;
  if (Json)
    R.printJson(OS);
  else
    R.printText(OS);
  return OS.str();
}

TEST(FleetReportGolden, TextMatchesCommittedGolden) {
  std::string Got = goldenReport(/*Json=*/false);
  // Regenerate the committed goldens with:
  //   PCB_REGEN_GOLDEN=<repo>/tests/golden ./service_test
  if (const char *Dir = std::getenv("PCB_REGEN_GOLDEN")) {
    std::ofstream Out(std::string(Dir) + "/fleet-report.txt");
    ASSERT_TRUE(Out.good());
    Out << Got;
  }
  std::ifstream IS(std::string(PCB_TEST_DATA_DIR) + "/fleet-report.txt");
  ASSERT_TRUE(IS.good()) << "missing golden fleet-report.txt";
  std::stringstream Golden;
  Golden << IS.rdbuf();
  EXPECT_EQ(Got, Golden.str());
}

TEST(FleetReportGolden, JsonMatchesCommittedGolden) {
  std::string Got = goldenReport(/*Json=*/true);
  if (const char *Dir = std::getenv("PCB_REGEN_GOLDEN")) {
    std::ofstream Out(std::string(Dir) + "/fleet-report.json");
    ASSERT_TRUE(Out.good());
    Out << Got;
  }
  std::ifstream IS(std::string(PCB_TEST_DATA_DIR) + "/fleet-report.json");
  ASSERT_TRUE(IS.good()) << "missing golden fleet-report.json";
  std::stringstream Golden;
  Golden << IS.rdbuf();
  EXPECT_EQ(Got, Golden.str());
}

} // namespace
