//===- tests/obs_test.cpp - Telemetry subsystem tests ---------------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// Covers the observability layer end to end: Profiler install/merge and
// the disabled null sink, the exact fit work counts, Timeline emitters (including the committed
// golden CSV/JSON), TimelineSampler striding and point-budget thinning,
// and the determinism contract — the timeline a sweep produces must be
// byte-identical whether the Runner uses one thread or four.
//
//===----------------------------------------------------------------------===//

#include "adversary/CohenPetrankProgram.h"
#include "adversary/SyntheticWorkloads.h"
#include "driver/Execution.h"
#include "heap/Heap.h"
#include "mm/ManagerFactory.h"
#include "obs/Profiler.h"
#include "obs/Timeline.h"
#include "obs/TimelineSampler.h"
#include "runner/ExperimentGrid.h"
#include "runner/Runner.h"
#include "service/ServiceFleet.h"
#include "support/MathUtils.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace pcb;

namespace {

/// Runs the paper's PF adversary at toy scale under \p Policy, sampling
/// with \p SamplerOpts, and returns the completed (finished) timeline.
Timeline runSampled(const std::string &Policy, unsigned LogM, unsigned LogN,
                    double C, const TimelineSampler::Options &SamplerOpts) {
  Heap H;
  uint64_t M = pow2(LogM);
  auto MM = createManager(Policy, H, C, /*LiveBound=*/M);
  CohenPetrankProgram PF(M, pow2(LogN), C);
  Execution E(*MM, PF, M);
  TimelineSampler Sampler(SamplerOpts);
  Sampler.attach(E);
  E.run();
  Sampler.finish(E);
  return Sampler.timeline();
}

// --- Profiler ------------------------------------------------------------

TEST(Profiler, DisabledInstrumentationIsANoOp) {
  ASSERT_EQ(Profiler::current(), nullptr);
  // With no profiler installed, timers and counter bumps record nowhere
  // and must not crash.
  {
    ScopedTimer T(Profiler::SecHeapPlace);
    Profiler::bump(Profiler::CtrFitProbes);
  }
  EXPECT_EQ(Profiler::current(), nullptr);
}

TEST(Profiler, ScopeInstallsAndRestores) {
  Profiler Outer;
  ProfilerScope OuterScope(Outer);
  EXPECT_EQ(Profiler::current(), &Outer);
  {
    Profiler Inner;
    ProfilerScope InnerScope(Inner);
    EXPECT_EQ(Profiler::current(), &Inner);
    { ScopedTimer T(Profiler::SecCompaction); }
    Profiler::bump(Profiler::CtrCompactionPasses, 3);
    EXPECT_EQ(Inner.section(Profiler::SecCompaction).Calls, 1u);
    EXPECT_EQ(Inner.counter(Profiler::CtrCompactionPasses), 3u);
  }
  // Inner work never leaked into the outer profiler; the scope restored.
  EXPECT_EQ(Profiler::current(), &Outer);
  EXPECT_TRUE(Outer.empty());
}

TEST(Profiler, NullPointerScopeLeavesInstallationUntouched) {
  Profiler P;
  ProfilerScope Scope(P);
  {
    ProfilerScope Null(static_cast<Profiler *>(nullptr));
    EXPECT_EQ(Profiler::current(), &P);
  }
  EXPECT_EQ(Profiler::current(), &P);
}

TEST(Profiler, MergeAddsSectionsAndCounters) {
  Profiler A, B;
  A.add(Profiler::SecHeapPlace, 100);
  A.add(Profiler::SecHeapPlace, 50);
  B.add(Profiler::SecHeapPlace, 25);
  B.add(Profiler::SecStep, 10);
  ProfilerScope Scope(B);
  Profiler::bump(Profiler::CtrTimelineSamples, 7);
  A.merge(B);
  EXPECT_EQ(A.section(Profiler::SecHeapPlace).Calls, 3u);
  EXPECT_EQ(A.section(Profiler::SecHeapPlace).Nanos, 175u);
  EXPECT_EQ(A.section(Profiler::SecStep).Calls, 1u);
  EXPECT_EQ(A.counter(Profiler::CtrTimelineSamples), 7u);
  EXPECT_FALSE(A.empty());
  A.reset();
  EXPECT_TRUE(A.empty());
}

TEST(Profiler, InstrumentationSitesRecordDuringARun) {
  Profiler Prof;
  {
    ProfilerScope Scope(Prof);
    runSampled("evacuating", /*LogM=*/10, /*LogN=*/5, /*C=*/50,
               TimelineSampler::Options());
  }
  // Every permanently instrumented layer fired: steps, placements,
  // compaction, free-space maintenance, and the sampler's counter.
  EXPECT_GT(Prof.section(Profiler::SecStep).Calls, 0u);
  EXPECT_GT(Prof.section(Profiler::SecHeapPlace).Calls, 0u);
  EXPECT_GT(Prof.section(Profiler::SecCompaction).Calls, 0u);
  EXPECT_GT(Prof.section(Profiler::SecFreeReserve).Calls, 0u);
  EXPECT_GT(Prof.counter(Profiler::CtrTimelineSamples), 0u);
  std::ostringstream OS;
  Prof.printReport(OS, /*WallSeconds=*/1.0);
  EXPECT_NE(OS.str().find("exec.step"), std::string::npos);
  EXPECT_NE(OS.str().find("timeline.samples"), std::string::npos);
}

// --- Fit work counts --------------------------------------------------------
//
// The fit counters are work, not time: they are the same on every machine
// and at every speed of the scans, so they are pinned exactly. A change
// that only makes the fit search faster must leave them alone; one that
// changes what a query looks at must update them here, on purpose.

struct FitWork {
  uint64_t Queries, Probes;
};

FitWork fitWork(const Profiler &Prof) {
  return {Prof.counter(Profiler::CtrFitQueries),
          Prof.counter(Profiler::CtrFitProbes)};
}

/// The fit work of PF (M = 2^12, n = 2^7, c = 10) against \p Policy.
FitWork pfFitWork(const std::string &Policy) {
  Profiler Prof;
  ProfilerScope Scope(Prof);
  Heap H;
  const uint64_t M = pow2(12);
  auto MM = createManager(Policy, H, 10.0, /*LiveBound=*/M);
  CohenPetrankProgram PF(M, pow2(7), 10.0);
  Execution(*MM, PF, M).run();
  return fitWork(Prof);
}

TEST(FitWorkCounts, PfFirstFit) {
  FitWork W = pfFitWork("first-fit");
  EXPECT_EQ(W.Queries, 5173u);
  EXPECT_EQ(W.Probes, 53u);
}

TEST(FitWorkCounts, PfBestFit) {
  FitWork W = pfFitWork("best-fit");
  EXPECT_EQ(W.Queries, 5173u);
  EXPECT_EQ(W.Probes, 0u);
}

TEST(FitWorkCounts, PfEvacuating) {
  FitWork W = pfFitWork("evacuating");
  EXPECT_EQ(W.Queries, 6207u);
  EXPECT_EQ(W.Probes, 97259u);
}

// A two-arena serve (evacuating, c = 50): the placements' fit work and,
// counted apart, the flush telemetry's first-fit queries.
TEST(FitWorkCounts, TwoArenaServe) {
  Profiler Prof;
  FleetOptions FO;
  FO.NumArenas = 2;
  FO.NumSessions = 400;
  FO.Threads = 1;
  FO.Prof = &Prof;
  ServiceFleet Fleet(FO);
  Fleet.run();
  ASSERT_TRUE(Fleet.report().clean());
  // Each pair sums to what fit.queries/fit.probes read while the
  // telemetry's queries counted there: 14561 and 227479.
  FitWork W = fitWork(Prof);
  EXPECT_EQ(W.Queries, 12948u);
  EXPECT_EQ(W.Probes, 180609u);
  EXPECT_EQ(Prof.counter(Profiler::CtrTelemetryFitQueries), 1613u);
  EXPECT_EQ(Prof.counter(Profiler::CtrTelemetryFitProbes), 46870u);
}

// --- Timeline emitters ---------------------------------------------------

TimelinePoint makePoint(uint64_t Step) {
  TimelinePoint P;
  P.Step = Step;
  P.FootprintWords = 100 + Step;
  P.LiveWords = 60;
  P.FreeWords = P.FootprintWords - P.LiveWords;
  P.FreeBlocks = 4;
  P.LargestFreeBlock = 16;
  P.Utilization = double(P.LiveWords) / double(P.FootprintWords);
  P.ExternalFragmentation =
      1.0 - double(P.LargestFreeBlock) / double(P.FreeWords);
  P.AllocatedWords = 10 * Step;
  P.MovedWords = Step;
  P.BudgetWords = Step / 2;
  return P;
}

TEST(Timeline, CsvHasHeaderAndOneLinePerPoint) {
  Timeline TL;
  TL.addPoint(makePoint(1));
  TL.addPoint(makePoint(9));
  std::ostringstream OS;
  TL.printCsv(OS);
  std::string Out = OS.str();
  EXPECT_EQ(Out.find("step,footprint_words,live_words,free_words"), 0u);
  EXPECT_NE(Out.find("\n1,101,60,41,4,16,"), std::string::npos);
  EXPECT_NE(Out.find("\n9,109,60,49,4,16,"), std::string::npos);
}

TEST(Timeline, EmptyTimelineEmitsHeaderOnly) {
  Timeline TL;
  std::ostringstream Csv, Json, Charts;
  TL.printCsv(Csv);
  EXPECT_EQ(Csv.str(),
            "step,footprint_words,live_words,free_words,free_blocks,"
            "largest_free_block,utilization,external_fragmentation,"
            "allocated_words,moved_words,budget_words\n");
  TL.printJson(Json);
  EXPECT_EQ(Json.str(), "[\n\n]\n"); // an empty JSON array, no rows
  TL.printCharts(Charts);
  EXPECT_NE(Charts.str().find("(empty timeline)"), std::string::npos);
}

TEST(Timeline, ThinHalfKeepsEvenIndices) {
  Timeline TL;
  for (uint64_t Step : {1, 3, 5, 7, 9})
    TL.addPoint(makePoint(Step));
  TL.thinHalf();
  ASSERT_EQ(TL.size(), 3u);
  EXPECT_EQ(TL.points()[0].Step, 1u);
  EXPECT_EQ(TL.points()[1].Step, 5u);
  EXPECT_EQ(TL.points()[2].Step, 9u);
}

TEST(Timeline, CellPathJoinsTagBeforeExtension) {
  EXPECT_EQ(timelineCellPath("tl.csv", "c50-first-fit"),
            "tl-c50-first-fit.csv");
  EXPECT_EQ(timelineCellPath("out/tl.json", "seed7"), "out/tl-seed7.json");
  EXPECT_EQ(timelineCellPath("prefix", "tag"), "prefix-tag.csv");
}

// --- TimelineSampler -----------------------------------------------------

TEST(TimelineSampler, StrideSelectsStepsAndFinishAddsEndpoint) {
  TimelineSampler::Options O;
  O.Stride = 4;
  Timeline TL = runSampled("first-fit", /*LogM=*/10, /*LogN=*/5,
                           /*C=*/50, O);
  ASSERT_GE(TL.size(), 2u);
  // Strided samples land on steps 1, 5, 9, ...; the endpoint is always
  // recorded even when the stride misses it.
  for (size_t I = 0; I + 1 < TL.size(); ++I)
    EXPECT_EQ((TL.points()[I].Step - 1) % 4, 0u) << "index " << I;
  for (size_t I = 1; I < TL.size(); ++I)
    EXPECT_GT(TL.points()[I].Step, TL.points()[I - 1].Step);
  // Per-point invariants of the incremental metrics.
  for (const TimelinePoint &P : TL.points()) {
    EXPECT_EQ(P.LiveWords + P.FreeWords, P.FootprintWords);
    EXPECT_LE(P.LargestFreeBlock, P.FreeWords);
    EXPECT_LE(P.MovedWords, P.AllocatedWords);
  }
}

TEST(TimelineSampler, PointBudgetThinsAndDoublesStride) {
  // The adversary programs finish in a handful of macro steps, so drive
  // a 64-step churn workload to overflow an 8-point budget.
  Heap H;
  uint64_t M = pow2(12);
  auto MM = createManager("first-fit", H, 50, /*LiveBound=*/M);
  RandomChurnProgram::Options PO;
  PO.Steps = 64;
  RandomChurnProgram Churn(M, PO);
  Execution E(*MM, Churn, M);
  TimelineSampler::Options O;
  O.Stride = 1;
  O.MaxPoints = 8;
  TimelineSampler Sampler(O);
  Sampler.attach(E);
  E.run();
  Sampler.finish(E);
  const Timeline &TL = Sampler.timeline();
  // The budget engaged: the stride doubled (64 samples into 8 slots
  // needs at least three thinnings) and the series never exceeds the
  // budget yet still reaches the run's endpoint.
  EXPECT_GE(Sampler.stride(), 8u);
  EXPECT_LE(TL.size(), 8u);
  EXPECT_GE(TL.size(), 2u);
  EXPECT_EQ(TL.points().back().Step, 64u);
}

TEST(TimelineSampler, EndpointMatchesExecutionResult) {
  Heap H;
  uint64_t M = pow2(10);
  auto MM = createManager("evacuating", H, 50, /*LiveBound=*/M);
  CohenPetrankProgram PF(M, pow2(5), 50);
  Execution E(*MM, PF, M);
  TimelineSampler Sampler;
  Sampler.attach(E);
  ExecutionResult R = E.run();
  Sampler.finish(E);
  const Timeline &TL = Sampler.timeline();
  ASSERT_FALSE(TL.empty());
  const TimelinePoint &Last = TL.points().back();
  EXPECT_EQ(Last.Step, R.Steps);
  EXPECT_EQ(Last.FootprintWords, R.HeapSize);
  EXPECT_EQ(Last.MovedWords, R.MovedWords);
  EXPECT_EQ(Last.AllocatedWords, R.TotalAllocatedWords);
}

// --- Determinism and goldens ---------------------------------------------

/// The toy configuration the committed goldens were generated from.
Timeline goldenTimeline() {
  TimelineSampler::Options O;
  O.Stride = 8;
  return runSampled("evacuating", /*LogM=*/10, /*LogN=*/5, /*C=*/50, O);
}

TEST(TimelineGolden, CsvMatchesCommittedGolden) {
  std::ostringstream OS;
  goldenTimeline().printCsv(OS);
  // Regenerate the committed goldens with:
  //   PCB_REGEN_GOLDEN=<repo>/tests/golden ./obs_test
  if (const char *Dir = std::getenv("PCB_REGEN_GOLDEN")) {
    std::ofstream Out(std::string(Dir) + "/timeline.csv");
    ASSERT_TRUE(Out.good());
    Out << OS.str();
  }
  std::ifstream IS(std::string(PCB_TEST_DATA_DIR) + "/timeline.csv");
  ASSERT_TRUE(IS.good()) << "missing golden timeline.csv";
  std::stringstream Golden;
  Golden << IS.rdbuf();
  EXPECT_EQ(OS.str(), Golden.str());
}

TEST(TimelineGolden, JsonMatchesCommittedGolden) {
  std::ostringstream OS;
  goldenTimeline().printJson(OS);
  if (const char *Dir = std::getenv("PCB_REGEN_GOLDEN")) {
    std::ofstream Out(std::string(Dir) + "/timeline.json");
    ASSERT_TRUE(Out.good());
    Out << OS.str();
  }
  std::ifstream IS(std::string(PCB_TEST_DATA_DIR) + "/timeline.json");
  ASSERT_TRUE(IS.good()) << "missing golden timeline.json";
  std::stringstream Golden;
  Golden << IS.rdbuf();
  EXPECT_EQ(OS.str(), Golden.str());
}

/// Sweeps four policies, one timeline per cell, and returns the
/// concatenated CSVs in cell order.
std::string sweepTimelines(unsigned Threads) {
  ExperimentGrid Grid;
  Grid.addAxis("policy",
               {"first-fit", "best-fit", "evacuating", "sliding"});
  RunnerOptions RO;
  RO.Threads = Threads;
  RO.Progress = 0;
  Runner Run(RO);
  std::vector<std::string> Csvs(size_t(Grid.numCells()));
  Run.forEachCell(Grid.numCells(), [&](uint64_t I) {
    TimelineSampler::Options O;
    O.Stride = 16;
    Timeline TL = runSampled(Grid.cell(I).str("policy"), /*LogM=*/10,
                             /*LogN=*/5, /*C=*/50, O);
    std::ostringstream OS;
    TL.printCsv(OS);
    Csvs[size_t(I)] = OS.str();
  });
  std::string All;
  for (const std::string &Csv : Csvs)
    All += Csv;
  return All;
}

TEST(TimelineDeterminism, ByteIdenticalAcrossThreadCounts) {
  EXPECT_EQ(sweepTimelines(1), sweepTimelines(4));
}

TEST(Runner, MergesWorkerProfilersIntoAggregate) {
  Profiler Prof;
  RunnerOptions RO;
  RO.Threads = 2;
  RO.Progress = 0;
  RO.Prof = &Prof;
  Runner Run(RO);
  Run.forEachCell(4, [](uint64_t) {
    Heap H;
    uint64_t M = pow2(10);
    auto MM = createManager("first-fit", H, 50, /*LiveBound=*/M);
    CohenPetrankProgram PF(M, pow2(5), 50);
    Execution E(*MM, PF, M);
    E.run();
  });
  // The workers' private profilers were folded into the aggregate: four
  // cells' worth of steps and placements.
  EXPECT_GT(Prof.section(Profiler::SecStep).Calls, 0u);
  EXPECT_GT(Prof.section(Profiler::SecHeapPlace).Calls, 0u);
}

} // namespace
