//===- tests/fuzz_test.cpp - Differential fuzzing subsystem --------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// Three layers of confidence in the fuzzer itself:
//
//   1. The generator is deterministic and its schedules (and every
//      subset of them) lower to valid traces.
//   2. Fixed-seed differential runs — every pattern, every manager
//      policy, thousands of ops — report zero violations.
//   3. The planted-bug experiment: corrupting the event stream through
//      the harness's fault-injection tap IS caught by the oracle, the
//      failure shrinks to a handful of ops, and the written reproducer
//      round-trips through TraceIO with the corruption intact. A golden
//      minimal reproducer is committed and re-checked here.
//
//===----------------------------------------------------------------------===//

#include "adversary/SyntheticWorkloads.h"
#include "driver/Auditors.h"
#include "driver/Execution.h"
#include "driver/TraceIO.h"
#include "fuzz/DifferentialHarness.h"
#include "fuzz/HeapParityChecker.h"
#include "fuzz/InvariantOracle.h"
#include "fuzz/WorkloadFuzzer.h"
#include "mm/ManagerFactory.h"
#include "mm/MeshingCompactor.h"
#include "mm/SequentialFitManagers.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace pcb;

namespace {

WorkloadFuzzer::Options baseOptions(uint64_t Seed,
                                    WorkloadFuzzer::Pattern P) {
  WorkloadFuzzer::Options O;
  O.Seed = Seed;
  O.NumOps = 768;
  O.LiveBound = pow2(12);
  O.MaxLogSize = 8;
  O.P = P;
  return O;
}

// --- Generator properties --------------------------------------------------

TEST(WorkloadFuzzer, GeneratesValidTracesForEveryPattern) {
  for (WorkloadFuzzer::Pattern P : WorkloadFuzzer::allPatterns()) {
    FuzzSchedule S = WorkloadFuzzer(baseOptions(11, P)).generate();
    EXPECT_EQ(S.Pattern, WorkloadFuzzer::patternName(P));
    EXPECT_GT(S.size(), 0u) << S.Pattern;
    std::string Why;
    EXPECT_TRUE(validateTrace(S.materialize(), &Why))
        << S.Pattern << ": " << Why;
  }
}

TEST(WorkloadFuzzer, GenerationIsDeterministic) {
  WorkloadFuzzer::Options O = baseOptions(42, WorkloadFuzzer::Pattern::Mixed);
  std::vector<TraceOp> A = WorkloadFuzzer(O).generate().materialize();
  std::vector<TraceOp> B = WorkloadFuzzer(O).generate().materialize();
  EXPECT_EQ(A, B);
}

TEST(WorkloadFuzzer, DistinctSeedsGiveDistinctSchedules) {
  WorkloadFuzzer::Options O1 = baseOptions(1, WorkloadFuzzer::Pattern::Uniform);
  WorkloadFuzzer::Options O2 = baseOptions(2, WorkloadFuzzer::Pattern::Uniform);
  EXPECT_NE(WorkloadFuzzer(O1).generate().materialize(),
            WorkloadFuzzer(O2).generate().materialize());
}

TEST(WorkloadFuzzer, RespectsLiveBound) {
  for (uint64_t Seed : {3u, 4u, 5u}) {
    WorkloadFuzzer::Options O = baseOptions(Seed, WorkloadFuzzer::Pattern::Mixed);
    FuzzSchedule S = WorkloadFuzzer(O).generate();
    EXPECT_LE(tracePeakLiveWords(S.materialize()), O.LiveBound);
  }
}

// The closure property delta debugging relies on: ANY subset of a
// schedule is still a well-formed schedule.
TEST(WorkloadFuzzer, EverySubsetMaterializesToAValidTrace) {
  FuzzSchedule S =
      WorkloadFuzzer(baseOptions(7, WorkloadFuzzer::Pattern::Mixed)).generate();
  Rng R(99);
  for (int Trial = 0; Trial < 8; ++Trial) {
    std::vector<bool> Keep(S.size());
    for (size_t I = 0; I < S.size(); ++I)
      Keep[I] = R.nextBool(0.5);
    std::string Why;
    EXPECT_TRUE(validateTrace(S.materialize(&Keep), &Why)) << Why;
    FuzzSchedule Sub = S.subset(Keep);
    EXPECT_TRUE(validateTrace(Sub.materialize(), &Why)) << Why;
  }
}

TEST(WorkloadFuzzer, SubsetMatchesMaterializeWithKeepMask) {
  FuzzSchedule S =
      WorkloadFuzzer(baseOptions(8, WorkloadFuzzer::Pattern::QueueFifo))
          .generate();
  std::vector<bool> Keep(S.size());
  for (size_t I = 0; I < S.size(); ++I)
    Keep[I] = (I % 3) != 0;
  EXPECT_EQ(S.materialize(&Keep), S.subset(Keep).materialize());
}

TEST(WorkloadFuzzer, ScheduleFromTraceRoundTrips) {
  FuzzSchedule S =
      WorkloadFuzzer(baseOptions(9, WorkloadFuzzer::Pattern::StackLifo))
          .generate();
  std::vector<TraceOp> Trace = S.materialize();
  FuzzSchedule Back = scheduleFromTrace(Trace, S.Seed, S.Pattern);
  EXPECT_EQ(Back.materialize(), Trace);
}

// --- Fixed-seed differential runs ------------------------------------------

// Every pattern through every factory policy; with 8 patterns at ~768 ops
// each this sweeps >5000 operations per run of the suite. Any violation
// prints the oracle's full diagnosis.
TEST(DifferentialHarness, FixedSeedsAllPoliciesClean) {
  DifferentialHarness Harness; // default options: all policies
  ASSERT_EQ(Harness.options().Policies.size(),
            allManagerPolicies().size());
  uint64_t TotalOps = 0;
  const std::vector<WorkloadFuzzer::Pattern> &Patterns =
      WorkloadFuzzer::allPatterns();
  for (size_t I = 0; I < Patterns.size(); ++I) {
    WorkloadFuzzer::Options O =
        baseOptions(splitSeed(0x5eed, I), Patterns[I]);
    FuzzSchedule S = WorkloadFuzzer(O).generate();
    TotalOps += S.size();
    DifferentialReport Report = Harness.run(S);
    EXPECT_TRUE(Report.clean())
        << "pattern " << S.Pattern << ":\n" << Report.summary();
  }
  EXPECT_GE(TotalOps, 5000u);
}

// A second quota regime: tight budgets (c=200) stress the ledger and the
// budget-history auditor harder than the default c=50.
TEST(DifferentialHarness, TightQuotaClean) {
  DifferentialHarness::Options HO;
  HO.C = 200.0;
  HO.DeepCheckEvery = 32;
  DifferentialHarness Harness(HO);
  FuzzSchedule S =
      WorkloadFuzzer(baseOptions(0xbeef, WorkloadFuzzer::Pattern::Comb))
          .generate();
  DifferentialReport Report = Harness.run(S);
  EXPECT_TRUE(Report.clean()) << Report.summary();
}

TEST(DifferentialHarness, ReportsOneRunPerPolicy) {
  DifferentialHarness Harness;
  FuzzSchedule S =
      WorkloadFuzzer(baseOptions(21, WorkloadFuzzer::Pattern::Bimodal))
          .generate();
  DifferentialReport Report = Harness.run(S);
  ASSERT_EQ(Report.Runs.size(), allManagerPolicies().size());
  for (const PolicyRunResult &R : Report.Runs) {
    EXPECT_GT(R.Log.size(), 0u) << R.Policy;
    EXPECT_GT(R.Stats.NumAllocations, 0u) << R.Policy;
  }
  // Program behaviour is manager-independent: spot-check the invariant
  // the cross-policy comparison enforces.
  for (const PolicyRunResult &R : Report.Runs) {
    EXPECT_EQ(R.Stats.TotalAllocatedWords,
              Report.Runs.front().Stats.TotalAllocatedWords)
        << R.Policy;
    EXPECT_EQ(R.Stats.NumFrees, Report.Runs.front().Stats.NumFrees)
        << R.Policy;
  }
}

// --- The oracle in isolation -----------------------------------------------

TEST(InvariantOracle, CleanHeapPassesDeepCheck) {
  Heap H;
  EventLog Log;
  H.setEventCallback([&](const HeapEvent &E) { Log.record(E); });
  FirstFitManager MM(H, 50.0);
  ASSERT_NE(MM.allocate(8), InvalidObjectId);
  ASSERT_NE(MM.allocate(4), InvalidObjectId);
  InvariantOracle Oracle(H, MM, Log);
  std::vector<Violation> Out;
  EXPECT_EQ(Oracle.checkDeep(1, Out), 0u);
  EXPECT_TRUE(Out.empty());
}

TEST(InvariantOracle, CatchesForeignEventInLog) {
  Heap H;
  EventLog Log;
  H.setEventCallback([&](const HeapEvent &E) { Log.record(E); });
  FirstFitManager MM(H, 50.0);
  ASSERT_NE(MM.allocate(8), InvalidObjectId);
  // A free of an object that never existed: the event stream no longer
  // describes the heap.
  Log.record(HeapEvent::release(99, 0, 8));
  InvariantOracle Oracle(H, MM, Log);
  std::vector<Violation> Out;
  EXPECT_GT(Oracle.checkDeep(1, Out), 0u);
  ASSERT_FALSE(Out.empty());
  EXPECT_EQ(Out.front().Check, "event-stream");
  EXPECT_NE(Out.front().describe().find("event-stream"), std::string::npos);
}

TEST(InvariantOracle, CatchesDroppedEventInLog) {
  Heap H;
  EventLog Log;
  bool Drop = false;
  H.setEventCallback([&](const HeapEvent &E) {
    if (!Drop)
      Log.record(E);
  });
  FirstFitManager MM(H, 50.0);
  ASSERT_NE(MM.allocate(8), InvalidObjectId);
  Drop = true; // this allocation never reaches the log
  ASSERT_NE(MM.allocate(4), InvalidObjectId);
  InvariantOracle Oracle(H, MM, Log);
  std::vector<Violation> Out;
  EXPECT_GT(Oracle.checkDeep(1, Out), 0u);
  ASSERT_FALSE(Out.empty());
  EXPECT_EQ(Out.front().Check, "audit-mismatch");
  // Every differing statistic, in HeapStatsFields order: the log holds
  // the 8-word allocation only, the heap both.
  EXPECT_EQ(Out.front().Detail,
            "HighWaterMark audited=8 stats=12; "
            "LiveWords audited=8 stats=12; "
            "PeakLiveWords audited=8 stats=12; "
            "TotalAllocatedWords audited=8 stats=12; "
            "NumAllocations audited=1 stats=2; ");
}

// --- The heap-parity checker -----------------------------------------------

TEST(HeapParity, CleanMirrorStaysClean) {
  Heap H;
  HeapParityChecker Parity(H);
  H.setEventCallback([&](const HeapEvent &E) { Parity.observe(E); });
  FirstFitManager MM(H, 50.0);
  ObjectId A = MM.allocate(8);
  ObjectId B = MM.allocate(4);
  ASSERT_NE(A, InvalidObjectId);
  MM.free(A);
  ASSERT_NE(MM.allocate(16), InvalidObjectId);
  (void)B;
  std::vector<Violation> Out;
  Parity.checkStep("first-fit", 1, Out);
  EXPECT_TRUE(Out.empty()) << Out.front().describe();
}

TEST(HeapParity, CatchesDivergentMirror) {
  Heap H;
  HeapParityChecker Parity(H);
  bool Mirror = true;
  H.setEventCallback([&](const HeapEvent &E) {
    if (Mirror)
      Parity.observe(E);
  });
  FirstFitManager MM(H, 50.0);
  ASSERT_NE(MM.allocate(8), InvalidObjectId);
  Mirror = false; // the mirror misses this allocation: heaps diverge
  ASSERT_NE(MM.allocate(4), InvalidObjectId);
  std::vector<Violation> Out;
  Parity.checkStep("first-fit", 1, Out);
  ASSERT_FALSE(Out.empty());
  EXPECT_EQ(Out.front().Check, "heap-parity");
  EXPECT_EQ(Out.front().Policy, "first-fit");
  // One block on each side, the live one 4 words higher: the count check
  // passes and the block comparison names both.
  EXPECT_EQ(Out.front().Detail,
            "block [12, 1152921504606846976) in the live index but "
            "[8, 1152921504606846976) in the reference");
}

TEST(HeapParity, CatchesShiftedBlockOfEqualCount) {
  // Six 4-word objects at 0..24, the one at 4 freed: blocks [4, 8) and
  // the tail. Moving the object at 12 down to 4 behind the mirror's back
  // leaves the live heap with [12, 16) and the tail, two blocks again, so
  // only the block-by-block comparison tells the heaps apart.
  Heap H;
  HeapParityChecker Parity(H);
  bool Mirror = true;
  H.setEventCallback([&](const HeapEvent &E) {
    if (Mirror)
      Parity.observe(E);
  });
  std::vector<ObjectId> Ids;
  for (Addr A = 0; A != 24; A += 4)
    Ids.push_back(H.place(A, 4));
  H.free(Ids[1]);
  Mirror = false;
  H.move(Ids[3], 4);
  ASSERT_EQ(H.freeSpace().numBlocks(), 2u);
  std::vector<Violation> Out;
  Parity.checkStep("first-fit", 1, Out);
  ASSERT_FALSE(Out.empty());
  EXPECT_EQ(Out.front().Check, "heap-parity");
  EXPECT_EQ(Out.front().Detail,
            "block [12, 16) in the live index but [4, 8) in the reference");
}

TEST(HeapParity, CatchesObjectTableDivergence) {
  // A phantom allocate+free pair leaves the mirror's free space exactly
  // where it started — the old free-index-only checker was blind to
  // this; the object table and allocation counters give it away.
  Heap H;
  HeapParityChecker Parity(H);
  H.setEventCallback([&](const HeapEvent &E) { Parity.observe(E); });
  FirstFitManager MM(H, 50.0);
  ASSERT_NE(MM.allocate(8), InvalidObjectId);
  H.setEventCallback({});
  ObjectId Phantom = ObjectId(H.numObjects());
  Parity.observe(HeapEvent::alloc(Phantom, /*A=*/100, /*Size=*/4));
  Parity.observe(HeapEvent::release(Phantom, /*A=*/100, /*Size=*/4));
  std::vector<Violation> Out;
  Parity.checkStep("first-fit", 1, Out);
  ASSERT_FALSE(Out.empty());
  EXPECT_EQ(Out.front().Check, "heap-parity");
  EXPECT_EQ(Out.front().Detail,
            "live heap has 1 object slots but the reference has 2");
}

TEST(HeapParity, CatchesObjectRecordsOfEqualCount) {
  // The mirror hears of the same objects at swapped addresses: free
  // space, statistics and both masks agree, so only the record-by-record
  // comparison sees it, and it names the first record that differs.
  {
    Heap H;
    HeapParityChecker Parity(H);
    H.place(0, 4);
    H.place(4, 4);
    Parity.observe(HeapEvent::alloc(0, /*A=*/4, /*Size=*/4));
    Parity.observe(HeapEvent::alloc(1, /*A=*/0, /*Size=*/4));
    std::vector<Violation> Out;
    Parity.checkStep("first-fit", 1, Out);
    ASSERT_EQ(Out.size(), 1u);
    EXPECT_EQ(Out.front().Detail,
              "object 0 at [0, 4) in the live heap but [4, 8) in the "
              "reference");
  }
  // A dead record differs first: it is named, though both sides agree
  // it is dead.
  {
    Heap H;
    HeapParityChecker Parity(H);
    H.free(H.place(0, 4));
    H.place(0, 4);
    Parity.observe(HeapEvent::alloc(0, /*A=*/4, /*Size=*/4));
    Parity.observe(HeapEvent::release(0, /*A=*/4, /*Size=*/4));
    Parity.observe(HeapEvent::alloc(1, /*A=*/0, /*Size=*/4));
    std::vector<Violation> Out;
    Parity.checkStep("first-fit", 1, Out);
    ASSERT_FALSE(Out.empty());
    EXPECT_EQ(Out.front().Detail,
              "dead object 0 at [0, 4) in the live heap but [4, 8) in the "
              "reference");
  }
}

// --- The planted-bug experiment --------------------------------------------

DifferentialHarness::Options plantedBugOptions() {
  DifferentialHarness::Options HO;
  // One policy keeps the experiment fast; the corruption is in the
  // logging layer, which every policy shares.
  HO.Policies = {"first-fit"};
  // Corrupt the recorded size of every multi-word free. The heap itself
  // is untouched — only the log lies — which is exactly the class of
  // bookkeeping bug the audit-replay oracle exists to catch.
  HO.LogTap = [](HeapEvent &E) {
    if (E.Event == HeapEvent::Kind::Free && E.Size > 1)
      E.Size -= 1;
    return true;
  };
  return HO;
}

TEST(PlantedBug, OracleCatchesCorruptedEventStream) {
  DifferentialHarness Harness(plantedBugOptions());
  FuzzSchedule S =
      WorkloadFuzzer(baseOptions(123, WorkloadFuzzer::Pattern::Uniform))
          .generate();
  DifferentialReport Report = Harness.run(S);
  ASSERT_FALSE(Report.clean());
  bool SawEventStream = false;
  for (const Violation &V : Report.allViolations())
    SawEventStream |= V.Check == "event-stream";
  EXPECT_TRUE(SawEventStream) << Report.summary();
  // The corruption lives in the logging layer only; the heap-parity
  // mirror watches the real heap and must not be fooled by it.
  for (const Violation &V : Report.allViolations())
    EXPECT_NE(V.Check, "heap-parity") << V.describe();
}

TEST(PlantedBug, ShrinksToAFewOpsAndWritesAReplayableReproducer) {
  DifferentialHarness Harness(plantedBugOptions());
  FuzzSchedule S =
      WorkloadFuzzer(baseOptions(123, WorkloadFuzzer::Pattern::Uniform))
          .generate();
  ASSERT_FALSE(Harness.run(S).clean());

  FuzzSchedule Minimal = Harness.shrink(S);
  EXPECT_LE(Minimal.size(), 20u)
      << "shrinking left " << Minimal.size() << " of " << S.size() << " ops";
  EXPECT_LT(Minimal.size(), S.size());

  DifferentialReport Report = Harness.run(Minimal);
  ASSERT_FALSE(Report.clean());
  const PolicyRunResult *Failing = Report.firstFailing();
  ASSERT_NE(Failing, nullptr);

  std::stringstream Repro;
  DifferentialHarness::writeReproducer(Repro, Minimal, *Failing);
  std::string Text = Repro.str();
  EXPECT_NE(Text.find("# pcbound-fuzz-repro"), std::string::npos);
  EXPECT_NE(Text.find("policy=first-fit"), std::string::npos);

  // The reproducer round-trips through TraceIO, and the corruption is
  // still visible to a fresh auditor — no harness state required.
  EventLog Log;
  std::istringstream IS(Text);
  std::string Error;
  ASSERT_TRUE(readEventLog(IS, Log, &Error)) << Error;
  EXPECT_FALSE(auditEvents(Log.events()).Consistent);

  // Regenerate the committed golden reproducer with:
  //   PCB_REGEN_GOLDEN=<repo>/tests/golden ./fuzz_test
  if (const char *Dir = std::getenv("PCB_REGEN_GOLDEN")) {
    std::ofstream OS(std::string(Dir) + "/planted-free-corruption.trace");
    ASSERT_TRUE(OS.good());
    DifferentialHarness::writeReproducer(OS, Minimal, *Failing);
  }
}

// The committed minimal reproducer from the experiment above: reading it
// back must still reproduce the detection, forever.
TEST(PlantedBug, GoldenReproducerStillDetects) {
  std::ifstream IS(std::string(PCB_TEST_DATA_DIR) +
                   "/planted-free-corruption.trace");
  ASSERT_TRUE(IS.good()) << "missing golden reproducer";
  EventLog Log;
  std::string Error;
  ASSERT_TRUE(readEventLog(IS, Log, &Error)) << Error;
  EXPECT_LE(Log.toTrace().size(), 20u);
  EXPECT_FALSE(auditEvents(Log.events()).Consistent)
      << "the corrupted event stream went undetected";
}

// --- Golden chunk merge -----------------------------------------------------

/// A hand-crafted schedule that forces the meshing compactor to merge a
/// chunk pair: two 64-word chunks of 8-word slots whose frees interleave
/// (chunk 0 keeps the even slots, chunk 1 the odd ones), leaving disjoint
/// occupancies and no hole bigger than 16 words. The final 24-word
/// request cannot fit without a merge — and at C = 4 the budget
/// (floor(128/4) = 32) covers the 32 surviving source words exactly.
FuzzSchedule chunkMergeSchedule() {
  FuzzSchedule S;
  S.Seed = 0;
  S.Pattern = "crafted-chunk-merge";
  for (int I = 0; I != 16; ++I)
    S.Ops.push_back(FuzzOp::alloc(8));
  for (size_t P = 1; P < 8; P += 2)
    S.Ops.push_back(FuzzOp::release(P));
  for (size_t P = 8; P < 16; P += 2)
    S.Ops.push_back(FuzzOp::release(P));
  S.Ops.push_back(FuzzOp::alloc(24));
  return S;
}

TEST(GoldenChunkMerge, CraftedScheduleMeshesCleanly) {
  DifferentialHarness::Options O;
  O.C = 4.0;
  O.Policies = {"first-fit", "meshing"};
  DifferentialHarness Harness(O);
  FuzzSchedule S = chunkMergeSchedule();
  DifferentialReport Report = Harness.run(S);
  EXPECT_TRUE(Report.clean()) << Report.summary();

  // The differential run proves agreement; a direct replay proves the
  // schedule exercises what it was crafted for — an actual merge.
  std::vector<TraceOp> Trace = S.materialize();
  Heap H;
  MeshingCompactor MM(H, 4.0);
  TraceReplayProgram P(Trace);
  Execution E(MM, P, tracePeakLiveWords(Trace));
  ExecutionResult R = E.run();
  EXPECT_GE(MM.numMerges(), 1u);
  EXPECT_EQ(R.MovedWords, 32u) << "one merge: the source chunk popcount";
  EXPECT_EQ(R.HeapSize, 128u) << "the merge kept the final alloc below HWM";

  // Regenerate the committed golden reproducer with:
  //   PCB_REGEN_GOLDEN=<repo>/tests/golden ./fuzz_test
  if (const char *Dir = std::getenv("PCB_REGEN_GOLDEN")) {
    const PolicyRunResult *Meshing = nullptr;
    for (const PolicyRunResult &Run : Report.Runs)
      if (Run.Policy == "meshing")
        Meshing = &Run;
    ASSERT_NE(Meshing, nullptr);
    std::ofstream OS(std::string(Dir) + "/chunk-merge-meshing.trace");
    ASSERT_TRUE(OS.good());
    DifferentialHarness::writeReproducer(OS, S, *Meshing);
  }
}

// The committed merge reproducer: reading it back must still drive the
// meshing compactor into a merge, and the full policy gauntlet must stay
// clean on it.
TEST(GoldenChunkMerge, CommittedReproducerStillMerges) {
  std::ifstream IS(std::string(PCB_TEST_DATA_DIR) +
                   "/chunk-merge-meshing.trace");
  ASSERT_TRUE(IS.good()) << "missing golden chunk-merge reproducer";
  EventLog Log;
  std::string Error;
  ASSERT_TRUE(readEventLog(IS, Log, &Error)) << Error;
  std::vector<TraceOp> Trace = Log.toTrace();

  Heap H;
  MeshingCompactor MM(H, 4.0);
  TraceReplayProgram P(Trace);
  Execution E(MM, P, tracePeakLiveWords(Trace));
  ExecutionResult R = E.run();
  EXPECT_GE(MM.numMerges(), 1u) << "the committed trace no longer merges";
  EXPECT_EQ(R.MovedWords, 32u);

  DifferentialHarness::Options O;
  O.C = 4.0; // default policies: the whole factory family
  DifferentialReport Report = DifferentialHarness(O).run(
      scheduleFromTrace(Trace, 0, "crafted-chunk-merge"));
  EXPECT_TRUE(Report.clean()) << Report.summary();
}

// Policies that fix their own quota record it in the reproducer header:
// 0, the ledger's unlimited, for sliding-unlimited and the reallocation
// family. The committed files are the writer's output byte for byte, and
// ctest cli_replay_fixed_quota_* replays each with exit 0, so the writer
// and `pcbound replay` cannot drift apart. Regenerate them with:
//   PCB_REGEN_GOLDEN=<repo>/tests/golden ./fuzz_test
TEST(Reproducer, FixedQuotaHeadersMatchCommittedFiles) {
  DifferentialHarness::Options O;
  O.C = 4.0;
  O.Policies = {"sliding-unlimited", "realloc-bucket"};
  FuzzSchedule S = chunkMergeSchedule();
  DifferentialReport Report = DifferentialHarness(O).run(S);
  ASSERT_TRUE(Report.clean()) << Report.summary();
  ASSERT_EQ(Report.Runs.size(), 2u);
  for (const PolicyRunResult &Run : Report.Runs) {
    std::ostringstream Written;
    DifferentialHarness::writeReproducer(Written, S, Run);
    EXPECT_NE(Written.str().find(" c=0 "), std::string::npos)
        << Written.str();
    std::string Name = "/fixed-quota-" + Run.Policy + ".trace";
    if (const char *Dir = std::getenv("PCB_REGEN_GOLDEN")) {
      std::ofstream OS(std::string(Dir) + Name);
      ASSERT_TRUE(OS.good());
      OS << Written.str();
    }
    std::ifstream IS(std::string(PCB_TEST_DATA_DIR) + Name);
    ASSERT_TRUE(IS.good()) << "missing " << Name;
    std::stringstream Committed;
    Committed << IS.rdbuf();
    EXPECT_EQ(Written.str(), Committed.str()) << Name;
  }
}

// Shrinking with a custom predicate: minimize to "at least 3 allocs"
// (a monotone-ish property with a known-size minimum).
TEST(Shrink, CustomPredicateFindsMinimum) {
  DifferentialHarness Harness;
  FuzzSchedule S =
      WorkloadFuzzer(baseOptions(55, WorkloadFuzzer::Pattern::Mixed))
          .generate();
  auto AtLeast3Allocs = [](const FuzzSchedule &Cand) {
    size_t Allocs = 0;
    for (const FuzzOp &Op : Cand.Ops)
      Allocs += Op.Op == FuzzOp::Kind::Alloc;
    return Allocs >= 3;
  };
  ASSERT_TRUE(AtLeast3Allocs(S));
  FuzzSchedule Minimal = Harness.shrink(S, AtLeast3Allocs);
  EXPECT_EQ(Minimal.size(), 3u);
  // The size-halving phase drives every surviving allocation to 1 word.
  for (const FuzzOp &Op : Minimal.Ops)
    EXPECT_EQ(Op.Size, 1u);
}

} // namespace
