//===- tests/audit_test.cpp - Event log, auditors, metrics ---------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// The auditors re-derive every statistic from a recorded event stream
// with independent data structures; these tests use them as a witness
// that the heap's counters — which feed HS(A, P) and the compaction
// ledger — are honest, across every manager and adversary combination.
//
//===----------------------------------------------------------------------===//

#include "adversary/CohenPetrankProgram.h"
#include "adversary/RobsonProgram.h"
#include "adversary/SyntheticWorkloads.h"
#include "driver/Auditors.h"
#include "driver/EventLog.h"
#include "driver/Execution.h"
#include "driver/TraceIO.h"
#include "heap/Metrics.h"
#include "mm/ManagerFactory.h"
#include "mm/SequentialFitManagers.h"
#include "support/MathUtils.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

using namespace pcb;

namespace {

// --- EventLog basics -------------------------------------------------------

TEST(EventLog, RecordsHeapMutations) {
  Heap H;
  EventLog Log;
  H.setEventCallback([&](const HeapEvent &E) { Log.record(E); });
  ObjectId A = H.place(0, 8);
  H.move(A, 16);
  H.free(A);
  ASSERT_EQ(Log.size(), 3u);
  EXPECT_EQ(Log.events()[0].Event, HeapEvent::Kind::Alloc);
  EXPECT_EQ(Log.events()[1].Event, HeapEvent::Kind::Move);
  EXPECT_EQ(Log.events()[1].From, 0u);
  EXPECT_EQ(Log.events()[1].Address, 16u);
  EXPECT_EQ(Log.events()[2].Event, HeapEvent::Kind::Free);
  EXPECT_EQ(Log.events()[2].Address, 16u);
}

TEST(EventLog, ToTraceKeepsProgramBehaviourOnly) {
  EventLog Log;
  Log.record(HeapEvent::alloc(0, 0, 8));
  Log.record(HeapEvent::alloc(1, 8, 4));
  Log.record(HeapEvent::move(0, 0, 32, 8));
  Log.record(HeapEvent::release(0, 32, 8));
  Log.record(HeapEvent::stepEnd());
  std::vector<TraceOp> Trace = Log.toTrace();
  ASSERT_EQ(Trace.size(), 3u);
  EXPECT_EQ(Trace[0].Op, TraceOp::Kind::Alloc);
  EXPECT_EQ(Trace[0].Value, 8u);
  EXPECT_EQ(Trace[1].Op, TraceOp::Kind::Alloc);
  EXPECT_EQ(Trace[2].Op, TraceOp::Kind::Free);
  EXPECT_EQ(Trace[2].Value, 0u); // frees the first allocation
}

// --- Auditors ---------------------------------------------------------------

TEST(Auditors, CleanStreamMatchesByHand) {
  std::vector<HeapEvent> Events = {
      HeapEvent::alloc(0, 0, 10),   HeapEvent::alloc(1, 10, 6),
      HeapEvent::release(0, 0, 10), HeapEvent::alloc(2, 0, 4),
      HeapEvent::move(1, 10, 4, 6),
  };
  AuditReport R = auditEvents(Events);
  EXPECT_TRUE(R.Consistent);
  EXPECT_EQ(R.HighWaterMark, 16u);
  EXPECT_EQ(R.LiveWords, 10u);
  EXPECT_EQ(R.PeakLiveWords, 16u);
  EXPECT_EQ(R.TotalAllocatedWords, 20u);
  EXPECT_EQ(R.MovedWords, 6u);
  EXPECT_EQ(R.NumAllocations, 3u);
  EXPECT_EQ(R.NumFrees, 1u);
  EXPECT_EQ(R.NumMoves, 1u);
}

TEST(Auditors, DetectsDoubleFree) {
  std::vector<HeapEvent> Events = {
      HeapEvent::alloc(0, 0, 4),
      HeapEvent::release(0, 0, 4),
      HeapEvent::release(0, 0, 4),
  };
  EXPECT_FALSE(auditEvents(Events).Consistent);
}

TEST(Auditors, DetectsOverlappingPlacement) {
  std::vector<HeapEvent> Events = {
      HeapEvent::alloc(0, 0, 8),
      HeapEvent::alloc(1, 4, 8),
  };
  EXPECT_FALSE(auditEvents(Events).Consistent);
}

TEST(Auditors, DetectsMoveOfDeadObject) {
  std::vector<HeapEvent> Events = {
      HeapEvent::alloc(0, 0, 4),
      HeapEvent::release(0, 0, 4),
      HeapEvent::move(0, 0, 8, 4),
  };
  EXPECT_FALSE(auditEvents(Events).Consistent);
}

TEST(Auditors, AcceptsOverlappingSlide) {
  std::vector<HeapEvent> Events = {
      HeapEvent::alloc(0, 4, 10),
      HeapEvent::move(0, 4, 0, 10), // memmove-style downward slide
  };
  EXPECT_TRUE(auditEvents(Events).Consistent);
}

TEST(Auditors, BudgetHistoryCatchesMidRunBreach) {
  // Final state is within budget, but the move happened before enough
  // allocation had funded it.
  std::vector<HeapEvent> Events = {
      HeapEvent::alloc(0, 0, 10),
      HeapEvent::move(0, 0, 16, 10),  // moved 10 of 10 allocated: breach
      HeapEvent::alloc(1, 32, 990),   // funding arrives too late
  };
  EXPECT_FALSE(auditBudgetHistory(Events, 2.0));
  // The same prefix is fine with unlimited budget.
  EXPECT_TRUE(auditBudgetHistory(Events, 0.0));
  // And fine when the allocation comes first.
  std::vector<HeapEvent> Reordered = {
      HeapEvent::alloc(1, 32, 990),
      HeapEvent::alloc(0, 0, 10),
      HeapEvent::move(0, 0, 1024, 10),
  };
  EXPECT_TRUE(auditBudgetHistory(Reordered, 2.0));
}

TEST(Auditors, BudgetHistoryIsExactPast2To53) {
  // 2^53 + 3 words allocated at c = 1 fund exactly 2^53 + 3 moved words.
  // A double quotient rounds the budget up to 2^53 + 4 and misses the
  // one-word breach below.
  const uint64_t Big = (uint64_t(1) << 53) + 2;
  std::vector<HeapEvent> Events = {
      HeapEvent::alloc(0, 0, Big),
      HeapEvent::alloc(1, Big, 1),
      HeapEvent::move(0, 0, uint64_t(1) << 54, Big),
      HeapEvent::move(1, Big, uint64_t(1) << 55, 1),
  };
  EXPECT_TRUE(auditBudgetHistory(Events, 1.0));
  Events.push_back(
      HeapEvent::move(1, uint64_t(1) << 55, (uint64_t(1) << 55) + 8, 1));
  EXPECT_FALSE(auditBudgetHistory(Events, 1.0));
}

// --- End-to-end: every execution audits clean -------------------------------

struct AuditCase {
  const char *Program;
  const char *Policy;
  double C;
};

class ExecutionAudit : public ::testing::TestWithParam<AuditCase> {};

TEST_P(ExecutionAudit, StatsMatchAndBudgetHeldThroughout) {
  AuditCase Case = GetParam();
  const uint64_t M = pow2(12);
  const uint64_t N = pow2(7);
  Heap H;
  auto MM = createManager(Case.Policy, H, Case.C);
  ASSERT_NE(MM, nullptr);

  std::unique_ptr<Program> Prog;
  if (std::string(Case.Program) == "robson")
    Prog = std::make_unique<RobsonProgram>(M, log2Exact(N));
  else if (std::string(Case.Program) == "cohen-petrank")
    Prog = std::make_unique<CohenPetrankProgram>(M, N, Case.C);
  else {
    RandomChurnProgram::Options Opts;
    Opts.Steps = 24;
    Opts.MaxLogSize = 6;
    Prog = std::make_unique<RandomChurnProgram>(M, Opts);
  }

  EventLog Log;
  Execution::Options Opts;
  Opts.Log = &Log;
  Execution E(*MM, *Prog, M, Opts);
  E.run();

  AuditReport R = auditEvents(Log.events());
  EXPECT_TRUE(R.Consistent);
  EXPECT_TRUE(R.matches(H.stats()));
  EXPECT_TRUE(auditBudgetHistory(Log.events(), Case.C));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ExecutionAudit,
    ::testing::Values(AuditCase{"robson", "first-fit", 1e18},
                      AuditCase{"robson", "evacuating", 5.0},
                      AuditCase{"cohen-petrank", "first-fit", 20.0},
                      AuditCase{"cohen-petrank", "evacuating", 20.0},
                      AuditCase{"cohen-petrank", "sliding", 20.0},
                      AuditCase{"cohen-petrank", "hybrid", 20.0},
                      AuditCase{"churn", "best-fit", 10.0},
                      AuditCase{"churn", "buddy", 10.0}),
    [](const ::testing::TestParamInfo<AuditCase> &Info) {
      std::string Name = std::string(Info.param.Program) + "_" +
                         Info.param.Policy;
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

// --- Cross-manager replay ----------------------------------------------------

TEST(Replay, AdversaryTraceHurtsNonMovingManagerEqually) {
  // Record PF against first fit, replay the identical allocation/free
  // sequence through TraceReplayProgram against a fresh first fit: the
  // deterministic manager must produce the identical footprint.
  const uint64_t M = pow2(12);
  const uint64_t N = pow2(7);
  EventLog Log;
  uint64_t DirectHS;
  {
    Heap H;
    FirstFitManager MM(H, 1e18);
    CohenPetrankProgram PF(M, N, 20.0);
    Execution::Options Opts;
    Opts.Log = &Log;
    Execution E(MM, PF, M, Opts);
    DirectHS = E.run().HeapSize;
  }
  {
    Heap H;
    FirstFitManager MM(H, 1e18);
    TraceReplayProgram Replay(Log.toTrace());
    Execution E(MM, Replay, M);
    EXPECT_EQ(E.run().HeapSize, DirectHS);
  }
}

TEST(Replay, TraceIsManagerPortable) {
  // The recorded trace is a plain program: it must run cleanly (and
  // within the live bound) under every manager policy.
  const uint64_t M = pow2(11);
  const uint64_t N = pow2(6);
  EventLog Log;
  {
    Heap H;
    FirstFitManager MM(H, 1e18);
    RobsonProgram PR(M, log2Exact(N));
    Execution::Options Opts;
    Opts.Log = &Log;
    Execution E(MM, PR, M, Opts);
    E.run();
  }
  std::vector<TraceOp> Trace = Log.toTrace();
  for (const std::string &Policy : allManagerPolicies()) {
    Heap H;
    auto MM = createManager(Policy, H, 10.0, /*LiveBound=*/M);
    TraceReplayProgram Replay(Trace);
    Execution E(*MM, Replay, M);
    ExecutionResult R = E.run();
    EXPECT_LE(R.PeakLiveWords, M) << Policy;
    EXPECT_GE(R.HeapSize, R.PeakLiveWords) << Policy;
  }
}

// --- Trace text serialization -------------------------------------------------

TEST(TraceIO, RoundTrip) {
  EventLog Log;
  Log.record(HeapEvent::alloc(0, 0, 8));
  Log.record(HeapEvent::move(0, 0, 16, 8));
  Log.record(HeapEvent::stepEnd());
  Log.record(HeapEvent::release(0, 16, 8));

  std::stringstream SS;
  writeEventLog(SS, Log);
  EventLog Back;
  ASSERT_TRUE(readEventLog(SS, Back));
  ASSERT_EQ(Back.size(), Log.size());
  for (size_t I = 0; I != Log.size(); ++I) {
    const HeapEvent &A = Log.events()[I];
    const HeapEvent &B = Back.events()[I];
    EXPECT_EQ(A.Event, B.Event) << I;
    EXPECT_EQ(A.Id, B.Id) << I;
    EXPECT_EQ(A.Address, B.Address) << I;
    EXPECT_EQ(A.From, B.From) << I;
    EXPECT_EQ(A.Size, B.Size) << I;
  }
}

TEST(TraceIO, ToleratesCommentsAndBlankLines) {
  std::stringstream SS("# header\n\nA 0 0 4\nS\n# trailer\n");
  EventLog Log;
  ASSERT_TRUE(readEventLog(SS, Log));
  ASSERT_EQ(Log.size(), 2u);
  EXPECT_EQ(Log.events()[0].Event, HeapEvent::Kind::Alloc);
}

TEST(TraceIO, RejectsMalformedLines) {
  for (const char *Bad : {"X 1 2 3\n", "A 1 2\n", "M 1 2 3\n",
                          "A 1 2 3 junk\n", "A one 2 3\n"}) {
    std::stringstream SS(Bad);
    EventLog Log;
    EXPECT_FALSE(readEventLog(SS, Log)) << Bad;
    EXPECT_TRUE(Log.empty()) << Bad;
  }
}

TEST(TraceIO, RecordedExecutionRoundTripsAndAuditsClean) {
  const uint64_t M = pow2(11);
  EventLog Log;
  {
    Heap H;
    auto MM = createManager("evacuating", H, 10.0);
    CohenPetrankProgram PF(M, pow2(6), 10.0);
    Execution::Options Opts;
    Opts.Log = &Log;
    Execution E(*MM, PF, M, Opts);
    E.run();
  }
  std::stringstream SS;
  writeEventLog(SS, Log);
  EventLog Back;
  ASSERT_TRUE(readEventLog(SS, Back));
  AuditReport Original = auditEvents(Log.events());
  AuditReport Reloaded = auditEvents(Back.events());
  EXPECT_TRUE(Reloaded.Consistent);
  EXPECT_EQ(Original.HighWaterMark, Reloaded.HighWaterMark);
  EXPECT_EQ(Original.MovedWords, Reloaded.MovedWords);
  EXPECT_EQ(Original.TotalAllocatedWords, Reloaded.TotalAllocatedWords);
}

// The full record -> write -> read -> replay loop: re-executing the
// reloaded trace must reproduce the original run's statistics exactly,
// and the auditor must agree with both.
TEST(TraceIO, ReplayOfReloadedTraceReproducesStats) {
  const uint64_t M = pow2(11);
  EventLog Log;
  HeapStats Original;
  {
    Heap H;
    auto MM = createManager("first-fit", H, 50.0);
    RandomChurnProgram::Options CO;
    CO.Seed = 17;
    CO.MaxLogSize = 5;
    RandomChurnProgram Churn(M, CO);
    Execution::Options Opts;
    Opts.Log = &Log;
    Execution E(*MM, Churn, M, Opts);
    E.run();
    Original = H.stats();
  }

  std::stringstream SS;
  writeEventLog(SS, Log);
  EventLog Back;
  std::string Error;
  ASSERT_TRUE(readEventLog(SS, Back, &Error)) << Error;

  Heap H;
  auto MM = createManager("first-fit", H, 50.0);
  TraceReplayProgram Replay(Back.toTrace());
  Execution E(*MM, Replay, M);
  E.run();
  const HeapStats &Replayed = H.stats();
  EXPECT_EQ(Replayed.HighWaterMark, Original.HighWaterMark);
  EXPECT_EQ(Replayed.LiveWords, Original.LiveWords);
  EXPECT_EQ(Replayed.PeakLiveWords, Original.PeakLiveWords);
  EXPECT_EQ(Replayed.TotalAllocatedWords, Original.TotalAllocatedWords);
  EXPECT_EQ(Replayed.NumAllocations, Original.NumAllocations);
  EXPECT_EQ(Replayed.NumFrees, Original.NumFrees);
  EXPECT_EQ(Replayed.MovedWords, Original.MovedWords);

  AuditReport Audit = auditEvents(Back.events());
  EXPECT_TRUE(Audit.Consistent);
  EXPECT_TRUE(Audit.matches(Original));
}

TEST(TraceIO, DiagnosticNamesTheOffendingLine) {
  struct Case {
    const char *Input;
    const char *ExpectedFragment;
  };
  for (const Case &C : {
           Case{"# ok\nA 0 0 4\nX 1 2 3\n", "line 3: unknown record"},
           Case{"A 0 0\n", "line 1: truncated or malformed allocation"},
           Case{"A 0 0 4\nF 0 0\n", "line 2: truncated or malformed free"},
           Case{"M 0 1 2\n", "line 1: truncated or malformed move"},
           Case{"A 0 0 4 junk\n", "line 1: trailing characters"},
       }) {
    std::stringstream SS(C.Input);
    EventLog Log;
    std::string Error;
    EXPECT_FALSE(readEventLog(SS, Log, &Error)) << C.Input;
    EXPECT_NE(Error.find(C.ExpectedFragment), std::string::npos)
        << "got '" << Error << "' for input " << C.Input;
    EXPECT_TRUE(Log.empty()) << C.Input;
  }
}

// A file cut off mid-record (e.g. a crashed writer) is rejected with a
// diagnostic pointing at the truncation, not silently half-loaded.
TEST(TraceIO, RejectsTruncatedFile) {
  EventLog Log;
  Log.record(HeapEvent::alloc(0, 0, 8));
  Log.record(HeapEvent::alloc(1, 8, 4));
  Log.record(HeapEvent::release(0, 0, 8));
  std::stringstream SS;
  writeEventLog(SS, Log);
  std::string Text = SS.str();
  std::string Truncated = Text.substr(0, Text.rfind(' ') + 1);
  ASSERT_LT(Truncated.size(), Text.size());

  std::stringstream In(Truncated);
  EventLog Back;
  std::string Error;
  EXPECT_FALSE(readEventLog(In, Back, &Error));
  EXPECT_NE(Error.find("line 3"), std::string::npos) << Error;
  EXPECT_TRUE(Back.empty());
}

// --- Fragmentation metrics ----------------------------------------------------

// An empty heap measures as all zeros — including Utilization, which
// used to default to 1.0 and make timelines start from a phantom full
// heap. Regression test for the all-zero contract.
TEST(Metrics, EmptyHeap) {
  Heap H;
  FragmentationMetrics M = measureFragmentation(H);
  EXPECT_EQ(M.FootprintWords, 0u);
  EXPECT_EQ(M.LiveWords, 0u);
  EXPECT_EQ(M.FreeWords, 0u);
  EXPECT_EQ(M.FreeBlocks, 0u);
  EXPECT_EQ(M.LargestFreeBlock, 0u);
  EXPECT_DOUBLE_EQ(M.Utilization, 0.0);
  EXPECT_DOUBLE_EQ(M.ExternalFragmentation, 0.0);
}

TEST(Metrics, ByHand) {
  Heap H;
  ObjectId A = H.place(0, 8);
  H.place(8, 8);
  H.place(16, 8);
  H.free(A);
  FragmentationMetrics M = measureFragmentation(H);
  EXPECT_EQ(M.FootprintWords, 24u);
  EXPECT_EQ(M.LiveWords, 16u);
  EXPECT_EQ(M.FreeWords, 8u);
  EXPECT_EQ(M.FreeBlocks, 1u);
  EXPECT_EQ(M.LargestFreeBlock, 8u);
  EXPECT_DOUBLE_EQ(M.Utilization, 16.0 / 24.0);
  EXPECT_DOUBLE_EQ(M.ExternalFragmentation, 0.0);
}

TEST(Metrics, ExternalFragmentationRises) {
  Heap H;
  // Shattered free space: 4 one-word holes.
  std::vector<ObjectId> Ids;
  for (int I = 0; I != 8; ++I)
    Ids.push_back(H.place(Addr(I) * 2, 1)); // at 0, 2, 4, ...
  for (int I = 0; I != 8; ++I)
    H.place(Addr(I) * 2 + 1, 1);
  for (int I = 0; I != 4; ++I)
    H.free(Ids[I]);
  FragmentationMetrics M = measureFragmentation(H);
  EXPECT_EQ(M.FreeWords, 4u);
  EXPECT_EQ(M.FreeBlocks, 4u);
  EXPECT_EQ(M.LargestFreeBlock, 1u);
  EXPECT_DOUBLE_EQ(M.ExternalFragmentation, 0.75);
}

TEST(Metrics, AdversaryDrivesFragmentationUp) {
  const uint64_t M = pow2(11);
  Heap H;
  FirstFitManager MM(H, 1e18);
  RobsonProgram PR(M, 5);
  Execution E(MM, PR, M);
  E.run();
  FragmentationMetrics Metrics = measureFragmentation(H);
  // Robson's endgame leaves a heavily shattered heap.
  EXPECT_LT(Metrics.Utilization, 0.5);
  EXPECT_GT(Metrics.FreeBlocks, 10u);
}

// --- The no-stage1 ablation knob -------------------------------------------

TEST(CohenPetrankAblation, NoStageOneWeakensTheAttack) {
  const uint64_t M = pow2(14);
  const uint64_t N = pow2(8);
  const double C = 50.0;
  auto RunWith = [&](bool Bootstrap) {
    Heap H;
    auto MM = createManager("first-fit", H, C);
    CohenPetrankProgram::Options Opts;
    Opts.RobsonBootstrap = Bootstrap;
    CohenPetrankProgram PF(M, N, C, Opts);
    Execution E(*MM, PF, M);
    return E.run().HeapSize;
  };
  // The Robson stage one is the paper's first improvement; without it
  // the forced footprint must not increase.
  EXPECT_GE(RunWith(true), RunWith(false));
}

} // namespace
