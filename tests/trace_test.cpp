//===- tests/trace_test.cpp - Trace engine and budget controllers --------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// Four layers of confidence in the trace engine:
//
//   1. Wire format: both framings round-trip op-for-op and stat-for-stat,
//      and every class of structural or schedule damage is rejected with
//      a diagnostic naming the offending line (text) or record (binary).
//   2. Streaming: a million-op trace streamed through the full stack is
//      byte-identical to the same trace materialized and replayed, while
//      the reader's and program's only trace-size-dependent state (the
//      live-id window) stays bounded by the schedule's live volume.
//   3. Controllers: the square-root rule is checked against hand-computed
//      targets, the fixed trigger is byte-identical to an ungated run,
//      and an attached controller really gates the manager's moves.
//   4. Cross-policy: every controller preserves the differential
//      harness's manager-independence invariants across the whole policy
//      family, and trace-backed fuzz windows are well-formed schedules.
//
//===----------------------------------------------------------------------===//

#include "adversary/SyntheticWorkloads.h"
#include "driver/Execution.h"
#include "fuzz/DifferentialHarness.h"
#include "fuzz/WorkloadFuzzer.h"
#include "heap/Heap.h"
#include "mm/ManagerFactory.h"
#include "trace/BudgetController.h"
#include "trace/TraceFormat.h"
#include "trace/TraceReader.h"
#include "trace/TraceRecorder.h"
#include "trace/TraceRun.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

using namespace pcb;

namespace {

/// A small schedule exercising id reuse: ids name allocations, so id 1
/// may come back after its free.
std::vector<MallocOp> sampleOps() {
  using K = MallocOp::Kind;
  return {
      {K::Alloc, 1, 8}, {K::Alloc, 2, 3},  {K::Free, 1, 0},
      {K::Alloc, 1, 5}, {K::Alloc, 7, 16}, {K::Free, 2, 0},
      {K::Free, 1, 0},  {K::Alloc, 3, 1},
  };
}

std::string serialize(const std::vector<MallocOp> &Ops, TraceFraming F) {
  std::ostringstream OS;
  TraceWriter W(OS, F);
  for (const MallocOp &Op : Ops)
    W.record(Op);
  EXPECT_TRUE(W.good());
  return OS.str();
}

std::vector<MallocOp> readAll(TraceReader &R) {
  std::vector<MallocOp> Ops;
  MallocOp Op;
  while (R.next(Op))
    Ops.push_back(Op);
  return Ops;
}

/// Expects the reader over \p Text to fail with \p Diagnostic somewhere
/// in its error message.
void expectRejected(const std::string &Text, const std::string &Diagnostic) {
  std::istringstream IS(Text);
  TraceReader R(IS);
  readAll(R);
  ASSERT_TRUE(R.failed()) << "accepted damaged input: " << Text;
  EXPECT_NE(R.error().find(Diagnostic), std::string::npos)
      << "diagnostic '" << R.error() << "' lacks '" << Diagnostic << "'";
}

} // namespace

//===----------------------------------------------------------------------===//
// 1. Wire format: round trips
//===----------------------------------------------------------------------===//

TEST(TraceFormat, TextRoundtripStatIdentity) {
  std::istringstream IS(serialize(sampleOps(), TraceFraming::Text));
  TraceReader R(IS);
  std::vector<MallocOp> Ops = readAll(R);
  ASSERT_FALSE(R.failed()) << R.error();
  EXPECT_EQ(R.framing(), TraceFraming::Text);
  EXPECT_EQ(Ops.size(), sampleOps().size());
  EXPECT_EQ(R.numAllocs(), 5u);
  EXPECT_EQ(R.numFrees(), 3u);
  EXPECT_EQ(R.allocatedWords(), 8u + 3 + 5 + 16 + 1);
  // Peak live: {1:8,2:3} -> 11, then {2:3,1:5,7:16} -> 24.
  EXPECT_EQ(R.peakLiveWords(), 24u);
  EXPECT_EQ(R.liveWords(), 16u + 1);
  EXPECT_EQ(R.maxLiveWindow(), 3u);
}

TEST(TraceFormat, BinaryRoundtripStatIdentity) {
  std::string Blob = serialize(sampleOps(), TraceFraming::Binary);
  EXPECT_EQ(Blob.compare(0, 4, "PCBT"), 0);
  std::istringstream IS(Blob);
  TraceReader R(IS);
  std::vector<MallocOp> Ops = readAll(R);
  ASSERT_FALSE(R.failed()) << R.error();
  EXPECT_EQ(R.framing(), TraceFraming::Binary);
  EXPECT_EQ(Ops.size(), sampleOps().size());
  EXPECT_EQ(R.numAllocs(), 5u);
  EXPECT_EQ(R.numFrees(), 3u);
  EXPECT_EQ(R.allocatedWords(), 33u);
  EXPECT_EQ(R.peakLiveWords(), 24u);
}

TEST(TraceFormat, FramingsCarryIdenticalOps) {
  std::istringstream TextIS(serialize(sampleOps(), TraceFraming::Text));
  std::istringstream BinIS(serialize(sampleOps(), TraceFraming::Binary));
  TraceReader TextR(TextIS), BinR(BinIS);
  std::vector<MallocOp> TextOps = readAll(TextR), BinOps = readAll(BinR);
  ASSERT_FALSE(TextR.failed()) << TextR.error();
  ASSERT_FALSE(BinR.failed()) << BinR.error();
  ASSERT_EQ(TextOps.size(), BinOps.size());
  for (size_t I = 0; I != TextOps.size(); ++I) {
    EXPECT_EQ(TextOps[I].Op, BinOps[I].Op) << "op " << I;
    EXPECT_EQ(TextOps[I].Id, BinOps[I].Id) << "op " << I;
    EXPECT_EQ(TextOps[I].Size, BinOps[I].Size) << "op " << I;
  }
}

TEST(TraceFormat, FreeRecordsCarrySizeFromLiveWindow) {
  std::istringstream IS(serialize(sampleOps(), TraceFraming::Text));
  TraceReader R(IS);
  std::vector<MallocOp> Ops = readAll(R);
  ASSERT_FALSE(R.failed()) << R.error();
  // Op 2 frees the first incarnation of id 1 (8 words); op 6 frees the
  // second (5 words) — the reader restores sizes from its live window.
  EXPECT_EQ(Ops[2].Size, 8u);
  EXPECT_EQ(Ops[5].Size, 3u);
  EXPECT_EQ(Ops[6].Size, 5u);
}

TEST(TraceFormat, CommentsAndBlankLinesSkipped) {
  std::istringstream IS("pcbtrace 1 text\n# a comment\n\na 4 10\n"
                        "  \n# more\nf 4\n");
  TraceReader R(IS);
  std::vector<MallocOp> Ops = readAll(R);
  ASSERT_FALSE(R.failed()) << R.error();
  EXPECT_EQ(Ops.size(), 2u);
  EXPECT_EQ(R.allocatedWords(), 10u);

  // The writer's comment() surface: visible in text, absent in binary.
  std::ostringstream TextOS, BinOS;
  TraceWriter TW(TextOS, TraceFraming::Text), BW(BinOS, TraceFraming::Binary);
  TW.comment("hello");
  BW.comment("hello");
  EXPECT_NE(TextOS.str().find("# hello"), std::string::npos);
  EXPECT_EQ(BinOS.str().find("hello"), std::string::npos);
}

TEST(TraceFormat, FramingNamesRoundTrip) {
  EXPECT_EQ(framingName(TraceFraming::Text), "text");
  EXPECT_EQ(framingName(TraceFraming::Binary), "binary");
  TraceFraming F = TraceFraming::Text;
  EXPECT_TRUE(parseFraming("binary", F));
  EXPECT_EQ(F, TraceFraming::Binary);
  EXPECT_TRUE(parseFraming("text", F));
  EXPECT_EQ(F, TraceFraming::Text);
  EXPECT_FALSE(parseFraming("csv", F));
}

//===----------------------------------------------------------------------===//
// 1b. Wire format: rejection diagnostics
//===----------------------------------------------------------------------===//

TEST(TraceReject, EmptyStream) {
  expectRejected("", "missing pcbtrace header");
}

TEST(TraceReject, AlienHeader) {
  expectRejected("malloc 1 text\na 1 4\n", "pcbtrace header");
}

TEST(TraceReject, UnsupportedTextVersion) {
  expectRejected("pcbtrace 99 text\n", "unsupported version 99");
}

TEST(TraceReject, UnsupportedBinaryVersion) {
  std::string Blob = "PCBT";
  Blob.push_back(char(9));
  expectRejected(Blob, "unsupported version 9");
}

TEST(TraceReject, TrailingHeaderGarbage) {
  expectRejected("pcbtrace 1 text nonsense\n", "trailing characters");
}

TEST(TraceReject, MalformedRecordNamesItsLine) {
  // Line 1 header, line 2 fine, line 3 is an alloc missing its size.
  expectRejected("pcbtrace 1 text\na 1 4\na 2\n", "line 3");
}

TEST(TraceReject, UnknownRecordType) {
  expectRejected("pcbtrace 1 text\nx 1 4\n", "unknown record type 'x'");
}

TEST(TraceReject, TrailingRecordGarbage) {
  expectRejected("pcbtrace 1 text\na 1 4 9\n", "trailing characters");
}

TEST(TraceReject, ZeroSizeAllocation) {
  expectRejected("pcbtrace 1 text\na 1 0\n", "zero-word allocation");
}

TEST(TraceReject, AllocationOfLiveId) {
  expectRejected("pcbtrace 1 text\na 1 4\na 1 2\n",
                 "allocation of id 1");
}

TEST(TraceReject, FreeOfUnknownId) {
  expectRejected("pcbtrace 1 text\nf 3\n",
                 "free of unknown or already-freed id 3");
}

TEST(TraceReject, DoubleFree) {
  expectRejected("pcbtrace 1 text\na 1 4\nf 1\nf 1\n",
                 "free of unknown or already-freed id 1");
}

TEST(TraceReject, LiveVolumePastAddressSpace) {
  // 2^60 - 1 live words leave no room for 8 more: rejected at the reader
  // instead of reaching the manager as an impossible placement.
  expectRejected("pcbtrace 1 text\na 0 1152921504606846975\na 1 8\n",
                 "line 3: allocation of 8 words (id 1) exceeds");
}

TEST(TraceReject, LiveVolumeExactlyFillingAddressSpaceIsAccepted) {
  // 2^60 - 8 + 8 words live is the whole address space, not past it.
  std::istringstream IS(
      "pcbtrace 1 text\na 0 1152921504606846968\na 1 8\n");
  TraceReader R(IS);
  EXPECT_EQ(readAll(R).size(), 2u);
  EXPECT_FALSE(R.failed()) << R.error();
}

TEST(TraceReject, CommittedOversizeTraceFailsTheRunCleanly) {
  std::ifstream IS(std::string(PCB_TEST_DATA_DIR) + "/oversize.mtrace");
  ASSERT_TRUE(IS.good()) << "missing golden oversize.mtrace";
  TraceReader R(IS);
  EXPECT_THROW(runTrace(R, TraceRunOptions(), "oversize.mtrace"),
               std::runtime_error);
}

TEST(TraceReject, TruncatedBinaryRecordNamesItsOrdinal) {
  std::vector<MallocOp> Ops = sampleOps();
  std::string Blob = serialize(Ops, TraceFraming::Binary);
  // Chop mid-way through the final record's varints.
  std::istringstream IS(Blob.substr(0, Blob.size() - 1));
  TraceReader R(IS);
  readAll(R);
  ASSERT_TRUE(R.failed());
  EXPECT_NE(R.error().find("record " + std::to_string(Ops.size())),
            std::string::npos)
      << R.error();
}

TEST(TraceReject, UnknownBinaryTag) {
  std::string Blob = "PCBT";
  Blob.push_back(char(TraceFormatVersion));
  Blob.push_back(char(7)); // neither alloc (1) nor free (2)
  expectRejected(Blob, "unknown record tag 7");
}

TEST(TraceReject, FailureIsSticky) {
  std::istringstream IS("pcbtrace 1 text\nf 3\na 1 4\n");
  TraceReader R(IS);
  MallocOp Op;
  EXPECT_FALSE(R.next(Op));
  ASSERT_TRUE(R.failed());
  std::string FirstError = R.error();
  // Valid records after the damage must not resurrect the stream.
  EXPECT_FALSE(R.next(Op));
  EXPECT_EQ(R.error(), FirstError);
  EXPECT_EQ(R.opsRead(), 0u);
}

TEST(TraceReject, MaterializeSurfacesReaderError) {
  std::istringstream IS("pcbtrace 1 text\na 1 4\nf 9\n");
  TraceReader R(IS);
  std::string Error;
  EXPECT_TRUE(materializeTrace(R, &Error).empty());
  EXPECT_NE(Error.find("line 3"), std::string::npos) << Error;
}

//===----------------------------------------------------------------------===//
// 2. Streaming replay
//===----------------------------------------------------------------------===//

TEST(TraceStreaming, MillionOpStreamMatchesMaterializedReplay) {
  // A million-op sliding-window schedule, pushed through the binary wire
  // format once.
  WorkloadFuzzer::Options FO;
  FO.Seed = 9;
  FO.NumOps = uint64_t(1) << 20;
  FO.P = WorkloadFuzzer::Pattern::QueueFifo;
  std::vector<TraceOp> Schedule = WorkloadFuzzer(FO).generate().materialize();
  std::ostringstream Wire;
  TraceRecorder Rec(Wire, TraceFraming::Binary);
  Rec.record(Schedule);
  ASSERT_TRUE(Rec.good());
  ASSERT_GE(Rec.opsWritten(), uint64_t(1) << 20);

  // Streaming side: the production `pcbound replay` path (fixed gate).
  std::istringstream IS(Wire.str());
  TraceReader R(IS);
  TraceRunOptions RO;
  RO.Policy = "first-fit";
  RO.C = 50.0;
  TraceRunReport Rep = runTrace(R, RO, "wire");

  // Materialized side: the whole schedule in memory, no gate at all.
  Heap H;
  std::unique_ptr<MemoryManager> MM = createManager("first-fit", H, 50.0);
  TraceReplayProgram P(Schedule);
  Execution::Options EO;
  EO.MaxSteps = UINT64_MAX;
  Execution E(*MM, P, uint64_t(1) << 62, EO);
  ExecutionResult Ref = E.run();

  EXPECT_EQ(Rep.Exec.HeapSize, Ref.HeapSize);
  EXPECT_EQ(Rep.Exec.PeakLiveWords, Ref.PeakLiveWords);
  EXPECT_EQ(Rep.Exec.TotalAllocatedWords, Ref.TotalAllocatedWords);
  EXPECT_EQ(Rep.Exec.MovedWords, Ref.MovedWords);
  EXPECT_EQ(Rep.Exec.Steps, Ref.Steps);
  EXPECT_EQ(Rep.Exec.NumAllocations, Ref.NumAllocations);
  EXPECT_EQ(Rep.Exec.NumFrees, Ref.NumFrees);
  EXPECT_EQ(Rep.OpsStreamed, Ref.Steps);

  // The memory bound that makes streaming worthwhile: the only
  // trace-size-dependent state is the live-id window, which the
  // generator's live bound caps at 2^12 one-word objects — three orders
  // of magnitude below the op count.
  EXPECT_LE(Rep.PeakLiveWindow, FO.LiveBound);
  EXPECT_LE(R.maxLiveWindow(), size_t(FO.LiveBound));
  EXPECT_GT(Rep.OpsStreamed, 256 * Rep.PeakLiveWindow);
}

TEST(TraceStreaming, GatedRunWithFixedControllerIsByteIdentical) {
  // The fixed trigger's gate is installed but must change nothing: same
  // moves, same footprint, grant counts equal to the move attempts.
  WorkloadFuzzer::Options FO;
  FO.Seed = 3;
  FO.NumOps = 4096;
  FO.P = WorkloadFuzzer::Pattern::Comb;
  std::vector<TraceOp> Schedule = WorkloadFuzzer(FO).generate().materialize();
  std::ostringstream Wire;
  TraceRecorder Rec(Wire, TraceFraming::Binary);
  Rec.record(Schedule);

  std::istringstream IS(Wire.str());
  TraceReader R(IS);
  TraceRunOptions RO;
  RO.Policy = "evacuating";
  RO.C = 50.0; // Controller defaults to the fixed trigger
  TraceRunReport Rep = runTrace(R, RO, "comb");

  Heap H;
  std::unique_ptr<MemoryManager> MM = createManager("evacuating", H, 50.0);
  TraceReplayProgram P(Schedule);
  Execution::Options EO;
  EO.MaxSteps = UINT64_MAX;
  Execution E(*MM, P, uint64_t(1) << 62, EO);
  ExecutionResult Ref = E.run();

  ASSERT_GE(Ref.NumMoves, 1u) << "schedule too tame to exercise the gate";
  EXPECT_EQ(Rep.Exec.HeapSize, Ref.HeapSize);
  EXPECT_EQ(Rep.Exec.MovedWords, Ref.MovedWords);
  EXPECT_EQ(Rep.Exec.NumMoves, Ref.NumMoves);
  EXPECT_EQ(Rep.Controller, "fixed");
  EXPECT_GE(Rep.ControllerGrants, Rep.Exec.NumMoves);
  EXPECT_EQ(Rep.ControllerDenials, 0u);
}

//===----------------------------------------------------------------------===//
// 3. Budget controllers
//===----------------------------------------------------------------------===//

TEST(Controller, FixedAlwaysGrants) {
  FixedTriggerController C;
  BudgetSample S;
  for (uint64_t Step = 0; Step != 5; ++Step) {
    S.Step = Step;
    C.observe(S);
    EXPECT_TRUE(C.allowSpend());
  }
}

TEST(Controller, PeriodicGatesOnStepModulo) {
  PeriodicController C(4);
  BudgetSample S;
  for (uint64_t Step = 0; Step != 12; ++Step) {
    S.Step = Step;
    C.observe(S);
    EXPECT_EQ(C.allowSpend(), Step % 4 == 0) << "step " << Step;
  }
  // A zero period is clamped to one (always allow), not a division trap.
  PeriodicController Degenerate(0);
  S.Step = 7;
  Degenerate.observe(S);
  EXPECT_TRUE(Degenerate.allowSpend());
}

TEST(Controller, MemBalancerSqrtRuleHandComputed) {
  MemBalancerController::Options O;
  O.C1 = 100.0;
  O.Smoothing = 0.5;
  MemBalancerController C(O);

  // Pre-run sample: no growth signal yet, slack zero -> the MinSlack
  // floor is the target and zero slack is below it.
  BudgetSample S;
  S.Step = 0;
  S.LiveWords = 1000;
  S.FootprintWords = 1000;
  C.observe(S);
  EXPECT_DOUBLE_EQ(C.slackTargetWords(), 64.0);
  EXPECT_FALSE(C.allowSpend());

  // Two steps later live grew by 400: the growth EWMA takes half of the
  // 200 words/step derivative, and the target is
  // sqrt(c1 * L * g / cost) = sqrt(100 * 1400 * 100 / 1) = 3741.657...
  S.Step = 2;
  S.LiveWords = 1400;
  S.FootprintWords = 1500;
  C.observe(S);
  EXPECT_DOUBLE_EQ(C.growthEwma(), 100.0);
  EXPECT_NEAR(C.slackTargetWords(), 3741.6573867739413, 1e-9);
  EXPECT_FALSE(C.allowSpend()) << "slack 100 is under the optimal limit";

  // Live stalls (growth halves to 50) while fragmentation balloons the
  // footprint: slack 4700 now exceeds sqrt(100 * 1400 * 50) = 2645.75...
  S.Step = 4;
  S.LiveWords = 1400;
  S.FootprintWords = 6100;
  C.observe(S);
  EXPECT_DOUBLE_EQ(C.growthEwma(), 50.0);
  EXPECT_NEAR(C.slackTargetWords(), 2645.7513110645905, 1e-9);
  EXPECT_TRUE(C.allowSpend());
}

TEST(Controller, MemBalancerMoveCostDampensTarget) {
  MemBalancerController::Options O;
  O.C1 = 100.0;
  O.Smoothing = 0.5;
  MemBalancerController C(O);
  BudgetSample S;
  S.Step = 0;
  S.LiveWords = 1000;
  S.FootprintWords = 1000;
  C.observe(S);
  S.Step = 2;
  S.LiveWords = 1400;
  S.FootprintWords = 1500;
  C.observe(S);
  // Same state as the hand-computed test, but compaction history says a
  // transaction moves 100 words on average: the target shrinks by
  // sqrt(100) to sqrt(100 * 1400 * 100 / 100) = 374.165...
  S.Step = 4;
  S.LiveWords = 1400;
  S.FootprintWords = 1500;
  S.MovedWords = 400;
  S.NumMoves = 4;
  C.observe(S);
  EXPECT_DOUBLE_EQ(C.growthEwma(), 50.0);
  EXPECT_NEAR(C.slackTargetWords(),
              std::sqrt(100.0 * 1400.0 * 50.0 / 100.0), 1e-9);
}

TEST(Controller, MemBalancerShrinkingLiveMeansNoGrowth) {
  MemBalancerController::Options O;
  O.Smoothing = 1.0; // no memory: EWMA == latest sample
  MemBalancerController C(O);
  BudgetSample S;
  S.Step = 0;
  S.LiveWords = 1000;
  C.observe(S);
  S.Step = 1;
  S.LiveWords = 400;
  C.observe(S);
  EXPECT_DOUBLE_EQ(C.growthEwma(), 0.0) << "shrinking clamps at zero";
}

TEST(Controller, ConsultCountsGrantsAndDenials) {
  PeriodicController C(2);
  BudgetSample S;
  S.Step = 0;
  C.observe(S); // allow
  EXPECT_TRUE(C.consult());
  EXPECT_TRUE(C.consult());
  S.Step = 1;
  C.observe(S); // deny
  EXPECT_FALSE(C.consult());
  EXPECT_EQ(C.grants(), 2u);
  EXPECT_EQ(C.denials(), 1u);
}

TEST(Controller, FactoryKnowsEveryNameAndRejectsOthers) {
  EXPECT_EQ(allControllerNames().size(), 3u);
  for (const std::string &Name : allControllerNames()) {
    ControllerSpec Spec;
    Spec.Name = Name;
    std::string Error;
    std::unique_ptr<BudgetController> C =
        createControllerChecked(Spec, &Error);
    ASSERT_NE(C, nullptr) << Error;
    EXPECT_EQ(C->name(), Name);
  }
  ControllerSpec Bad;
  Bad.Name = "optimal";
  std::string Error;
  EXPECT_EQ(createControllerChecked(Bad, &Error), nullptr);
  EXPECT_NE(Error.find("membalancer"), std::string::npos)
      << "diagnostic must list the valid names: " << Error;
}

namespace {
/// Test-only controller that never grants — the strongest gate.
class DenyAllController : public BudgetController {
public:
  std::string name() const override { return "deny-all"; }
  void observe(const BudgetSample &S) override { (void)S; }
  bool allowSpend() const override { return false; }
};

ExecutionResult replayUnder(const std::vector<TraceOp> &Schedule,
                            BudgetController *Ctrl, uint64_t *Denials) {
  Heap H;
  std::unique_ptr<MemoryManager> MM = createManager("evacuating", H, 50.0);
  TraceReplayProgram P(Schedule);
  Execution::Options EO;
  EO.MaxSteps = UINT64_MAX;
  Execution E(*MM, P, uint64_t(1) << 62, EO);
  if (Ctrl)
    attachController(E, *MM, *Ctrl);
  ExecutionResult R = E.run();
  if (Ctrl && Denials)
    *Denials = Ctrl->denials();
  return R;
}
} // namespace

TEST(Controller, AttachedGateActuallyBlocksMoves) {
  WorkloadFuzzer::Options FO;
  FO.Seed = 3;
  FO.NumOps = 4096;
  FO.P = WorkloadFuzzer::Pattern::Comb;
  std::vector<TraceOp> Schedule = WorkloadFuzzer(FO).generate().materialize();

  ExecutionResult Ungated = replayUnder(Schedule, nullptr, nullptr);
  ASSERT_GE(Ungated.NumMoves, 1u) << "schedule too tame to test the gate";

  DenyAllController Deny;
  uint64_t Denials = 0;
  ExecutionResult Gated = replayUnder(Schedule, &Deny, &Denials);
  EXPECT_EQ(Gated.NumMoves, 0u);
  EXPECT_EQ(Gated.MovedWords, 0u);
  EXPECT_GE(Denials, 1u) << "the manager never even asked";

  FixedTriggerController Fixed;
  ExecutionResult Open = replayUnder(Schedule, &Fixed, nullptr);
  EXPECT_EQ(Open.NumMoves, Ungated.NumMoves);
  EXPECT_EQ(Open.MovedWords, Ungated.MovedWords);
  EXPECT_EQ(Open.HeapSize, Ungated.HeapSize);
}

//===----------------------------------------------------------------------===//
// 3b. Golden trace replay reports
//===----------------------------------------------------------------------===//

namespace {
/// The committed E15 churn trace under the configuration EXPERIMENTS.md
/// E15 reports: evacuating at c=50 under the MemBalancer gate.
TraceRunReport goldenRun() {
  std::ifstream IS(std::string(PCB_TEST_DATA_DIR) + "/e15-churn.mtrace",
                   std::ios::binary);
  EXPECT_TRUE(IS.good()) << "missing golden e15-churn.mtrace";
  TraceReader R(IS);
  TraceRunOptions RO;
  RO.Policy = "evacuating";
  RO.C = 50.0;
  RO.Controller.Name = "membalancer";
  RO.Controller.C1 = 10000.0;
  RO.Controller.Smoothing = 0.25;
  return runTrace(R, RO, "e15-churn.mtrace");
}

void checkGolden(const std::string &Rendered, const std::string &File) {
  // Regenerate the committed goldens with:
  //   PCB_REGEN_GOLDEN=<repo>/tests/golden ./trace_test
  if (const char *Dir = std::getenv("PCB_REGEN_GOLDEN")) {
    std::ofstream Out(std::string(Dir) + "/" + File);
    ASSERT_TRUE(Out.good());
    Out << Rendered;
  }
  std::ifstream IS(std::string(PCB_TEST_DATA_DIR) + "/" + File);
  ASSERT_TRUE(IS.good()) << "missing golden " << File;
  std::stringstream Golden;
  Golden << IS.rdbuf();
  EXPECT_EQ(Rendered, Golden.str());
}
} // namespace

TEST(TraceRunGolden, TextReportMatchesCommittedGolden) {
  std::ostringstream OS;
  goldenRun().printText(OS);
  checkGolden(OS.str(), "trace-report.txt");
}

TEST(TraceRunGolden, JsonReportMatchesCommittedGolden) {
  std::ostringstream OS;
  goldenRun().printJson(OS);
  checkGolden(OS.str(), "trace-report.json");
}

TEST(TraceRunReport, JsonEscapesTheTraceName) {
  // The trace name is a file name, which may hold any byte; the report
  // must stay parseable JSON whatever it holds.
  TraceRunReport Rep;
  Rep.Trace = "we\"ird\\name\r.mtrace";
  Rep.Policy = "first-fit";
  Rep.Controller = "fixed";
  std::ostringstream OS;
  Rep.printJson(OS);
  const std::string Expected =
      "  \"trace\": \"we\\\"ird\\\\name\\u000d.mtrace\",\n";
  EXPECT_NE(OS.str().find(Expected), std::string::npos) << OS.str();
}

//===----------------------------------------------------------------------===//
// 4. Cross-policy invariants under every controller
//===----------------------------------------------------------------------===//

TEST(CrossPolicy, EveryControllerPreservesManagerIndependence) {
  // The harness's cross-policy agreement invariants (identical program
  // statistics, non-movers never move, replay determinism) must hold
  // with a spend gate between every manager and its ledger — for each
  // controller, across the entire policy family.
  WorkloadFuzzer::Options FO;
  FO.Seed = 11;
  FO.NumOps = 256;
  FO.P = WorkloadFuzzer::Pattern::Mixed;
  FuzzSchedule S = WorkloadFuzzer(FO).generate();
  for (const std::string &Name : allControllerNames()) {
    DifferentialHarness::Options O;
    O.Controller.Name = Name;
    O.Controller.Period = 8;
    O.Controller.C1 = 10000.0;
    DifferentialHarness Harness(O);
    DifferentialReport Report = Harness.run(S);
    EXPECT_TRUE(Report.clean())
        << "controller " << Name << ":\n" << Report.summary();
  }
}

TEST(CrossPolicy, TraceBackedFuzzWindowsAreWellFormed) {
  // Pattern::Trace replays seeded windows of a recorded trace; every
  // window must be a valid schedule, different seeds must pick different
  // windows, and a window must survive the full differential gauntlet.
  WorkloadFuzzer::Options Gen;
  Gen.Seed = 42;
  Gen.NumOps = 3000;
  Gen.P = WorkloadFuzzer::Pattern::Churn;
  auto Corpus = std::make_shared<const std::vector<TraceOp>>(
      WorkloadFuzzer(Gen).generate().materialize());

  WorkloadFuzzer::Options FO;
  FO.P = WorkloadFuzzer::Pattern::Trace;
  FO.TraceOps = Corpus;
  FO.NumOps = 512;
  std::vector<size_t> Sizes;
  for (uint64_t Seed = 1; Seed != 5; ++Seed) {
    FO.Seed = Seed;
    FuzzSchedule S = WorkloadFuzzer(FO).generate();
    EXPECT_EQ(S.Pattern, "trace");
    EXPECT_FALSE(S.Ops.empty());
    std::string Why;
    EXPECT_TRUE(validateTrace(S.materialize(), &Why)) << Why;
    Sizes.push_back(S.size());
  }
  // Determinism: the same seed re-generates the same window.
  FO.Seed = 1;
  EXPECT_EQ(WorkloadFuzzer(FO).generate().size(), Sizes.front());

  FO.Seed = 2;
  DifferentialHarness Harness;
  DifferentialReport Report = Harness.run(WorkloadFuzzer(FO).generate());
  EXPECT_TRUE(Report.clean()) << Report.summary();
}
