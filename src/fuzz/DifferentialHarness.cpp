//===- fuzz/DifferentialHarness.cpp - Cross-policy fuzz execution --------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "fuzz/DifferentialHarness.h"

#include "fuzz/HeapParityChecker.h"

#include "driver/Execution.h"
#include "driver/TraceIO.h"
#include "mm/ManagerFactory.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <ostream>
#include <stdexcept>

using namespace pcb;

bool DifferentialReport::clean() const {
  if (!Cross.empty())
    return false;
  for (const PolicyRunResult &R : Runs)
    if (!R.clean())
      return false;
  return true;
}

std::vector<Violation> DifferentialReport::allViolations() const {
  std::vector<Violation> All;
  for (const PolicyRunResult &R : Runs)
    All.insert(All.end(), R.Violations.begin(), R.Violations.end());
  All.insert(All.end(), Cross.begin(), Cross.end());
  return All;
}

const PolicyRunResult *DifferentialReport::firstFailing() const {
  for (const PolicyRunResult &R : Runs)
    if (!R.clean())
      return &R;
  return nullptr;
}

std::string DifferentialReport::summary() const {
  std::string Out;
  for (const Violation &V : allViolations())
    Out += V.describe() + "\n";
  return Out;
}

DifferentialHarness::DifferentialHarness() : DifferentialHarness(Options()) {}

DifferentialHarness::DifferentialHarness(Options O) : Opts(std::move(O)) {
  if (Opts.Policies.empty())
    Opts.Policies = allManagerPolicies();
}

PolicyRunResult
DifferentialHarness::runPolicy(const std::string &Policy,
                               const std::vector<TraceOp> &Trace,
                               uint64_t M) const {
  Heap H;
  std::string Error;
  auto MM = createManagerChecked(Policy, H, Opts.C, /*LiveBound=*/M, &Error);
  if (!MM)
    throw std::invalid_argument("differential harness: " + Error);

  PolicyRunResult R;
  R.Policy = Policy;
  R.QuotaC = MM->ledger().quotaDenominator();

  // The harness owns the event callback (rather than handing the log to
  // Execution) so the LogTap fault-injection port can intercept events.
  // The heap-parity mirror is fed the original event first: it tracks
  // the real heap, and must stay immune to injected log corruption.
  EventLog Log;
  std::optional<HeapParityChecker> Parity;
  if (Opts.HeapParity)
    Parity.emplace(H);
  H.setEventCallback([this, &Log, &Parity](const HeapEvent &E) {
    if (Parity)
      Parity->observe(E);
    HeapEvent Copy = E;
    if (!Opts.LogTap || Opts.LogTap(Copy))
      Log.record(Copy);
  });

  TraceReplayProgram P(Trace);
  Execution E(*MM, P, M);
  std::unique_ptr<BudgetController> Ctrl =
      createControllerChecked(Opts.Controller, &Error);
  if (!Ctrl)
    throw std::invalid_argument("differential harness: " + Error);
  attachController(E, *MM, *Ctrl);
  if (Opts.OnExecution)
    Opts.OnExecution(E, Policy);
  InvariantOracle Oracle(H, *MM, Log, {Opts.DeepCheckEvery});

  uint64_t Step = 0;
  bool More = true;
  while (More && R.Violations.size() < Opts.MaxViolationsPerRun) {
    More = E.runStep();
    Log.record(HeapEvent::stepEnd());
    ++Step;
    Oracle.checkStep(Step, R.Violations);
    if (Parity)
      Parity->checkStep(Policy, Step, R.Violations);
  }
  // The endpoint is always checked deeply, whatever the cadence.
  Oracle.checkDeep(Step, R.Violations);
  if (R.Violations.size() > Opts.MaxViolationsPerRun)
    R.Violations.resize(Opts.MaxViolationsPerRun);

  R.Stats = H.stats();
  H.setEventCallback({});
  R.Log = std::move(Log);
  return R;
}

namespace {

/// Appends a cross-policy violation comparing one statistic field.
void compareField(std::vector<Violation> &Out, const char *Field,
                  const PolicyRunResult &Ref, uint64_t RefValue,
                  const PolicyRunResult &Run, uint64_t Value) {
  if (RefValue == Value)
    return;
  Out.push_back(Violation{
      "cross-policy-divergence", Run.Policy, 0,
      std::string(Field) + " = " + std::to_string(Value) + " but " +
          Ref.Policy + " saw " + std::to_string(RefValue) +
          " on the same schedule"});
}

} // namespace

DifferentialReport DifferentialHarness::run(const FuzzSchedule &S) const {
  std::vector<TraceOp> Trace = S.materialize();
  assert(validateTrace(Trace) && "fuzzer produced an invalid trace");
  // The tightest admissible live bound; shrinking may have changed the
  // peak, so it is recomputed per materialization.
  uint64_t M = std::max<uint64_t>(tracePeakLiveWords(Trace), 1);

  DifferentialReport Report;
  Report.Runs.reserve(Opts.Policies.size());
  for (const std::string &Policy : Opts.Policies)
    Report.Runs.push_back(runPolicy(Policy, Trace, M));

  // Program behaviour is manager-independent: every policy must agree on
  // everything except footprint and compaction.
  const PolicyRunResult &Ref = Report.Runs.front();
  for (const PolicyRunResult &R : Report.Runs) {
    compareField(Report.Cross, "TotalAllocatedWords", Ref,
                 Ref.Stats.TotalAllocatedWords, R,
                 R.Stats.TotalAllocatedWords);
    compareField(Report.Cross, "NumAllocations", Ref,
                 Ref.Stats.NumAllocations, R, R.Stats.NumAllocations);
    compareField(Report.Cross, "NumFrees", Ref, Ref.Stats.NumFrees, R,
                 R.Stats.NumFrees);
    compareField(Report.Cross, "LiveWords", Ref, Ref.Stats.LiveWords, R,
                 R.Stats.LiveWords);
    compareField(Report.Cross, "PeakLiveWords", Ref, Ref.Stats.PeakLiveWords,
                 R, R.Stats.PeakLiveWords);

    if (R.Stats.HighWaterMark < R.Stats.PeakLiveWords)
      Report.Cross.push_back(
          Violation{"footprint-below-peak", R.Policy, 0,
                    "footprint " + std::to_string(R.Stats.HighWaterMark) +
                        " < peak live " +
                        std::to_string(R.Stats.PeakLiveWords)});
    if (isNonMovingPolicy(R.Policy) && R.Stats.NumMoves != 0)
      Report.Cross.push_back(
          Violation{"non-moving-moved", R.Policy, 0,
                    "a non-moving policy performed " +
                        std::to_string(R.Stats.NumMoves) + " moves"});
  }

  // Replay determinism: the same schedule through the same policy must
  // reproduce identical statistics.
  if (!Opts.ReplayCheckPolicy.empty()) {
    auto It = std::find_if(Report.Runs.begin(), Report.Runs.end(),
                           [&](const PolicyRunResult &R) {
                             return R.Policy == Opts.ReplayCheckPolicy;
                           });
    if (It != Report.Runs.end()) {
      PolicyRunResult Again = runPolicy(Opts.ReplayCheckPolicy, Trace, M);
      for (const HeapStatsField &F : HeapStatsFields) {
        uint64_t First = It->Stats.*F.Member, Second = Again.Stats.*F.Member;
        if (First != Second)
          Report.Cross.push_back(Violation{
              "replay-divergence", Opts.ReplayCheckPolicy, 0,
              std::string(F.Name) + " was " + std::to_string(First) +
                  " on the first run but " + std::to_string(Second) +
                  " on the second"});
      }
    }
  }
  return Report;
}

FuzzSchedule DifferentialHarness::shrink(const FuzzSchedule &S) const {
  return shrink(S,
                [this](const FuzzSchedule &Sub) { return !run(Sub).clean(); });
}

FuzzSchedule DifferentialHarness::shrink(
    const FuzzSchedule &S,
    const std::function<bool(const FuzzSchedule &)> &Fails) const {
  assert(Fails(S) && "shrinking a schedule that does not fail");
  const size_t N = S.Ops.size();
  std::vector<bool> Keep(N, true);
  size_t Evals = 0;
  // The cap bounds worst-case shrink time on pathological predicates; it
  // is far above what the test schedules need.
  const size_t MaxEvals = 2000;

  // Phase 1: remove chunks of operations at halving granularity
  // (ddmin's core loop). A chunk is dropped when the remainder still
  // fails; a free whose allocation was dropped vanishes via subset().
  size_t Chunk = 1;
  while (Chunk * 2 <= N)
    Chunk *= 2;
  for (; Chunk != 0 && Evals < MaxEvals; Chunk /= 2) {
    bool Progress = true;
    while (Progress && Evals < MaxEvals) {
      Progress = false;
      for (size_t Start = 0; Start < N && Evals < MaxEvals; Start += Chunk) {
        size_t End = std::min(Start + Chunk, N);
        bool AnyKept = false;
        for (size_t I = Start; I != End; ++I)
          AnyKept |= Keep[I];
        if (!AnyKept)
          continue;
        std::vector<bool> Candidate = Keep;
        for (size_t I = Start; I != End; ++I)
          Candidate[I] = false;
        ++Evals;
        if (Fails(S.subset(Candidate))) {
          Keep = std::move(Candidate);
          Progress = true;
        }
      }
    }
  }

  FuzzSchedule Min = S.subset(Keep);

  // Phase 2: shrink allocation sizes (halving toward 1) while the
  // schedule still fails, so the reproducer's constants are minimal too.
  bool Progress = true;
  while (Progress && Evals < MaxEvals) {
    Progress = false;
    for (size_t I = 0; I != Min.Ops.size() && Evals < MaxEvals; ++I) {
      FuzzOp &Op = Min.Ops[I];
      if (Op.Op != FuzzOp::Kind::Alloc || Op.Size <= 1)
        continue;
      FuzzSchedule Candidate = Min;
      Candidate.Ops[I].Size = Op.Size / 2;
      ++Evals;
      if (Fails(Candidate)) {
        Min = std::move(Candidate);
        Progress = true;
      }
    }
  }
  assert(Fails(Min) && "shrinking lost the failure");
  return Min;
}

void DifferentialHarness::writeReproducer(std::ostream &OS,
                                          const FuzzSchedule &S,
                                          const PolicyRunResult &Failing) {
  OS << "# pcbound-fuzz-repro policy=" << Failing.Policy
     << " c=" << Failing.QuotaC << " seed=" << S.Seed
     << " pattern=" << (S.Pattern.empty() ? "unknown" : S.Pattern)
     << " ops=" << S.Ops.size() << "\n";
  for (const Violation &V : Failing.Violations)
    OS << "# violation: " << V.describe() << "\n";
  writeEventLog(OS, Failing.Log);
}
