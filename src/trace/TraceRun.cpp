//===- trace/TraceRun.cpp - Streaming trace replay -----------------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "trace/TraceRun.h"

#include "heap/Heap.h"
#include "mm/ManagerFactory.h"
#include "obs/Profiler.h"
#include "support/ReportFile.h"
#include "support/Table.h"

#include <cassert>
#include <ostream>
#include <stdexcept>

using namespace pcb;

bool StreamingTraceProgram::readAhead() {
  ScopedTimer T(Profiler::SecTraceRead);
  return Reader.next(Pending);
}

bool StreamingTraceProgram::step(MutatorContext &Ctx) {
  if (!Primed) {
    HavePending = readAhead();
    Primed = true;
  }
  if (!HavePending)
    return false;
  MallocOp Op = Pending;
  HavePending = readAhead();
  Profiler::bump(Profiler::CtrTraceOps);
  if (Op.isAlloc()) {
    // The reader rejected duplicate live ids, so the insert must be new.
    ObjectId Id = Ctx.allocate(Op.Size);
    bool Inserted = LiveIds.emplace(Op.Id, Id).second;
    assert(Inserted && "reader admitted a duplicate live id");
    (void)Inserted;
    if (LiveIds.size() > MaxLiveWindow)
      MaxLiveWindow = LiveIds.size();
  } else {
    auto It = LiveIds.find(Op.Id);
    assert(It != LiveIds.end() && "reader admitted a free of a dead id");
    Ctx.free(It->second);
    LiveIds.erase(It);
  }
  return HavePending;
}

TraceRunReport pcb::runTrace(TraceReader &R, const TraceRunOptions &Opts,
                             const std::string &TraceName) {
  std::string Error;
  std::unique_ptr<BudgetController> Ctrl =
      createControllerChecked(Opts.Controller, &Error);
  if (!Ctrl)
    throw std::runtime_error(Error);

  Heap H;
  std::unique_ptr<MemoryManager> MM =
      createManagerChecked(Opts.Policy, H, Opts.C, Opts.LiveBound, &Error);
  if (!MM)
    throw std::runtime_error(Error);

  // Streaming means the trace's peak live volume is unknown up front;
  // without a caller-supplied bound the driver's M check runs against an
  // effectively unbounded M and the report's waste factor is taken
  // against the trace's own measured peak instead.
  uint64_t M = Opts.LiveBound != 0 ? Opts.LiveBound : uint64_t(1) << 62;

  StreamingTraceProgram Prog(R);
  Execution::Options EO;
  EO.DeepCheckEvery = Opts.DeepCheckEvery;
  EO.MaxSteps = UINT64_MAX; // the stream's end is the stop condition
  Execution E(*MM, Prog, M, EO);
  attachController(E, *MM, *Ctrl);
  if (Opts.OnExecution)
    Opts.OnExecution(E);

  TraceRunReport Rep;
  Rep.Exec = E.run();
  if (Opts.OnFinished)
    Opts.OnFinished(E);

  if (R.failed())
    throw std::runtime_error(TraceName + ": " + R.error());

  Rep.Trace = TraceName;
  Rep.Policy = MM->name();
  Rep.Controller = Ctrl->name();
  Rep.C = Opts.C;
  Rep.OpsStreamed = R.opsRead();
  Rep.PeakLiveWindow = Prog.maxLiveWindow();
  const CompactionLedger &L = MM->ledger();
  Rep.BudgetWords = L.isUnlimited() ? 0 : L.budgetWords();
  Rep.BudgetBurnPct = Rep.BudgetWords != 0 ? 100.0 * double(Rep.Exec.MovedWords) /
                                                 double(Rep.BudgetWords)
                                           : 0.0;
  Rep.WasteFactor = Rep.Exec.PeakLiveWords != 0
                        ? double(Rep.Exec.HeapSize) /
                              double(Rep.Exec.PeakLiveWords)
                        : 0.0;
  Rep.ControllerGrants = Ctrl->grants();
  Rep.ControllerDenials = Ctrl->denials();
  return Rep;
}

void TraceRunReport::printText(std::ostream &OS) const {
  OS << "trace-run report\n";
  OS << "  trace:       " << Trace << '\n';
  OS << "  ops:         " << OpsStreamed << " (" << Exec.NumAllocations
     << " allocs, " << Exec.NumFrees << " frees)\n";
  OS << "  policy:      " << Policy << " (c=" << formatDouble(C, 2) << ")\n";
  OS << "  controller:  " << Controller << '\n';
  OS << "  HS:          " << Exec.HeapSize << " words\n";
  OS << "  peak live:   " << Exec.PeakLiveWords << " words (waste "
     << formatDouble(WasteFactor, 4) << "x)\n";
  OS << "  live window: " << PeakLiveWindow << " ids\n";
  OS << "  moved:       " << Exec.MovedWords << " words in " << Exec.NumMoves
     << " moves\n";
  OS << "  budget:      " << BudgetWords << " words (burn "
     << formatDouble(BudgetBurnPct, 2) << "%)\n";
  OS << "  gate:        " << ControllerGrants << " grants, "
     << ControllerDenials << " denials\n";
}

void TraceRunReport::printJson(std::ostream &OS) const {
  OS << "{\n";
  OS << "  \"trace\": " << jsonString(Trace) << ",\n";
  OS << "  \"policy\": " << jsonString(Policy) << ",\n";
  OS << "  \"controller\": " << jsonString(Controller) << ",\n";
  OS << "  \"c\": " << formatDouble(C, 2) << ",\n";
  OS << "  \"ops\": " << OpsStreamed << ",\n";
  OS << "  \"allocs\": " << Exec.NumAllocations << ",\n";
  OS << "  \"frees\": " << Exec.NumFrees << ",\n";
  OS << "  \"hs_words\": " << Exec.HeapSize << ",\n";
  OS << "  \"peak_live_words\": " << Exec.PeakLiveWords << ",\n";
  OS << "  \"waste_factor\": " << formatDouble(WasteFactor, 4) << ",\n";
  OS << "  \"peak_live_window\": " << PeakLiveWindow << ",\n";
  OS << "  \"moved_words\": " << Exec.MovedWords << ",\n";
  OS << "  \"num_moves\": " << Exec.NumMoves << ",\n";
  OS << "  \"budget_words\": " << BudgetWords << ",\n";
  OS << "  \"budget_burn_pct\": " << formatDouble(BudgetBurnPct, 2)
     << ",\n";
  OS << "  \"controller_grants\": " << ControllerGrants << ",\n";
  OS << "  \"controller_denials\": " << ControllerDenials << "\n";
  OS << "}\n";
}

bool TraceRunReport::writeFile(const std::string &Path,
                               std::string *Error) const {
  return writeReportFile(
      Path,
      [this](std::ostream &OS, bool Json) {
        Json ? printJson(OS) : printText(OS);
      },
      Error);
}

std::vector<TraceOp> pcb::materializeTrace(TraceReader &R,
                                           std::string *Error) {
  std::vector<TraceOp> Ops;
  // Trace ids are reusable; allocation ordinals are not. The window maps
  // the live id to the ordinal of the allocation that created it.
  std::unordered_map<uint64_t, uint64_t> OrdinalOf;
  uint64_t NextOrdinal = 0;
  MallocOp Op;
  while (R.next(Op)) {
    if (Op.isAlloc()) {
      OrdinalOf[Op.Id] = NextOrdinal++;
      Ops.push_back(TraceOp::alloc(Op.Size));
    } else {
      auto It = OrdinalOf.find(Op.Id);
      assert(It != OrdinalOf.end() && "reader admitted a free of a dead id");
      Ops.push_back(TraceOp::release(It->second));
      OrdinalOf.erase(It);
    }
  }
  if (R.failed()) {
    if (Error)
      *Error = R.error();
    return {};
  }
  return Ops;
}
