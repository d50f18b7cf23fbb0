//===- bench/bench_trace.cpp - E15: trace replay under budget gates ------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// Drives the trace engine end to end: each named workload pattern is
// generated once, serialized through the malloc-trace wire format, and
// then *streamed back* through every (policy x controller) pair — so one
// cell covers TraceWriter, TraceReader, StreamingTraceProgram and the
// spend gate together, exactly the production path of `pcbound replay`
// on a pcbtrace file. The table compares how the budget controllers
// trade compaction-budget burn against the achieved waste factor on
// identical schedules.
//
// Usage: bench_trace [traces=churn,queue-fifo,comb] [ops=20000]
//                    [policies=first-fit,evacuating,chunked]
//                    [controllers=fixed,periodic,membalancer]
//                    [c=50] [period=64] [c1=10000] [smoothing=0.25]
//                    [seed=42] [maxlog=8] [live=16384] [threads=0]
//                    [csv=0] [json=0] [out=] [bench-json=FILE]
//
// The results table on stdout stays byte-identical across thread counts
// (the determinism test diffs it).
// bench-json=FILE runs the grid profiled and writes its work golden: the
// streamed-op total, the section call counts (trace.read included) and
// the work counters (bench/BenchUtils.h).
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "fuzz/WorkloadFuzzer.h"
#include "mm/CompactionLedger.h"
#include "runner/ExperimentGrid.h"
#include "runner/ResultSink.h"
#include "runner/Runner.h"
#include "support/OptionParser.h"
#include "support/Table.h"
#include "trace/TraceRecorder.h"
#include "trace/TraceRun.h"

#include <atomic>
#include <iostream>
#include <map>
#include <sstream>

using namespace pcb;

int main(int argc, char **argv) {
  OptionParser Opts(argc, argv);
  std::vector<std::string> Traces =
      parseNameList(Opts.getString("traces", "churn,queue-fifo,comb"));
  std::vector<std::string> Policies = parseNameList(
      Opts.getString("policies", "first-fit,evacuating,chunked"));
  std::vector<std::string> Controllers = parseNameList(
      Opts.getString("controllers", "fixed,periodic,membalancer"));
  uint64_t NumOps = Opts.getUInt("ops", 20000);
  uint64_t Seed = Opts.getUInt("seed", 42);
  if (Traces.empty() || Policies.empty() || Controllers.empty() ||
      NumOps == 0) {
    std::cerr << "error: traces=, policies=, controllers= and ops= must"
              << " be non-empty\n";
    return 1;
  }
  ControllerSpec Spec; // shared tuning; Name set per cell
  Spec.Period = std::max<uint64_t>(1, Opts.getUInt("period", 64));
  Spec.C1 = Opts.getDouble("c1", 10000.0);
  Spec.Smoothing = Opts.getDouble("smoothing", 0.25);
  TraceRunOptions Base;
  Base.C = getQuota(Opts, 50.0);
  Base.LiveBound = Opts.getUInt("live", 0);
  std::string BenchJsonPath = Opts.getString("bench-json", "");

  // Generate each trace once and push it through the wire format, so the
  // grid cells stream exactly what `pcbound replay` would read from disk. The
  // binary framing is the production one (and the denser to parse).
  WorkloadFuzzer::Options FO;
  FO.NumOps = NumOps;
  FO.LiveBound = std::max<uint64_t>(1, Opts.getUInt("livegen", 1 << 12));
  FO.MaxLogSize = getLog2(Opts, "maxlog", 8);
  if (!paramsOk(WorkloadFuzzer::optionsError(FO), "maxlog=", FO.MaxLogSize,
                ", livegen=", FO.LiveBound))
    return 1;
  std::map<std::string, std::string> Serialized;
  for (size_t T = 0; T != Traces.size(); ++T) {
    FO.Seed = splitSeed(Seed, T);
    std::string Error;
    if (!WorkloadFuzzer::patternByName(Traces[T], FO.P, &Error)) {
      std::cerr << "error: " << Error << "\n";
      return 1;
    }
    std::ostringstream OS;
    TraceRecorder Rec(OS, TraceFraming::Binary);
    Rec.record(WorkloadFuzzer(FO).generate().materialize());
    Serialized[Traces[T]] = OS.str();
  }

  std::cout << "# E15: trace replay under budget controllers: "
            << Traces.size() << " traces x " << Policies.size()
            << " policies x " << Controllers.size() << " controllers (ops="
            << NumOps << ", c=" << formatDouble(Base.C, 0) << ", period="
            << Spec.Period << ", c1=" << formatDouble(Spec.C1, 0) << ")\n"
            << "# Budget burn vs waste factor on identical streamed"
            << " schedules; fixed is the managers' built-in trigger.\n";

  ExperimentGrid Grid;
  Grid.addAxis("trace", Traces);
  Grid.addAxis("policy", Policies);
  Grid.addAxis("controller", Controllers);

  ResultSink Sink({"trace", "policy", "controller", "ops", "HS", "waste",
                   "moved_words", "burn_%", "grants", "denials"});
  std::atomic<uint64_t> TotalOps{0};
  BenchReport Report("trace");
  Runner Run =
      makeRunner(Opts, BenchJsonPath.empty() ? nullptr : &Report.profiler());
  try {
    Run.runRows(
        Grid,
        [&](const GridCell &Cell) {
          TraceRunOptions RO = Base;
          RO.Policy = Cell.str("policy");
          RO.Controller = Spec;
          RO.Controller.Name = Cell.str("controller");
          std::istringstream IS(Serialized.at(Cell.str("trace")));
          TraceReader R(IS);
          TraceRunReport Rep = runTrace(R, RO, Cell.str("trace"));
          TotalOps.fetch_add(Rep.OpsStreamed, std::memory_order_relaxed);
          return Row()
              .addCell(Rep.Trace)
              .addCell(Rep.Policy)
              .addCell(Rep.Controller)
              .addCell(Rep.OpsStreamed)
              .addCell(Rep.Exec.HeapSize)
              .addCell(Rep.WasteFactor, 4)
              .addCell(Rep.Exec.MovedWords)
              .addCell(Rep.BudgetBurnPct, 2)
              .addCell(Rep.ControllerGrants)
              .addCell(Rep.ControllerDenials);
        },
        Sink);
  } catch (const std::exception &Ex) {
    std::cerr << "error: " << Ex.what() << "\n";
    return 1;
  }
  if (!Sink.emit(Opts))
    return 1;

  if (!BenchJsonPath.empty() &&
      !Report.add("traces", Traces)
           .add("policies", Policies)
           .add("controllers", Controllers)
           .add("ops", NumOps)
           .add("total_steps", TotalOps.load())
           .write(BenchJsonPath))
    return 1;
  return 0;
}
