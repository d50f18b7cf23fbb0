//===- bench/bench_realloc.cpp - E16: reallocation overhead curves -------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// The reallocation workbench's overhead-curve bench: every insert/delete
// adversary (realloc/UpdateProgram.h) plus the Cohen–Petrank PF
// adversary runs through every reallocation algorithm, reporting the
// footprint each achieved and the overhead it paid — moved words per
// allocated word, with the worst prefix ratio checked against each
// scheme's declared bound. PF's row is E16's cross-family half: the
// compaction family's strongest adversary aimed at the other problem.
//
// Usage: bench_realloc [programs=update-fill-drain,...,cohen-petrank]
//                      [policies=realloc-never,realloc-bucket,realloc-jin]
//                      [logm=12] [logn=6] [c=50] [threads=0]
//                      [csv=0] [json=0] [out=] [bench-json=FILE]
//
// The results table on stdout stays byte-identical across thread counts
// (the determinism test diffs it).
// bench-json=FILE runs the grid profiled and writes its work golden: the
// step total, the per-cell overhead ratios, the section call counts
// (mm.realloc included) and the work counters (bench/BenchUtils.h).
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "adversary/ProgramFactory.h"
#include "driver/Execution.h"
#include "mm/CompactionLedger.h"
#include "mm/ManagerFactory.h"
#include "realloc/ReallocationLedger.h"
#include "runner/ExperimentGrid.h"
#include "runner/ResultSink.h"
#include "runner/Runner.h"
#include "support/MathUtils.h"
#include "support/OptionParser.h"
#include "support/Table.h"

#include <algorithm>

#include <atomic>
#include <cmath>
#include <iostream>
#include <mutex>

using namespace pcb;

namespace {

struct CellOutcome {
  ExecutionResult Exec;
  double Overhead = 0.0;
  double WorstPrefix = 0.0;
  double Bound = 0.0;
};

CellOutcome runCell(const std::string &ProgName, const std::string &Policy,
                    uint64_t M, unsigned LogN, double C) {
  Heap H;
  auto MM = createManager(Policy, H, C, /*LiveBound=*/M);
  auto Prog = createProgram(ProgName, M, LogN, C);
  Execution E(*MM, *Prog, M);
  CellOutcome Out;
  Out.Exec = E.run();
  Out.Overhead = Out.Exec.overheadRatio();
  Out.Bound = MM->overheadBound();
  if (const ReallocationLedger *RL = MM->reallocationLedger())
    Out.WorstPrefix = RL->maxPrefixRatio();
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  OptionParser Opts(argc, argv);
  std::vector<std::string> Programs = parseNameList(Opts.getString(
      "programs", "update-fill-drain,update-alternating,update-comb,"
                  "update-size-profile,update-mix,cohen-petrank"));
  std::vector<std::string> Policies = parseNameList(
      Opts.getString("policies", "realloc-never,realloc-bucket,realloc-jin"));
  unsigned LogM = getLog2(Opts, "logm", 12);
  unsigned LogN = getLog2(Opts, "logn", 6);
  double C = getQuota(Opts, 50.0);
  uint64_t M = pow2(LogM);
  std::string BenchJsonPath = Opts.getString("bench-json", "");
  if (Programs.empty() || Policies.empty()) {
    std::cerr << "error: programs= and policies= must be non-empty\n";
    return 1;
  }
  for (const std::string &Name : Programs) {
    std::string Error;
    if (!createProgramChecked(Name, M, LogN, C, &Error)) {
      std::cerr << "error: " << Error << "\n";
      return 1;
    }
  }
  for (const std::string &Policy : Policies) {
    Heap Probe;
    std::string Error;
    if (!createManagerChecked(Policy, Probe, C, /*LiveBound=*/M, &Error)) {
      std::cerr << "error: " << Error << "\n";
      return 1;
    }
  }

  std::cout << "# E16: reallocation overhead curves: " << Programs.size()
            << " programs x " << Policies.size() << " algorithms (M="
            << formatWords(M) << ", n=" << formatWords(pow2(LogN)) << ")\n"
            << "# overhead = moved words / allocated words; worst_prefix"
            << " must stay at or below each scheme's bound.\n";

  ExperimentGrid Grid;
  Grid.addAxis("program", Programs);
  Grid.addAxis("policy", Policies);

  ResultSink Sink({"program", "policy", "steps", "HS", "waste", "moved_words",
                   "alloc_words", "overhead", "worst_prefix", "bound"});
  std::atomic<uint64_t> TotalSteps{0};
  // The work golden's overhead cells, keyed for stable emission order;
  // filled under a mutex because runRows is parallel.
  std::vector<std::pair<std::string, double>> OverheadCells;
  std::mutex CellsMutex;
  BenchReport Report("realloc");
  Runner Run =
      makeRunner(Opts, BenchJsonPath.empty() ? nullptr : &Report.profiler());
  try {
    Run.runRows(
        Grid,
        [&](const GridCell &Cell) {
          const std::string &ProgName = Cell.str("program");
          const std::string &Policy = Cell.str("policy");
          CellOutcome Out = runCell(ProgName, Policy, M, LogN, C);
          TotalSteps.fetch_add(Out.Exec.Steps, std::memory_order_relaxed);
          {
            std::lock_guard<std::mutex> Lock(CellsMutex);
            OverheadCells.emplace_back(ProgName + "/" + Policy,
                                       Out.Overhead);
          }
          return Row()
              .addCell(ProgName)
              .addCell(Policy)
              .addCell(Out.Exec.Steps)
              .addCell(Out.Exec.HeapSize)
              .addCell(Out.Exec.wasteFactor(M), 3)
              .addCell(Out.Exec.MovedWords)
              .addCell(Out.Exec.TotalAllocatedWords)
              .addCell(Out.Overhead, 4)
              .addCell(Out.WorstPrefix, 4)
              .addCell(std::isfinite(Out.Bound) ? formatDouble(Out.Bound, 1)
                                                : std::string("inf"));
        },
        Sink);
  } catch (const std::exception &Ex) {
    std::cerr << "error: " << Ex.what() << "\n";
    return 1;
  }
  if (!Sink.emit(Opts))
    return 1;

  if (!BenchJsonPath.empty()) {
    // Deterministic emission order for the committed golden.
    std::sort(OverheadCells.begin(), OverheadCells.end());
    std::vector<JsonObject> Overheads;
    for (const auto &[Cell, Overhead] : OverheadCells)
      Overheads.push_back(
          JsonObject().add("cell", Cell).add("overhead", Overhead, 4));
    if (!Report.add("programs", Programs)
             .add("policies", Policies)
             .add("logm", LogM)
             .add("logn", LogN)
             .add("total_steps", TotalSteps.load())
             .add("overhead_cells", Overheads)
             .write(BenchJsonPath))
      return 1;
  }
  return 0;
}
