//===- bench/bench_pf_sim.cpp - E5: Theorem 1 by simulation --------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// Runs the Cohen-Petrank adversary PF against the c-partial manager
// family at scaled parameters, sweeping the compaction quota c. Theorem 1
// says every manager's measured waste factor must be at least the h
// computed for (M, n, c); the bench prints both plus the budget actually
// spent. The unlimited slider is included as the "overhead factor 1"
// reference the introduction contrasts against — it is *not* c-partial
// and is the only row allowed below h.
//
// Usage: bench_pf_sim [logm=16] [logn=9] [cs=10,25,50,75,100] [csv=0]
//                     [threads=0] [out=] [bench-json=FILE]
//                     [overhead-check=0]
//
// The results table on stdout stays byte-identical across thread counts
// (the determinism test diffs it). bench-json=FILE runs the grid
// profiled and writes its work golden: the step and allocation totals,
// the section call counts and the work counters (bench/BenchUtils.h).
// overhead-check=1 asserts the disabled-profiler ScopedTimer fast path
// costs nanoseconds, failing the run when instrumentation regresses.
//
//===----------------------------------------------------------------------===//

#include "adversary/CohenPetrankProgram.h"
#include "bounds/CohenPetrankBounds.h"
#include "driver/Execution.h"
#include "mm/CompactionLedger.h"
#include "mm/ManagerFactory.h"
#include "BenchUtils.h"
#include "obs/Profiler.h"
#include "runner/ExperimentGrid.h"
#include "runner/ResultSink.h"
#include "runner/Runner.h"
#include "support/OptionParser.h"
#include "support/Table.h"

#include <atomic>
#include <chrono>
#include <iostream>

using namespace pcb;

namespace {

/// Asserts the null-sink fast path: with no profiler installed, a
/// ScopedTimer is one thread_local load and a branch. The ceiling is
/// generous (a clock read alone costs ~20ns; the disabled path must stay
/// well under one) so the check only fires on a real regression, e.g.
/// someone adding an unconditional clock read.
int runOverheadCheck() {
  constexpr uint64_t Iters = 20'000'000;
  auto Start = std::chrono::steady_clock::now();
  for (uint64_t I = 0; I != Iters; ++I) {
    ScopedTimer T(Profiler::SecHeapPlace);
    // Keep the loop body from being hoisted or elided wholesale.
    asm volatile("" ::: "memory");
  }
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  double NsPerOp = Seconds * 1e9 / double(Iters);
  std::cerr << "# overhead-check: disabled ScopedTimer = "
            << formatDouble(NsPerOp, 2) << " ns/op over " << Iters
            << " iterations\n";
  if (NsPerOp > 25.0) {
    std::cerr << "# overhead-check: FAIL — disabled instrumentation must"
              << " stay under 25 ns/op\n";
    return 1;
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  OptionParser Opts(argc, argv);
  unsigned LogM = getLog2(Opts, "logm", 16);
  unsigned LogN = getLog2(Opts, "logn", 9);
  std::vector<double> Cs = getQuotaList(Opts, "10,25,50,75,100");
  uint64_t M = pow2(LogM);
  uint64_t N = pow2(LogN);
  for (double C : Cs)
    if (!paramsOk(CohenPetrankProgram::paramsError(M, N, C), "logm=", LogM,
                  ", logn=", LogN, ", c=", C))
      return 1;
  std::string BenchJsonPath = Opts.getString("bench-json", "");
  if (Opts.getBool("overhead-check", false) && runOverheadCheck() != 0)
    return 1;

  std::cout << "# E5: Theorem 1 by simulation: PF vs c-partial managers"
            << " (M=" << formatWords(M) << ", n=" << formatWords(N) << ")\n"
            << "# Every c-partial row must satisfy measured >= h;"
            << " sliding-unlimited is the non-c-partial reference.\n";

  // The last policy value is the non-c-partial full compactor; keeping it
  // on the axis preserves the historical row order (reference row last
  // within each c group).
  const std::string Reference = "sliding-unlimited*";
  std::vector<std::string> Policies = {"first-fit",  "best-fit",
                                       "segregated-fit", "chunked",
                                       "meshing",    "evacuating",
                                       "hybrid",     "sliding",
                                       "paged-space",
                                       "bump-compactor", Reference};

  ExperimentGrid Grid;
  Grid.addAxis("c", Cs);
  Grid.addAxis("policy", Policies);

  ResultSink Sink({"c", "policy", "measured_HS", "measured_waste", "theory_h",
                   "sigma", "moved_words", "budget_used_%"});
  std::atomic<uint64_t> TotalSteps{0};
  std::atomic<uint64_t> TotalAllocatedWords{0};
  BenchReport Report("pf_sim");
  Runner Run =
      makeRunner(Opts, BenchJsonPath.empty() ? nullptr : &Report.profiler());
  Run.runRows(
      Grid,
      [&](const GridCell &Cell) {
        double C = Cell.num("c");
        const std::string &Policy = Cell.str("policy");
        bool IsReference = Policy == Reference;
        Heap H;
        auto MM = IsReference
                      ? createManager("sliding-unlimited", H, 0.0)
                      : createManager(Policy, H, C, /*LiveBound=*/M);
        CohenPetrankProgram PF(M, N, C);
        Execution E(*MM, PF, M);
        ExecutionResult R = E.run();
        TotalSteps.fetch_add(R.Steps, std::memory_order_relaxed);
        TotalAllocatedWords.fetch_add(R.TotalAllocatedWords,
                                      std::memory_order_relaxed);
        Row Out;
        Out.addCell(uint64_t(C))
            .addCell(Policy)
            .addCell(R.HeapSize)
            .addCell(R.wasteFactor(M), 3)
            .addCell(PF.targetWasteFactor(), 3)
            .addCell(uint64_t(PF.sigma()))
            .addCell(R.MovedWords);
        if (IsReference) {
          Out.addCell(std::string("n/a"));
        } else {
          double BudgetPct = R.TotalAllocatedWords == 0
                                 ? 0.0
                                 : 100.0 * double(R.MovedWords) * C /
                                       double(R.TotalAllocatedWords);
          Out.addCell(BudgetPct, 1);
        }
        return Out;
      },
      Sink);
  if (!Sink.emit(Opts))
    return 1;

  std::cout << "\n# (*) not a c-partial manager: unlimited compaction"
            << " budget, shown as the overhead-1 reference.\n";

  if (!BenchJsonPath.empty() &&
      !Report.add("logm", LogM)
           .add("logn", LogN)
           .add("cs", Cs, 0)
           .add("total_steps", TotalSteps.load())
           .add("total_allocated_words", TotalAllocatedWords.load())
           .write(BenchJsonPath))
    return 1;
  return 0;
}
