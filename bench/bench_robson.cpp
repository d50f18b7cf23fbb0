//===- bench/bench_robson.cpp - E4: Robson's bound by simulation ---------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// Validates the paper's Section 2.2 baseline by running Robson's bad
// program PR against every non-moving manager at scaled parameters and
// comparing the measured footprint with the closed form
// M (log n / 2 + 1) - n + 1. Robson's theorem says the simulated column
// must never fall below the theory column; first fit and best fit match
// it exactly.
//
// Usage: bench_robson [logm=14] [lognmin=4] [lognmax=8] [csv=0]
//                     [threads=0] [out=]
//
//===----------------------------------------------------------------------===//

#include "adversary/RobsonProgram.h"
#include "bounds/RobsonBounds.h"
#include "driver/Execution.h"
#include "mm/CompactionLedger.h"
#include "mm/ManagerFactory.h"
#include "runner/ExperimentGrid.h"
#include "runner/ResultSink.h"
#include "runner/Runner.h"
#include "support/OptionParser.h"
#include "support/Table.h"

#include <iostream>

using namespace pcb;

int main(int argc, char **argv) {
  OptionParser Opts(argc, argv);
  unsigned LogM = getLog2(Opts, "logm", 14);
  unsigned LogNMin = getLog2(Opts, "lognmin", 4);
  unsigned LogNMax = getLog2(Opts, "lognmax", 8);
  uint64_t M = pow2(LogM);
  for (unsigned LogN : {LogNMin, LogNMax})
    if (!BoundParams{M, pow2(LogN), 10.0}.valid()) {
      std::cerr << "error: need 2 <= n <= M (logm=" << LogM
                << ", log2(n)=" << LogN << ")\n";
      return 1;
    }

  std::cout << "# E4: Robson's matching bound, simulated (PR vs"
            << " non-moving managers), M=" << formatWords(M) << "\n"
            << "# measured_waste >= theory_waste is the theorem;"
            << " first-fit matches it exactly.\n";

  ExperimentGrid Grid;
  Grid.addRangeAxis("log2n", LogNMin, LogNMax);
  Grid.addAxis("policy", nonMovingManagerPolicies());

  ResultSink Sink({"log2(n)", "policy", "measured_HS", "measured_waste",
                   "theory_waste", "ratio"});
  makeRunner(Opts).runRows(
      Grid,
      [&](const GridCell &Cell) {
        unsigned LogN = unsigned(Cell.num("log2n"));
        const std::string &Policy = Cell.str("policy");
        BoundParams P{M, pow2(LogN), 10.0};
        double Theory = robsonWasteFactor(P);
        Heap H;
        auto MM = createManager(Policy, H, /*C=*/1e18);
        RobsonProgram PR(M, LogN);
        Execution E(*MM, PR, M);
        ExecutionResult R = E.run();
        return Row()
            .addCell(uint64_t(LogN))
            .addCell(Policy)
            .addCell(R.HeapSize)
            .addCell(R.wasteFactor(M), 3)
            .addCell(Theory, 3)
            .addCell(R.wasteFactor(M) / Theory, 3);
      },
      Sink);
  return Sink.emit(Opts) ? 0 : 1;
}
