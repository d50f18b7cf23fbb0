//===- bench/bench_exact.cpp - E12: certify the sandwich -----------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// Solves the allocation game exactly on a grid of tiny parameters and
// certifies the closed-form bounds layer against the resulting ground
// truth: Theorem 1's forced heap <= exact <= the best upper bound on
// every cell, with exact == Robson's matching formula at c = infinity.
// The stdout table is deterministic (the determinism test diffs it across
// thread counts).
//
// Usage: bench_exact [Ms=2,4,8] [ns=2,4] [cs=1,2,4,inf] [csv=0]
//                    [threads=0] [out=]
//
//===----------------------------------------------------------------------===//

#include "exact/ExactGrid.h"
#include "exact/MinimaxSolver.h"
#include "runner/ResultSink.h"
#include "runner/Runner.h"
#include "support/OptionParser.h"
#include "support/Table.h"

#include <iostream>

using namespace pcb;

int main(int argc, char **argv) {
  OptionParser Opts(argc, argv);
  std::vector<ExactCell> Cells;
  unsigned Skipped = 0;
  std::string Error;
  if (!parseExactGrid(Opts, ExactParams(), Cells, Skipped, Error)) {
    std::cerr << "error: " << Error << "\n";
    return 1;
  }

  std::cout << "# E12: certify the sandwich — exact game values vs the"
            << " closed-form bounds\n"
            << "# Theorem 1 <= exact <= best upper on every cell;"
            << " exact == Robson at c=inf.\n";

  Runner Run = makeRunner(Opts);
  std::vector<ExactCertificate> Certs{Cells.size()};
  Run.forEachCell(Cells.size(), [&](uint64_t I) {
    const ExactParams &P = Cells[size_t(I)].P;
    Certs[size_t(I)] = certifyCell(P, solveExact(P));
  });

  ResultSink Sink(certificateHeader(/*WithNodes=*/false));
  uint64_t NumFailed = 0;
  for (size_t I = 0; I != Cells.size(); ++I) {
    const ExactCertificate &Cert = Certs[I];
    if (!Cert.ok()) {
      ++NumFailed;
      std::cerr << "certificate FAILED: " << Cert.describe() << "\n";
    }
    Sink.append(certificateRow(Cells[I], Cert, /*WithNodes=*/false));
  }
  if (!Sink.emit(Opts))
    return 1;
  return NumFailed == 0 ? 0 : 1;
}
