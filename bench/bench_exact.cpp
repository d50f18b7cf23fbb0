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
// thread counts); solver wall-clock and state-space sizes go to stderr.
//
// Usage: bench_exact [Ms=2,4,8] [ns=2,4] [cs=1,2,4,inf] [csv=0]
//                    [threads=0] [out=]
//
//===----------------------------------------------------------------------===//

#include "exact/Certifier.h"
#include "exact/MinimaxSolver.h"
#include "exact/QuotaList.h"
#include "runner/ResultSink.h"
#include "runner/Runner.h"
#include "support/OptionParser.h"
#include "support/Table.h"

#include <cmath>
#include <iostream>

using namespace pcb;

namespace {

std::string formatBound(double Words) {
  return std::isnan(Words) ? std::string("-") : formatDouble(Words, 1);
}

} // namespace

int main(int argc, char **argv) {
  OptionParser Opts(argc, argv);
  std::vector<uint64_t> Ms, Ns;
  std::vector<QuotaSpec> Cs; // integers plus "inf" (solver convention C = 0)
  std::string Error;
  if (!parseUIntList(Opts.getString("Ms", "2,4,8"), "Ms", Ms, Error) ||
      !parseUIntList(Opts.getString("ns", "2,4"), "ns", Ns, Error) ||
      !parseQuotaList(Opts.getString("cs", "1,2,4,inf"), Cs, Error)) {
    std::cerr << "error: " << Error << "\n";
    return 1;
  }

  struct ExactCell {
    ExactParams P;
    std::string CLabel;
  };
  std::vector<ExactCell> Cells;
  for (uint64_t M : Ms)
    for (uint64_t N : Ns)
      for (const QuotaSpec &Q : Cs) {
        if (N > M)
          continue; // out of the P2(M, n) domain
        ExactParams P;
        P.M = M;
        P.N = N;
        P.C = Q.C;
        if (!P.valid()) {
          std::cerr << "error: cell M=" << M << " n=" << N << " c=" << Q.Label
                    << " is outside the solvable range\n";
          return 1;
        }
        Cells.push_back({P, Q.Label});
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

  ResultSink Sink({"M", "n", "c", "exact", "lower", "robson", "thm2",
                   "upper", "status"});
  uint64_t NumFailed = 0, TotalNodes = 0;
  for (size_t I = 0; I != Cells.size(); ++I) {
    const ExactCertificate &Cert = Certs[I];
    for (const ArenaOutcome &A : Cert.Result.Arenas)
      TotalNodes += A.Nodes;
    if (!Cert.ok()) {
      ++NumFailed;
      std::cerr << "certificate FAILED: " << Cert.describe() << "\n";
    }
    Sink.append(Row()
                    .addCell(Cells[I].P.M)
                    .addCell(Cells[I].P.N)
                    .addCell(Cells[I].CLabel)
                    .addCell(Cert.Result.Solved
                                 ? std::to_string(Cert.Result.ExactWords)
                                 : std::string("-"))
                    .addCell(formatBound(Cert.LowerWords))
                    .addCell(formatBound(Cert.RobsonWords))
                    .addCell(formatBound(Cert.Theorem2Words))
                    .addCell(formatBound(Cert.UpperWords))
                    .addCell(!Cert.Result.Solved ? "unsolved"
                             : !Cert.ok()        ? "FAIL"
                             : Cert.Strict       ? "ok-strict"
                                                 : "ok"));
  }
  if (!Sink.emit(Opts))
    return 1;

  std::cerr << "# perf: " << Cells.size() << " cells, " << TotalNodes
            << " game states in " << formatDouble(Run.wallSeconds(), 2)
            << "s wall (threads=" << Run.threads() << ")\n";
  return NumFailed == 0 ? 0 : 1;
}
