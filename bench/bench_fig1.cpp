//===- bench/bench_fig1.cpp - Figure 1: lower bound vs c -----------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// Regenerates Figure 1: the lower bound on the waste factor h for the
// paper's realistic parameters (M = 256MB, n = 1MB) as a function of the
// compaction quota c, alongside the Bendersky-Petrank POPL 2011 lower
// bound (trivial at these parameters) and Robson's no-compaction bound.
//
// Usage: bench_fig1 [M=256M] [n=1M] [cmin=10] [cmax=100] [csv=0]
//                   [threads=0] [out=]
//
//===----------------------------------------------------------------------===//

#include "bounds/BoundSweep.h"
#include "runner/ExperimentGrid.h"
#include "runner/ResultSink.h"
#include "runner/Runner.h"
#include "support/AsciiChart.h"
#include "support/OptionParser.h"
#include "support/Table.h"

#include <iostream>

using namespace pcb;

int main(int argc, char **argv) {
  OptionParser Opts(argc, argv);
  uint64_t M = Opts.getUInt("M", pow2(28));
  uint64_t N = Opts.getUInt("n", pow2(20));
  unsigned CMin = Opts.getUnsigned("cmin", 10);
  unsigned CMax = Opts.getUnsigned("cmax", 100);

  std::cout << "# Figure 1: lower bound on the waste factor h"
            << " (M=" << formatWords(M) << ", n=" << formatWords(N)
            << ") as a function of c\n"
            << "# new_lower: Theorem 1 (this paper); prior_lower:"
            << " Bendersky-Petrank POPL 2011 (clamped at the trivial 1);\n"
            << "# robson: the no-compaction ceiling.\n";

  ExperimentGrid Grid;
  Grid.addRangeAxis("c", CMin, CMax);
  std::vector<Fig1Point> Series =
      makeRunner(Opts).map<Fig1Point>(Grid, [&](const GridCell &Cell) {
        unsigned C = unsigned(Cell.num("c"));
        return sweepFig1(M, N, C, C).front();
      });

  ResultSink Sink({"c", "new_lower", "sigma", "prior_lower", "robson"});
  ChartSeries NewCurve{"Theorem 1 lower bound (this paper)", '#', {}};
  ChartSeries PriorCurve{"POPL 2011 lower bound", '.', {}};
  for (const Fig1Point &Pt : Series) {
    Sink.append(Row()
                    .addCell(uint64_t(Pt.C))
                    .addCell(Pt.NewLower, 3)
                    .addCell(uint64_t(Pt.Sigma))
                    .addCell(Pt.PriorLower, 3)
                    .addCell(Pt.RobsonLower, 3));
    NewCurve.Y.push_back(Pt.NewLower);
    PriorCurve.Y.push_back(Pt.PriorLower);
  }
  if (!Sink.emit(Opts))
    return 1;

  AsciiChart::Options ChartOpts;
  ChartOpts.XLabel = "c";
  ChartOpts.YLabel = "waste factor h";
  AsciiChart Chart(double(CMin), double(CMax), ChartOpts);
  Chart.addSeries(NewCurve);
  Chart.addSeries(PriorCurve);
  std::cout << '\n';
  Chart.print(std::cout);

  // The prose anchors of the paper, restated for quick comparison.
  std::cout << "\n# Paper anchors: h(c=10) = 2, h(c=50) ~ 3.15,"
            << " h(c=100) ~ 3.5 (for M=256MB, n=1MB)\n";
  return 0;
}
