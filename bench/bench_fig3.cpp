//===- bench/bench_fig3.cpp - Figure 3: upper bound vs c -----------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// Regenerates Figure 3: upper bounds on the waste factor for the paper's
// realistic parameters (M = 256MB, n = 1MB) as a function of c. Compares
// the previously best known bound min((c+1) M, 2 * Robson) with the
// Theorem 2 reconstruction (see DESIGN.md section 3 for the caveat on the
// OCR-damaged recursion).
//
// Usage: bench_fig3 [M=256M] [n=1M] [cmin=10] [cmax=100] [csv=0]
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

#include <cmath>
#include <iostream>
#include <limits>

using namespace pcb;

int main(int argc, char **argv) {
  OptionParser Opts(argc, argv);
  uint64_t M = Opts.getUInt("M", pow2(28));
  uint64_t N = Opts.getUInt("n", pow2(20));
  unsigned CMin = Opts.getUnsigned("cmin", 10);
  unsigned CMax = Opts.getUnsigned("cmax", 100);

  std::cout << "# Figure 3: upper bound on the waste factor"
            << " (M=" << formatWords(M) << ", n=" << formatWords(N)
            << ") as a function of c\n"
            << "# prior_upper = min((c+1)M, 2*Robson)/M;"
            << " new_upper = Theorem 2 (reconstructed);"
            << " best = min of both.\n";

  ExperimentGrid Grid;
  Grid.addRangeAxis("c", CMin, CMax);
  std::vector<Fig3Point> Series =
      makeRunner(Opts).map<Fig3Point>(Grid, [&](const GridCell &Cell) {
        unsigned C = unsigned(Cell.num("c"));
        return sweepFig3(M, N, C, C).front();
      });

  ResultSink Sink({"c", "new_upper", "prior_upper", "best", "improvement_%"});
  ChartSeries NewCurve{"Theorem 2 upper bound (reconstructed)", '#', {}};
  ChartSeries PriorCurve{"prior best: min((c+1)M, 2*Robson)", '.', {}};
  for (const Fig3Point &Pt : Series) {
    NewCurve.Y.push_back(Pt.NewUpper); // NaN gaps outside the domain
    PriorCurve.Y.push_back(Pt.PriorUpper);
    Row R;
    R.addCell(uint64_t(Pt.C));
    if (std::isnan(Pt.NewUpper))
      R.addCell(std::string("n/a"));
    else
      R.addCell(Pt.NewUpper, 3);
    R.addCell(Pt.PriorUpper, 3);
    R.addCell(Pt.BestUpper, 3);
    double Improvement =
        100.0 * (Pt.PriorUpper - Pt.BestUpper) / Pt.PriorUpper;
    R.addCell(Improvement, 1);
    Sink.append(std::move(R));
  }
  if (!Sink.emit(Opts))
    return 1;

  AsciiChart::Options ChartOpts;
  ChartOpts.XLabel = "c";
  ChartOpts.YLabel = "waste factor (upper bounds)";
  AsciiChart Chart(double(CMin), double(CMax), ChartOpts);
  Chart.addSeries(NewCurve);
  Chart.addSeries(PriorCurve);
  std::cout << '\n';
  Chart.print(std::cout);

  std::cout << "\n# Paper: the new bound improves on the prior best for"
            << " c in [20, 100];\n"
            << "# our reconstruction preserves that shape (see"
            << " EXPERIMENTS.md for the magnitude caveat).\n";
  return 0;
}
