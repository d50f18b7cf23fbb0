//===- examples/potential_function.cpp - Watching the proof work ----------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// Theorem 1's engine is the potential function u(t) (Definition 4.4): it
// never decreases (Claim 4.16), it never exceeds the heap footprint, and
// the adversary pumps it up by 3/4 of every allocation minus 2^sigma
// times the compaction spent against it. This example runs PF and plots
// both u(t) and HS(t) per step — the lower bound is literally the gap
// the manager can never close.
//
// Usage: potential_function [policy=evacuating] [logm=14] [logn=8] [c=30]
//
//===----------------------------------------------------------------------===//

#include "adversary/CohenPetrankProgram.h"
#include "driver/Execution.h"
#include "mm/ManagerFactory.h"
#include "support/AsciiChart.h"
#include "support/MathUtils.h"
#include "support/OptionParser.h"
#include "support/Table.h"

#include <iostream>

using namespace pcb;

int main(int argc, char **argv) {
  OptionParser Opts(argc, argv);
  std::string Policy = Opts.getString("policy", "evacuating");
  unsigned LogM = Opts.getUnsigned("logm", 14);
  unsigned LogN = Opts.getUnsigned("logn", 8);
  double C = Opts.getDouble("c", 30.0);
  uint64_t M = pow2(LogM);
  uint64_t N = pow2(LogN);

  Heap H;
  auto MM = createManager(Policy, H, C, /*LiveBound=*/M);
  if (!MM) {
    std::cerr << "error: unknown policy '" << Policy << "'\n";
    return 1;
  }
  CohenPetrankProgram PF(M, N, C);
  Execution E(*MM, PF, M);

  ChartSeries Footprint{"heap footprint HS(t) / M", '#', {}};
  ChartSeries Potential{"potential u(t) / M (Definition 4.4)", 'u', {}};
  ChartSeries Live{"live words / M", '.', {}};
  E.addStepObserver([&](const Execution &Ex) {
    const HeapStats &S = Ex.heap().stats();
    Footprint.Y.push_back(double(S.HighWaterMark) / double(M));
    Potential.Y.push_back(PF.potential() / double(M));
    Live.Y.push_back(double(S.LiveWords) / double(M));
  });
  ExecutionResult R = E.run();

  std::cout << "# PF vs " << MM->name() << " (M=" << formatWords(M)
            << ", n=" << formatWords(N) << ", c=" << C
            << "): sigma=" << PF.sigma()
            << ", target h=" << formatDouble(PF.targetWasteFactor(), 3)
            << "\n\n";

  AsciiChart::Options ChartOpts;
  ChartOpts.XLabel = "step";
  ChartOpts.Width = 72;
  AsciiChart Chart(0.0, double(R.Steps), ChartOpts);
  Chart.addSeries(Footprint);
  Chart.addSeries(Potential);
  Chart.addSeries(Live);
  Chart.print(std::cout);

  std::cout << "\nfinal: HS = " << formatDouble(R.wasteFactor(M), 3)
            << " x M, u = " << formatDouble(PF.potential() / double(M), 3)
            << " x M, moved = " << R.MovedWords << " words\n"
            << "Claim 4.16: u never decreased; u <= HS throughout — the\n"
            << "manager cannot shrink the heap below where u has climbed.\n";
  return 0;
}
