//===- bench/bench_ablation.cpp - E7: ablating PF's improvements ---------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// Section 3.1 credits the improved bound to specific design choices of
// PF. This bench disables them one at a time and measures the footprint
// each variant forces out of the evacuating c-partial manager:
//
//   full          the paper's Algorithm 1
//   no-density    density maintenance off: the adversary frees greedily,
//                 handing the manager cheap chunks to evacuate
//   no-ghosts     stage-one ghost bookkeeping off: compaction perturbs
//                 the Robson stage's offset accounting
//   no-stage1     the Robson bootstrap replaced by a flat unit-object
//                 fill (a POPL-2011-style adversary, the paper's first
//                 improvement undone)
//   greedy-alloc  the fixed x*M per-step allocation replaced by
//                 allocate-as-much-as-fits (the POPL 2011 behaviour the
//                 paper's second improvement replaces)
//   sigma=k       forcing each admissible density exponent, showing the
//                 optimum matches the h-maximizing sigma
//
// The (c, variant) grid is rectangular; sigma=k cells outside a given
// c's admissible range produce no row.
//
// Usage: bench_ablation [logm=15] [logn=9] [cs=20,50,100] [csv=0]
//                       [threads=0] [out=]
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "adversary/CohenPetrankProgram.h"
#include "bounds/CohenPetrankBounds.h"
#include "driver/Execution.h"
#include "mm/CompactionLedger.h"
#include "mm/EvacuatingCompactor.h"
#include "runner/ExperimentGrid.h"
#include "runner/ResultSink.h"
#include "runner/Runner.h"
#include "support/OptionParser.h"
#include "support/Table.h"

#include <algorithm>
#include <iostream>

using namespace pcb;

int main(int argc, char **argv) {
  OptionParser Opts(argc, argv);
  unsigned LogM = getLog2(Opts, "logm", 15);
  unsigned LogN = getLog2(Opts, "logn", 9);
  std::vector<double> Cs = getQuotaList(Opts, "20,50,100");
  uint64_t M = pow2(LogM);
  uint64_t N = pow2(LogN);
  for (double C : Cs)
    if (!paramsOk(CohenPetrankProgram::paramsError(M, N, C), "logm=", LogM,
                  ", logn=", LogN, ", c=", C))
      return 1;

  std::cout << "# E7: ablation of PF's design choices vs the evacuating"
            << " manager (M=" << formatWords(M) << ", n=" << formatWords(N)
            << ")\n";

  auto MaxSigmaFor = [&](double C) {
    return std::min(cohenPetrankMaxSigma(C), (log2Exact(N) - 2) / 2);
  };
  unsigned GlobalMaxSigma = 0;
  for (double C : Cs)
    GlobalMaxSigma = std::max(GlobalMaxSigma, MaxSigmaFor(C));

  std::vector<std::string> Variants = {"full", "no-density", "no-ghosts",
                                       "no-stage1", "greedy-alloc"};
  for (unsigned S = 1; S <= GlobalMaxSigma; ++S)
    Variants.push_back("sigma=" + std::to_string(S));

  ExperimentGrid Grid;
  Grid.addAxis("c", Cs);
  Grid.addAxis("variant", Variants);

  ResultSink Sink({"c", "variant", "sigma", "measured_waste", "theory_h",
                   "moved_words"});
  makeRunner(Opts).run(
      Grid,
      [&](const GridCell &Cell) -> std::vector<Row> {
        double C = Cell.num("c");
        const std::string &Variant = Cell.str("variant");
        CohenPetrankProgram::Options ProgOpts;
        if (Variant == "no-density")
          ProgOpts.MaintainDensity = false;
        else if (Variant == "no-ghosts")
          ProgOpts.TrackGhosts = false;
        else if (Variant == "no-stage1")
          ProgOpts.RobsonBootstrap = false;
        else if (Variant == "greedy-alloc")
          ProgOpts.FixedAllocation = false;
        else if (Variant.rfind("sigma=", 0) == 0) {
          unsigned S = unsigned(std::stoul(Variant.substr(6)));
          if (S > MaxSigmaFor(C))
            return {}; // inadmissible sigma at this c: no row
          ProgOpts.SigmaOverride = S;
        }

        Heap H;
        EvacuatingCompactor MM(H, C);
        CohenPetrankProgram PF(M, N, C, ProgOpts);
        Execution E(MM, PF, M);
        ExecutionResult R = E.run();
        return {Row()
                    .addCell(uint64_t(C))
                    .addCell(Variant)
                    .addCell(uint64_t(PF.sigma()))
                    .addCell(R.wasteFactor(M), 3)
                    .addCell(PF.targetWasteFactor(), 3)
                    .addCell(R.MovedWords)};
      },
      Sink);
  return Sink.emit(Opts) ? 0 : 1;
}
