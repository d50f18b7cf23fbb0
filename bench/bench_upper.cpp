//===- bench/bench_upper.cpp - E6: upper-bound manager behaviour ---------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// Measures how the Theorem-2-spirited HybridManager (segregated fit plus
// budgeted evacuation) and its relatives behave against both adversarial
// and ordinary workloads, and compares the measured footprints with the
// three upper-bound formulas: (c+1) M (POPL 2011), 2 * Robson
// (no-compaction, general programs) and the reconstructed Theorem 2.
// Every measured waste must stay below every applicable upper bound.
//
// Each (policy, workload) pair is one grid cell; stochastic workloads
// average over per-cell seeds split from the cell's deterministic seed.
//
// Usage: bench_upper [logm=15] [logn=8] [c=50] [seeds=3] [csv=0]
//                    [threads=0] [out=]
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "adversary/CohenPetrankProgram.h"
#include "adversary/PatternWorkloads.h"
#include "adversary/RobsonProgram.h"
#include "adversary/SyntheticWorkloads.h"
#include "bounds/BenderskyPetrankBounds.h"
#include "bounds/CohenPetrankBounds.h"
#include "bounds/RobsonBounds.h"
#include "driver/Execution.h"
#include "mm/CompactionLedger.h"
#include "mm/ManagerFactory.h"
#include "support/Statistics.h"
#include "runner/ExperimentGrid.h"
#include "runner/ResultSink.h"
#include "runner/Runner.h"
#include "support/OptionParser.h"
#include "support/Random.h"
#include "support/Table.h"

#include <iostream>
#include <memory>
#include <vector>

using namespace pcb;

int main(int argc, char **argv) {
  OptionParser Opts(argc, argv);
  unsigned LogM = getLog2(Opts, "logm", 15);
  unsigned LogN = getLog2(Opts, "logn", 8);
  double C = getQuota(Opts, 50.0);
  uint64_t NumSeeds = Opts.getUInt("seeds", 3);
  uint64_t M = pow2(LogM);
  uint64_t N = pow2(LogN);
  // PF's domain holds Robson's (n <= M) and the bound formulas' (c > 1).
  if (!paramsOk(CohenPetrankProgram::paramsError(M, N, C), "logm=", LogM,
                ", logn=", LogN, ", c=", C))
    return 1;
  BoundParams P{M, N, C};

  std::cout << "# E6: upper-bound manager behaviour (M=" << formatWords(M)
            << ", n=" << formatWords(N) << ", c=" << C << ")\n"
            << "# Upper bounds: (c+1)M waste=" << C + 1.0
            << "; 2*Robson waste="
            << formatDouble(robsonGeneralWasteFactor(P), 3);
  if (C > 0.5 * double(P.logN()))
    std::cout << "; Theorem 2 waste="
              << formatDouble(cohenPetrankUpperWasteFactor(P), 3);
  std::cout << "\n";

  std::vector<std::string> Policies = {"segregated-fit", "buddy",
                                       "first-fit",      "evacuating",
                                       "hybrid",         "paged-space",
                                       "bump-compactor"};
  std::vector<std::string> Workloads = {
      "robson",     "cohen-petrank", "random-churn", "markov-phase",
      "stack-lifo", "queue-fifo",    "sawtooth"};

  ExperimentGrid Grid;
  Grid.addAxis("policy", Policies);
  Grid.addAxis("workload", Workloads);

  ResultSink Sink({"workload", "policy", "waste_mean", "waste_min",
                   "waste_max", "moved_mean"});
  makeRunner(Opts).runRows(
      Grid,
      [&](const GridCell &Cell) {
        const std::string &Policy = Cell.str("policy");
        const std::string &Workload = Cell.str("workload");

        // The adversaries are deterministic and run once; the stochastic
        // workloads run NumSeeds times on independent streams split from
        // the cell seed (so results depend only on the cell, never on
        // which thread ran it).
        auto MakeProgram =
            [&](uint64_t Seed) -> std::unique_ptr<Program> {
          if (Workload == "robson")
            return std::make_unique<RobsonProgram>(M, LogN);
          if (Workload == "cohen-petrank")
            return std::make_unique<CohenPetrankProgram>(M, N, C);
          if (Workload == "random-churn") {
            RandomChurnProgram::Options O;
            O.Steps = 48;
            O.MaxLogSize = LogN;
            O.Seed = Seed;
            return std::make_unique<RandomChurnProgram>(M, O);
          }
          if (Workload == "markov-phase") {
            MarkovPhaseProgram::Options O;
            O.MaxLogSize = LogN;
            O.Seed = Seed;
            return std::make_unique<MarkovPhaseProgram>(M, O);
          }
          if (Workload == "stack-lifo") {
            StackProgram::Options O;
            O.MaxLogSize = LogN;
            O.Seed = Seed;
            return std::make_unique<StackProgram>(M, O);
          }
          if (Workload == "queue-fifo") {
            QueueProgram::Options O;
            O.MaxLogSize = LogN;
            O.Seed = Seed;
            return std::make_unique<QueueProgram>(M, O);
          }
          SawtoothProgram::Options O;
          O.MaxLogSize = LogN;
          O.Seed = Seed;
          return std::make_unique<SawtoothProgram>(M, O);
        };
        bool Deterministic =
            Workload == "robson" || Workload == "cohen-petrank";
        uint64_t Runs = Deterministic ? 1 : NumSeeds;

        RunningStat Waste, Moved;
        for (uint64_t K = 0; K != Runs; ++K) {
          Heap H;
          auto MM = createManager(Policy, H, C, /*LiveBound=*/M);
          auto Prog = MakeProgram(splitSeed(Cell.seed(), K));
          Execution E(*MM, *Prog, M);
          ExecutionResult R = E.run();
          Waste.add(R.wasteFactor(M));
          Moved.add(double(R.MovedWords));
        }
        return Row()
            .addCell(Workload)
            .addCell(Policy)
            .addCell(Waste.mean(), 3)
            .addCell(Waste.min(), 3)
            .addCell(Waste.max(), 3)
            .addCell(uint64_t(Moved.mean()));
      },
      Sink);
  return Sink.emit(Opts) ? 0 : 1;
}
