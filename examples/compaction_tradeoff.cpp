//===- examples/compaction_tradeoff.cpp - How much moving buys ------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// The question a runtime designer actually asks: "if my collector can
// afford to move p% of all allocated bytes, what heap headroom must I
// still provision for the worst case?" This example answers it two ways
// for a range of p: with Theorem 1's closed form (at the paper's full
// parameters) and by measurement (the PF adversary against a compacting
// manager at simulation scale).
//
// Usage: compaction_tradeoff [logm=15] [logn=8] [policy=evacuating]
//
//===----------------------------------------------------------------------===//

#include "adversary/CohenPetrankProgram.h"
#include "bounds/CohenPetrankBounds.h"
#include "bounds/Planning.h"
#include "driver/Execution.h"
#include "mm/ManagerFactory.h"
#include "support/OptionParser.h"
#include "support/Table.h"

#include <iostream>

using namespace pcb;

int main(int argc, char **argv) {
  OptionParser Opts(argc, argv);
  unsigned LogM = Opts.getUnsigned("logm", 15);
  unsigned LogN = Opts.getUnsigned("logn", 8);
  std::string Policy = Opts.getString("policy", "evacuating");
  uint64_t M = pow2(LogM);
  uint64_t N = pow2(LogN);

  std::cout
      << "# If the collector may move p% of all allocated space, the\n"
      << "# worst-case heap must still be at least h(p) x live space:\n"
      << "#   paper_h      at M=256MB, n=1MB (the paper's Figure 1)\n"
      << "#   measured     PF adversary vs '" << Policy << "' at M="
      << formatWords(M) << ", n=" << formatWords(N) << "\n"
      << "#   sim_h        the same closed form at simulation scale\n\n";

  Table T({"move_%", "c", "paper_h", "sim_h", "measured", "moved_words"});
  for (double Percent : {10.0, 5.0, 4.0, 2.0, 1.333, 1.0}) {
    double C = 100.0 / Percent;
    BoundParams Paper{pow2(28), pow2(20), C};
    BoundParams Sim{M, N, C};

    Heap H;
    auto MM = createManager(Policy, H, C);
    if (!MM) {
      std::cerr << "error: unknown policy '" << Policy << "'\n";
      return 1;
    }
    CohenPetrankProgram PF(M, N, C);
    Execution E(*MM, PF, M);
    ExecutionResult R = E.run();

    T.beginRow();
    T.addCell(Percent, 1);
    T.addCell(C, 1);
    T.addCell(cohenPetrankLowerWasteFactor(Paper), 2);
    T.addCell(cohenPetrankLowerWasteFactor(Sim), 2);
    T.addCell(R.wasteFactor(M), 2);
    T.addCell(R.MovedWords);
  }
  T.printAligned(std::cout);

  std::cout << "\n# Reading: provisioning less than paper_h x live space\n"
            << "# cannot be guaranteed safe, no matter how clever the\n"
            << "# manager — that is the content of Theorem 1.\n";

  // The inverse question, answered by the planning API.
  std::cout << "\n# And inverted: to keep the guaranteed worst case at or"
            << " below a target\n# (at M=256MB, n=1MB), the collector must"
            << " be able to move at least:\n";
  Table Inverse({"target_waste", "min_move_%", "max_c"});
  for (double Target : {2.0, 2.5, 3.0, 3.5}) {
    CompactionPlan Plan = planCompactionBudget(pow2(28), pow2(20), Target);
    Inverse.beginRow();
    Inverse.addCell(Target, 1);
    if (Plan.Feasible) {
      Inverse.addCell(100.0 * Plan.MinMovedFraction, 2);
      Inverse.addCell(Plan.MaxQuota, 1);
    } else {
      Inverse.addCell(std::string("infeasible"));
      Inverse.addCell(std::string("-"));
    }
  }
  Inverse.printAligned(std::cout);
  return 0;
}
