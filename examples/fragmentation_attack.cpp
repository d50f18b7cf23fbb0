//===- examples/fragmentation_attack.cpp - Watch an adversary work --------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// Runs one of the paper's adversaries against a manager of your choice
// and renders the heap after every step, so you can watch the
// fragmentation build: the adversary leaves "pinning" objects in every
// chunk it touches, and each round of larger allocations is forced into
// fresh memory.
//
// Usage: fragmentation_attack [program=robson|cohen-petrank]
//                             [policy=first-fit] [logm=10] [logn=5] [c=20]
//
//===----------------------------------------------------------------------===//

#include "adversary/CohenPetrankProgram.h"
#include "adversary/RobsonProgram.h"
#include "bounds/CohenPetrankBounds.h"
#include "bounds/RobsonBounds.h"
#include "driver/Execution.h"
#include "heap/HeapImage.h"
#include "mm/ManagerFactory.h"
#include "support/OptionParser.h"
#include "support/Table.h"

#include <iostream>
#include <memory>

using namespace pcb;

int main(int argc, char **argv) {
  OptionParser Opts(argc, argv);
  std::string ProgramName = Opts.getString("program", "robson");
  std::string Policy = Opts.getString("policy", "first-fit");
  unsigned LogM = Opts.getUnsigned("logm", 10);
  unsigned LogN = Opts.getUnsigned("logn", 5);
  double C = Opts.getDouble("c", 20.0);
  uint64_t M = pow2(LogM);
  uint64_t N = pow2(LogN);

  Heap H;
  auto MM = createManager(Policy, H, C);
  if (!MM) {
    std::cerr << "error: unknown policy '" << Policy << "'\n";
    return 1;
  }

  std::unique_ptr<Program> Prog;
  double Theory = 0.0;
  if (ProgramName == "robson") {
    Prog = std::make_unique<RobsonProgram>(M, LogN);
    Theory = robsonWasteFactor(BoundParams{M, N, C});
  } else if (ProgramName == "cohen-petrank") {
    Prog = std::make_unique<CohenPetrankProgram>(M, N, C);
    Theory = static_cast<CohenPetrankProgram &>(*Prog).targetWasteFactor();
  } else {
    std::cerr << "error: unknown program '" << ProgramName << "'\n";
    return 1;
  }

  std::cout << "# " << Prog->name() << " vs " << MM->name() << " (M="
            << formatWords(M) << ", n=" << formatWords(N) << ", c=" << C
            << ")\n"
            << "# '#' used, ':' partly used, '.' free; one row per step\n\n";

  Execution E(*MM, *Prog, M);
  while (true) {
    bool More = E.runStep();
    const HeapStats &S = H.stats();
    std::cout << "step " << E.stepsRun() << ": live=" << S.LiveWords
              << " heap=" << S.HighWaterMark << " ("
              << formatDouble(double(S.HighWaterMark) / double(M), 2)
              << " x M), moved=" << S.MovedWords << "\n"
              << renderHeapImage(H, S.HighWaterMark, 72, 2) << "\n\n";
    if (!More)
      break;
  }

  ExecutionResult R = E.result();
  std::cout << "final waste factor " << formatDouble(R.wasteFactor(M), 3)
            << " x M";
  if (Theory > 0.0)
    std::cout << "  (theory says >= " << formatDouble(Theory, 3)
              << " x M for this setting)";
  std::cout << "\n";
  return 0;
}
