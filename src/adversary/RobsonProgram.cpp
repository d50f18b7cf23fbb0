//===- adversary/RobsonProgram.cpp - Robson's bad program PR -------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "adversary/RobsonProgram.h"

#include "support/MathUtils.h"

#include <cassert>

using namespace pcb;

RobsonProgram::RobsonProgram(uint64_t M, unsigned LastStep)
    : LastStep(LastStep), Core(M, /*TrackGhosts=*/true) {
  assert(!paramsError(M, LastStep) &&
         "live bound below the largest allocation");
}

const char *RobsonProgram::paramsError(uint64_t M, unsigned LastStep) {
  if (LastStep >= 64 || M < pow2(LastStep))
    return "live bound M below the largest allocation n";
  return nullptr;
}

bool RobsonProgram::onObjectMoved(ObjectId Id, Addr From, Addr To) {
  (void)To;
  assert(TheHeap && "moved before the program's first step");
  return Core.handleMove(*TheHeap, Id, From);
}

bool RobsonProgram::step(MutatorContext &Ctx) {
  TheHeap = &Ctx.heap();
  if (Step > LastStep)
    return false;
  if (Step == 0)
    Core.runStepZero(Ctx);
  else
    Core.runStep(Ctx, Step);
  ++Step;
  return Step <= LastStep;
}
