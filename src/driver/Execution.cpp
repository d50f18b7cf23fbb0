//===- driver/Execution.cpp - Program/manager execution engine -----------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "driver/Execution.h"

#include "obs/Profiler.h"

#include <cassert>

using namespace pcb;

Execution::Execution(MemoryManager &MM, Program &P, uint64_t M)
    : Execution(MM, P, M, Options()) {}

Execution::Execution(MemoryManager &MM, Program &P, uint64_t M,
                     const Options &O)
    : MM(MM), P(P), M(M), Opts(O) {
  MM.setMoveCallback([this](ObjectId Id, Addr From, Addr To) {
    return this->P.onObjectMoved(Id, From, To);
  });
  if (Opts.Log)
    MM.heap().setEventCallback(
        [Log = Opts.Log](const HeapEvent &E) { Log->record(E); });
}

ObjectId Execution::allocate(uint64_t Size) {
  assert(Size != 0 && "program allocates zero words");
  assert(MM.heap().stats().LiveWords + Size <= M &&
         "program exceeds its live bound M");
  return MM.allocate(Size);
}

void Execution::free(ObjectId Id) { MM.free(Id); }

bool Execution::runStep() {
  if (Finished)
    return false;
  // exec.step encloses the whole step, so heap.* / fsi.* / mm.compact
  // section times nest inside it (the report notes times are inclusive).
  ScopedTimer Timer(Profiler::SecStep);
  Finished = !P.step(*this);
  ++Steps;
  if (Opts.Log)
    Opts.Log->record(HeapEvent::stepEnd());
  checkInvariants();
  if (Opts.DeepCheckEvery != 0 && Steps % Opts.DeepCheckEvery == 0)
    assert(MM.heap().checkConsistency() &&
           "heap failed its structural self-check");
  for (const auto &Observer : Observers)
    Observer(*this);
  assert(Steps <= Opts.MaxSteps && "program exceeded the step limit");
  return !Finished;
}

ExecutionResult Execution::run() {
  while (runStep())
    ;
  return result();
}

ExecutionResult Execution::result() const {
  const HeapStats &S = MM.heap().stats();
  ExecutionResult R;
  R.HeapSize = S.HighWaterMark;
  R.PeakLiveWords = S.PeakLiveWords;
  R.TotalAllocatedWords = S.TotalAllocatedWords;
  R.MovedWords = S.MovedWords;
  R.Steps = Steps;
  R.NumAllocations = S.NumAllocations;
  R.NumFrees = S.NumFrees;
  R.NumMoves = S.NumMoves;
  return R;
}

void Execution::checkInvariants() const {
  // The c-partial constraint (Section 2.1): moved <= allocated / c.
  assert(MM.ledger().holds() && "manager exceeded its compaction budget");
  // The program's own contract.
  assert(MM.heap().stats().LiveWords <= M && "live space exceeds M");
}
