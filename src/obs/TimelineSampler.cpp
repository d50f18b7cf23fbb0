//===- obs/TimelineSampler.cpp - Strided heap-state sampling --------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "obs/TimelineSampler.h"

#include "driver/Execution.h"
#include "heap/Metrics.h"
#include "mm/CompactionLedger.h"
#include "obs/Profiler.h"

#include <cassert>

using namespace pcb;

void TimelineSampler::attach(Execution &E) {
  assert(Opts.MaxPoints >= 2 && "point budget too small to thin");
  E.addStepObserver([this](const Execution &Ex) { sample(Ex); });
}

void TimelineSampler::sample(const Execution &E) {
  // Steps count from 1 after the first completed step.
  if ((E.stepsRun() - 1) % Stride != 0)
    return;
  record(E);
}

void TimelineSampler::finish(const Execution &E) {
  if (E.stepsRun() != LastRecordedStep)
    record(E);
}

void pcb::recordHeapState(Timeline &TL, uint64_t Step, const Heap &H,
                          const CompactionLedger &L) {
  FragmentationMetrics FM = measureFragmentation(H);
  TimelinePoint P;
  P.Step = Step;
  P.FootprintWords = FM.FootprintWords;
  P.LiveWords = FM.LiveWords;
  P.FreeWords = FM.FreeWords;
  P.FreeBlocks = FM.FreeBlocks;
  P.LargestFreeBlock = FM.LargestFreeBlock;
  P.Utilization = FM.Utilization;
  P.ExternalFragmentation = FM.ExternalFragmentation;
  P.AllocatedWords = H.stats().TotalAllocatedWords;
  P.MovedWords = H.stats().MovedWords;
  P.BudgetWords = L.isUnlimited() ? 0 : L.budgetWords();
  TL.addPoint(P);
  Profiler::bump(Profiler::CtrTimelineSamples);
}

void TimelineSampler::record(const Execution &E) {
  LastRecordedStep = E.stepsRun();
  recordHeapState(TL, LastRecordedStep, E.heap(), E.manager().ledger());

  if (TL.size() >= Opts.MaxPoints) {
    TL.thinHalf();
    Stride *= 2;
  }
}
