//===- trace/BudgetController.cpp - When to spend the budget -------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "trace/BudgetController.h"

#include "driver/Execution.h"
#include "heap/Heap.h"
#include "mm/MemoryManager.h"
#include "obs/Profiler.h"

#include <cassert>
#include <cmath>

using namespace pcb;

BudgetController::~BudgetController() = default;

bool BudgetController::consult() {
  if (allowSpend()) {
    ++NumGrants;
    return true;
  }
  ++NumDenials;
  Profiler::bump(Profiler::CtrControllerDenials);
  return false;
}

BudgetSample pcb::sampleFromHeap(const Heap &H, uint64_t Step) {
  const HeapStats &S = H.stats();
  BudgetSample Sample;
  Sample.Step = Step;
  Sample.LiveWords = S.LiveWords;
  Sample.FootprintWords = S.HighWaterMark;
  Sample.AllocatedWords = S.TotalAllocatedWords;
  Sample.MovedWords = S.MovedWords;
  Sample.NumMoves = S.NumMoves;
  return Sample;
}

void MemBalancerController::observe(const BudgetSample &S) {
  if (HavePrev && S.Step > PrevStep) {
    // Live-size derivative per step, clamped at zero: shrinking phases
    // mean "no growth pressure", not negative pressure.
    double Delta = S.LiveWords > PrevLive
                       ? double(S.LiveWords - PrevLive) /
                             double(S.Step - PrevStep)
                       : 0.0;
    Growth = (1.0 - Opts.Smoothing) * Growth + Opts.Smoothing * Delta;
  }
  PrevLive = S.LiveWords;
  PrevStep = S.Step;
  HavePrev = true;
  Live = S.LiveWords;
  Slack = S.FootprintWords > S.LiveWords ? S.FootprintWords - S.LiveWords : 0;
  MoveCost = S.NumMoves != 0 ? double(S.MovedWords) / double(S.NumMoves) : 1.0;
}

double MemBalancerController::slackTargetWords() const {
  // Floor on E*: below this much slack the heap is essentially
  // unfragmented and a move reclaims nothing worth the budget, so the
  // gate denies regardless of the growth signal.
  constexpr double MinSlackWords = 64.0;
  double Target =
      std::sqrt(Opts.C1 * double(Live) * Growth / std::max(1.0, MoveCost));
  return std::max(MinSlackWords, Target);
}

bool MemBalancerController::allowSpend() const {
  return double(Slack) >= slackTargetWords();
}

const std::vector<std::string> &pcb::allControllerNames() {
  static const std::vector<std::string> Names = {"fixed", "periodic",
                                                 "membalancer"};
  return Names;
}

std::unique_ptr<BudgetController>
pcb::createControllerChecked(const ControllerSpec &Spec, std::string *Error) {
  if (Spec.Name == "fixed")
    return std::make_unique<FixedTriggerController>();
  if (Spec.Name == "periodic")
    return std::make_unique<PeriodicController>(Spec.Period);
  if (Spec.Name == "membalancer") {
    MemBalancerController::Options O;
    O.C1 = Spec.C1;
    O.Smoothing = Spec.Smoothing;
    return std::make_unique<MemBalancerController>(O);
  }
  if (Error) {
    std::string Valid;
    for (const std::string &N : allControllerNames())
      Valid += (Valid.empty() ? "" : ", ") + N;
    *Error = "unknown controller '" + Spec.Name + "' (valid: " + Valid + ")";
  }
  return nullptr;
}

std::unique_ptr<BudgetController>
pcb::createController(const ControllerSpec &Spec) {
  std::string Error;
  std::unique_ptr<BudgetController> C = createControllerChecked(Spec, &Error);
  assert(C && "unknown controller name");
  return C;
}

void pcb::attachController(Execution &E, MemoryManager &MM,
                           BudgetController &C) {
  C.observe(sampleFromHeap(MM.heap(), 0));
  MM.setSpendGate([&C] { return C.consult(); });
  E.addStepObserver([&C](const Execution &Ex) {
    C.observe(sampleFromHeap(Ex.manager().heap(), Ex.stepsRun()));
  });
}
