//===- fuzz/InvariantOracle.cpp - Per-step invariant checking ------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "fuzz/InvariantOracle.h"

#include "realloc/ReallocationLedger.h"

#include <cassert>
#include <cmath>

using namespace pcb;

std::string Violation::describe() const {
  return Policy + "/" + Check + " at step " + std::to_string(Step) + ": " +
         Detail;
}

InvariantOracle::InvariantOracle(const Heap &H, const MemoryManager &MM,
                                 const EventLog &Log)
    : InvariantOracle(H, MM, Log, Options()) {}

InvariantOracle::InvariantOracle(const Heap &H, const MemoryManager &MM,
                                 const EventLog &Log, Options O)
    : H(H), MM(MM), Log(Log), Opts(O),
      Audit(MM.ledger().quotaDenominator()) {}

Violation InvariantOracle::make(const std::string &Check, uint64_t Step,
                                const std::string &Detail) const {
  return Violation{Check, MM.name(), Step, Detail};
}

size_t InvariantOracle::checkCheap(uint64_t Step,
                                   std::vector<Violation> &Out) {
  size_t Before = Out.size();
  const HeapStats &S = H.stats();
  if (S.HighWaterMark < S.LiveWords)
    Out.push_back(make("footprint-below-live", Step,
                       "footprint " + std::to_string(S.HighWaterMark) +
                           " < live " + std::to_string(S.LiveWords)));
  if (S.HighWaterMark < LastHighWaterMark)
    Out.push_back(make("footprint-shrank", Step,
                       "high-water mark fell from " +
                           std::to_string(LastHighWaterMark) + " to " +
                           std::to_string(S.HighWaterMark)));
  LastHighWaterMark = S.HighWaterMark;
  if (!MM.ledger().holds())
    Out.push_back(make("budget-endpoint", Step,
                       "moved " + std::to_string(S.MovedWords) +
                           " words against a budget of " +
                           std::to_string(MM.ledger().budgetWords())));
  // The family-agnostic overhead invariant: cumulative moved words stay
  // within the manager's declared multiple of cumulative allocated
  // words (1/c for c-partial managers, the paper bound for the
  // reallocation family, 0 for never-move baselines).
  double Bound = MM.overheadBound();
  if (std::isfinite(Bound) &&
      double(S.MovedWords) > Bound * double(S.TotalAllocatedWords) + 1e-9)
    Out.push_back(make("overhead-ratio", Step,
                       "moved " + std::to_string(S.MovedWords) +
                           " words against " +
                           std::to_string(S.TotalAllocatedWords) +
                           " allocated at declared bound " +
                           std::to_string(Bound)));
  return Out.size() - Before;
}

size_t InvariantOracle::checkStep(uint64_t Step,
                                  std::vector<Violation> &Out) {
  size_t Added = checkCheap(Step, Out);
  if (Opts.DeepCheckEvery != 0 && Step % Opts.DeepCheckEvery == 0)
    Added += checkDeep(Step, Out);
  return Added;
}

size_t InvariantOracle::checkDeep(uint64_t Step,
                                  std::vector<Violation> &Out) {
  size_t Before = Out.size();
  checkCheap(Step, Out);

  std::string Why;
  if (!H.checkConsistency(&Why))
    Out.push_back(make("structural", Step, Why));

  const std::vector<HeapEvent> &Events = Log.events();
  assert(Folded <= Events.size() && "the event log shrank under the oracle");
  for (; Folded != Events.size(); ++Folded)
    Audit.fold(Events[Folded]);

  const HeapStats &S = H.stats();
  const AuditReport &A = Audit.report();
  if (!A.Consistent)
    Out.push_back(make("event-stream", Step,
                       "recorded events are internally inconsistent "
                       "(double free, overlap, or move of a dead object)"));
  else if (!A.matches(S)) {
    std::string Detail;
    for (const HeapStatsField &F : HeapStatsFields)
      if (A.*F.Member != S.*F.Member)
        Detail += std::string(F.Name) + " audited=" +
                  std::to_string(A.*F.Member) +
                  " stats=" + std::to_string(S.*F.Member) + "; ";
    Out.push_back(make("audit-mismatch", Step, Detail));
  }

  if (!Audit.budgetHeld())
    Out.push_back(make("budget-history", Step,
                       "a prefix of the execution moved more than "
                       "allocated/c words"));

  // End-to-end ledger reconciliation for the reallocation family: the
  // ledger keeps its own counters, so cumulative heap statistics are an
  // independent witness — a manager that moves behind its ledger's back
  // (or forgets to note volume) diverges here even if every per-step
  // ratio looks fine.
  if (const ReallocationLedger *RL = MM.reallocationLedger()) {
    if (RL->movedWords() != S.MovedWords ||
        RL->allocatedWords() != S.TotalAllocatedWords)
      Out.push_back(make(
          "ledger-reconcile", Step,
          "ledger moved=" + std::to_string(RL->movedWords()) + " allocated=" +
              std::to_string(RL->allocatedWords()) + " vs heap moved=" +
              std::to_string(S.MovedWords) + " allocated=" +
              std::to_string(S.TotalAllocatedWords)));
    if (!RL->holds())
      Out.push_back(make("overhead-history", Step,
                         "a prefix reached overhead ratio " +
                             std::to_string(RL->maxPrefixRatio()) +
                             " above the declared bound " +
                             std::to_string(RL->bound())));
  }
  return Out.size() - Before;
}
