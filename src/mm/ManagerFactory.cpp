//===- mm/ManagerFactory.cpp - Managers by name ---------------------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "mm/ManagerFactory.h"

#include "mm/BuddyManager.h"
#include "mm/BumpCompactor.h"
#include "mm/ChunkedManager.h"
#include "mm/EvacuatingCompactor.h"
#include "mm/HybridManager.h"
#include "mm/MeshingCompactor.h"
#include "mm/PagedSpaceManager.h"
#include "mm/SegregatedFitManager.h"
#include "mm/SequentialFitManagers.h"
#include "mm/SlidingCompactor.h"
#include "realloc/CostObliviousAllocator.h"
#include "realloc/NeverMoveAllocator.h"
#include "realloc/TightSpanAllocator.h"

using namespace pcb;

namespace {

enum Family { Compaction, Realloc };

/// One registered policy. Every name list and predicate in this file is
/// derived from the Registry table below, so they cannot drift apart.
struct PolicyRow {
  const char *Name;
  Family Fam;
  /// False for managers that must never emit a Move event.
  bool Moves;
  /// True when the constructor needs the program's live bound M.
  bool NeedsLiveBound;
  std::unique_ptr<MemoryManager> (*Make)(Heap &H, double C,
                                         uint64_t LiveBound);
};

/// A c-partial manager constructed from (heap, quota).
template <typename T>
std::unique_ptr<MemoryManager> makeCPartial(Heap &H, double C, uint64_t) {
  return std::make_unique<T>(H, C);
}

/// A reallocation-family manager (DESIGN.md §17). These ignore C: their
/// budget is the overhead bound in the ReallocationLedger, not a
/// c-partial quota.
template <typename T>
std::unique_ptr<MemoryManager> makeRealloc(Heap &H, double, uint64_t) {
  return std::make_unique<T>(H);
}

std::unique_ptr<MemoryManager> slidingUnlimited(Heap &H, double, uint64_t) {
  // Ignores C: the non-c-partial full-compaction ideal.
  return std::make_unique<SlidingCompactor>(H, /*C=*/0.0);
}

std::unique_ptr<MemoryManager> bumpCompactor(Heap &H, double C,
                                             uint64_t LiveBound) {
  // The compaction period is c * LiveBound.
  return std::make_unique<BumpCompactor>(H, C, LiveBound);
}

/// The registry, in the order every policy list reports (and the fuzzing
/// harness runs) the policies. Columns: name, family, moves, needs the
/// live bound M, constructor.
const PolicyRow Registry[] = {
    {"first-fit", Compaction, false, false, makeCPartial<FirstFitManager>},
    {"best-fit", Compaction, false, false, makeCPartial<BestFitManager>},
    {"next-fit", Compaction, false, false, makeCPartial<NextFitManager>},
    {"worst-fit", Compaction, false, false, makeCPartial<WorstFitManager>},
    {"aligned-fit", Compaction, false, false, makeCPartial<AlignedFitManager>},
    {"buddy", Compaction, false, false, makeCPartial<BuddyManager>},
    {"segregated-fit", Compaction, false, false,
     makeCPartial<SegregatedFitManager>},
    {"chunked", Compaction, true, false, makeCPartial<ChunkedManager>},
    {"meshing", Compaction, true, false, makeCPartial<MeshingCompactor>},
    {"evacuating", Compaction, true, false, makeCPartial<EvacuatingCompactor>},
    {"hybrid", Compaction, true, false, makeCPartial<HybridManager>},
    {"paged-space", Compaction, true, false, makeCPartial<PagedSpaceManager>},
    {"sliding", Compaction, true, false, makeCPartial<SlidingCompactor>},
    {"sliding-unlimited", Compaction, true, false, slidingUnlimited},
    {"bump-compactor", Compaction, true, true, bumpCompactor},
    {"realloc-never", Realloc, false, false, makeRealloc<NeverMoveAllocator>},
    {"realloc-bucket", Realloc, true, false,
     makeRealloc<CostObliviousAllocator>},
    {"realloc-jin", Realloc, true, false, makeRealloc<TightSpanAllocator>},
};

const PolicyRow *findPolicy(const std::string &Policy) {
  for (const PolicyRow &Row : Registry)
    if (Policy == Row.Name)
      return &Row;
  return nullptr;
}

template <typename Pred> std::vector<std::string> policiesWhere(Pred Keep) {
  std::vector<std::string> Names;
  for (const PolicyRow &Row : Registry)
    if (Keep(Row))
      Names.push_back(Row.Name);
  return Names;
}

} // namespace

std::unique_ptr<MemoryManager> pcb::createManager(const std::string &Policy,
                                                  Heap &H, double C,
                                                  uint64_t LiveBound) {
  return createManagerChecked(Policy, H, C, LiveBound);
}

std::unique_ptr<MemoryManager>
pcb::createManagerChecked(const std::string &Policy, Heap &H, double C,
                          uint64_t LiveBound, std::string *Error) {
  const PolicyRow *Row = findPolicy(Policy);
  if (Row && !(Row->NeedsLiveBound && LiveBound == 0))
    return Row->Make(H, C, LiveBound);
  if (Error) {
    if (Row)
      *Error = "policy '" + Policy +
               "' requires a live bound (the program's M) to size its "
               "compaction period";
    else
      *Error = "unknown policy '" + Policy +
               "'; valid policies: " + managerPolicyList();
  }
  return nullptr;
}

std::string pcb::managerPolicyList() {
  std::string List;
  for (const PolicyRow &Row : Registry) {
    if (!List.empty())
      List += ", ";
    List += Row.Name;
  }
  return List;
}

std::vector<std::string> pcb::allManagerPolicies() {
  return policiesWhere([](const PolicyRow &) { return true; });
}

std::vector<std::string> pcb::compactionFamilyPolicies() {
  return policiesWhere(
      [](const PolicyRow &Row) { return Row.Fam == Compaction; });
}

std::vector<std::string> pcb::reallocManagerPolicies() {
  return policiesWhere(
      [](const PolicyRow &Row) { return Row.Fam == Realloc; });
}

std::vector<std::string> pcb::nonMovingManagerPolicies() {
  return policiesWhere([](const PolicyRow &Row) { return !Row.Moves; });
}

bool pcb::isReallocPolicy(const std::string &Policy) {
  const PolicyRow *Row = findPolicy(Policy);
  return Row && Row->Fam == Realloc;
}

bool pcb::isNonMovingPolicy(const std::string &Policy) {
  const PolicyRow *Row = findPolicy(Policy);
  return Row && !Row->Moves;
}
