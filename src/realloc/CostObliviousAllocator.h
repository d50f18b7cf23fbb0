//===- realloc/CostObliviousAllocator.h - Bucketed backfill -----*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A cost-oblivious bucketed reallocation scheme after Bender et al.,
/// "Cost-Oblivious Storage Reallocation" (PODS 2014). Objects are
/// indexed by exact size class; when an object dies, the
/// highest-addressed class-mate above the hole is slid down into it (a
/// perfect fit, so no search and no new fragmentation within the
/// class). Every move is funded by the free that opened the hole:
/// moved words never exceed freed words, and freed words never exceed
/// allocated words, so the overhead ratio is bounded by 1 on every
/// prefix — the ledger enforces exactly that.
///
/// "Cost-oblivious" is Bender et al.'s sense: the policy never looks at
/// the ledger to decide *what* to move — the same backfill fires
/// whatever the charge history — so the bound holds against adversaries
/// that choose sizes after seeing the algorithm's moves.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_REALLOC_COSTOBLIVIOUSALLOCATOR_H
#define PCBOUND_REALLOC_COSTOBLIVIOUSALLOCATOR_H

#include "realloc/ReallocManager.h"

#include <map>
#include <utility>
#include <vector>

namespace pcb {

class CostObliviousAllocator : public ReallocManager {
public:
  explicit CostObliviousAllocator(Heap &H)
      : ReallocManager(H, /*OverheadBound=*/1.0) {}

  std::string name() const override { return "realloc-bucket"; }

  /// Backfill moves committed so far (for tests and bench reporting).
  uint64_t backfills() const { return NumBackfills; }

protected:
  Addr placeFor(uint64_t Size) override;
  void onPlaced(ObjectId Id) override;
  void onFreeing(ObjectId Id) override;
  void onFreed(ObjectId Id, Addr From, uint64_t Size) override;

private:
  // Exact-size classes, each ordered by address. Exactness is what
  // makes backfill a perfect fit; power-of-two rounding (as in the
  // paper's bucket hierarchy) would let a larger class-mate fail to fit
  // the hole.
  std::map<uint64_t, std::map<Addr, ObjectId>> Classes;
  uint64_t NumBackfills = 0;
  // Holes (start, size) awaiting backfill; non-empty exactly while the
  // outermost onFreed drains a cascade.
  std::vector<std::pair<Addr, uint64_t>> Holes;
};

} // namespace pcb

#endif // PCBOUND_REALLOC_COSTOBLIVIOUSALLOCATOR_H
