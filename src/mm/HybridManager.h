//===- mm/HybridManager.h - Segregated fit + bounded evacuation -*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A manager in the spirit of Theorem 2's AC: Robson-style segregated
/// size classes (which alone already guarantee the Robson upper bound),
/// augmented with budgeted evacuation — when a class has no free slot,
/// the manager looks for a sparse class-aligned region below the frontier
/// to clear before extending the heap. The paper's Theorem 2 shows this
/// combination beats both pure Robson (for moderate c) and the naive
/// (c+1)M compactor; bench E6 measures this implementation against both.
///
/// Only the free lists are kept: a live object's slot is its address
/// and class log2Ceil(size), read off the heap's object table.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_MM_HYBRIDMANAGER_H
#define PCBOUND_MM_HYBRIDMANAGER_H

#include "mm/MemoryManager.h"

#include <map>
#include <set>
#include <vector>

namespace pcb {

/// Segregated fit whose slot misses may evacuate a sparse aligned chunk.
class HybridManager : public MemoryManager {
public:
  struct Options {
    /// Maximum live fraction of a candidate chunk.
    double DensityThreshold = 0.25;
    /// Requests below this size never trigger evacuation.
    uint64_t MinEvacuationSize = 8;
  };

  HybridManager(Heap &H, double C) : MemoryManager(H, C) {}
  HybridManager(Heap &H, double C, const Options &Opts)
      : MemoryManager(H, C), Opts(Opts) {}

  std::string name() const override { return "hybrid"; }

  uint64_t numEvacuations() const { return NumEvacuations; }

protected:
  Addr placeFor(uint64_t Size) override;
  void onFreeing(ObjectId Id) override;

private:
  /// Pops a free slot of \p Class outside [AvoidStart, AvoidEnd), or
  /// carves one at the frontier.
  Addr acquireSlot(unsigned Class, Addr AvoidStart, Addr AvoidEnd);

  /// Tries to clear a class-aligned chunk below the frontier; returns its
  /// start or InvalidAddr.
  Addr evacuateFor(unsigned Class);

  /// After clearing [Start, Start + 2^Class), reconciles the free-slot
  /// lists: contained smaller slots are absorbed, and a larger free slot
  /// containing the chunk is buddy-split so only its complement stays
  /// free. Keeps slot bookkeeping consistent with the heap.
  void removeOverlappingSlots(Addr Start, unsigned Class);

  static constexpr unsigned MaxClass = 48;

  Options Opts;
  std::map<unsigned, uint64_t> FailedScanSignature;
  std::vector<std::set<Addr>> FreeSlots =
      std::vector<std::set<Addr>>(MaxClass + 1);
  Addr Frontier = 0;
  uint64_t NumEvacuations = 0;
};

} // namespace pcb

#endif // PCBOUND_MM_HYBRIDMANAGER_H
