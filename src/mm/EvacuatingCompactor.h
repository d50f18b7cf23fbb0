//===- mm/EvacuatingCompactor.h - Budgeted chunk evacuation -----*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A c-partial compacting manager of the kind the paper's lower bound is
/// aimed at: first fit, but before growing the heap it tries to evacuate
/// the emptiest size-aligned chunk below the high-water mark and allocate
/// into the cleared space — exactly the "reuse of sparsely allocated
/// chunks" move discussed in Section 3. The evacuation is subject to the
/// c-partial ledger and to a density threshold: chunks whose live
/// occupancy exceeds Threshold * chunkSize are never evacuated (the move
/// would cost more budget than the allocation recharges).
///
/// The PF adversary maintains chunk density 2^{-sigma} > 1/c precisely to
/// make this manager's evacuations a losing game; bench E5 measures it.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_MM_EVACUATINGCOMPACTOR_H
#define PCBOUND_MM_EVACUATINGCOMPACTOR_H

#include "mm/MemoryManager.h"

#include <map>

namespace pcb {

/// First fit plus budgeted evacuation of sparse aligned chunks.
class EvacuatingCompactor : public MemoryManager {
public:
  struct Options {
    /// Maximum live fraction of a chunk that still qualifies it for
    /// evacuation. The allocation recharges 1/c of its size, so anything
    /// above 1/c is already a net budget loss; higher thresholds trade
    /// budget for footprint.
    double DensityThreshold = 0.5;
    /// Requests below this size never trigger evacuation (scanning for
    /// tiny chunks costs more than it saves).
    uint64_t MinEvacuationSize = 8;
  };

  EvacuatingCompactor(Heap &H, double C) : MemoryManager(H, C) {}
  EvacuatingCompactor(Heap &H, double C, const Options &Opts)
      : MemoryManager(H, C), Opts(Opts) {}

  std::string name() const override { return "evacuating"; }

  /// Number of chunk evacuations performed.
  uint64_t numEvacuations() const { return NumEvacuations; }

protected:
  Addr placeFor(uint64_t Size) override;

private:
  /// Tries to clear an aligned chunk able to hold \p Size words; returns
  /// its start, or InvalidAddr when no candidate qualified.
  Addr evacuateFor(uint64_t Size);

  Options Opts;
  uint64_t NumEvacuations = 0;
  /// heapChangeSignature() at the last failed scan, per chunk log-size.
  std::map<unsigned, uint64_t> FailedScanSignature;
};

} // namespace pcb

#endif // PCBOUND_MM_EVACUATINGCOMPACTOR_H
