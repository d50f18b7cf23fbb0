//===- mm/BumpCompactor.h - The (c+1)M collector of POPL 2011 ---*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bendersky & Petrank's simple compacting collector Ac (Section 2.2):
/// bump-pointer allocation, and a full sliding compaction every time
/// c * M fresh words have been allocated since the previous compaction.
/// Each compaction moves at most M live words and is funded by exactly
/// the c * M words that preceded it, so the manager is c-partial; and
/// the footprint never exceeds M (live, packed at the bottom) plus c * M
/// (the bump run since), i.e. HS <= (c + 1) * M against every program in
/// P(M, n). This is the guarantee the paper's Figure 3 uses as the prior
/// upper bound, and the E6 bench and unit tests verify it holds in
/// simulation against every adversary.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_MM_BUMPCOMPACTOR_H
#define PCBOUND_MM_BUMPCOMPACTOR_H

#include "mm/MemoryManager.h"

namespace pcb {

/// Bump allocation plus periodic full sliding compaction.
class BumpCompactor : public MemoryManager {
public:
  /// \p LiveBound is the program's M: the compaction period is
  /// c * LiveBound allocated words, which always funds sliding the at
  /// most LiveBound live words.
  BumpCompactor(Heap &H, double C, uint64_t LiveBound)
      : MemoryManager(H, C), LiveBound(LiveBound) {}

  std::string name() const override { return "bump-compactor"; }

  uint64_t numCompactions() const { return NumCompactions; }

  /// The worst footprint this manager can ever need for programs that
  /// keep at most LiveBound words live: (c + 1) * LiveBound.
  uint64_t footprintGuarantee() const {
    double Words = (ledger().quotaDenominator() + 1.0) * double(LiveBound);
    return Words < 0x1p64 ? uint64_t(Words) : UINT64_MAX;
  }

protected:
  Addr placeFor(uint64_t Size) override;

private:
  /// Slides every live object to the bottom of the heap; returns the
  /// packed end (the new bump pointer).
  Addr compact();

  uint64_t LiveBound;
  Addr Bump = 0;
  uint64_t AllocatedSinceCompaction = 0;
  uint64_t NumCompactions = 0;
};

} // namespace pcb

#endif // PCBOUND_MM_BUMPCOMPACTOR_H
