//===- mm/PagedSpaceManager.h - Region-based size-class heap ----*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A region (page) based heap in the style of the production collectors
/// the paper's introduction cites (G1, Metronome, Pauseless, ...): the
/// address space is carved into fixed-size pages; each page is bound to
/// one power-of-two size class while in use and returns to a shared free
/// page pool when it empties; objects larger than a page take dedicated
/// contiguous "humongous" page runs. Unlike the flat SegregatedFit
/// baseline, empty pages are recycled *across* classes — the design real
/// systems use to contain size-class drift.
///
/// Defragmentation is page evacuation under the c-partial ledger: when a
/// class has neither a free slot nor a free page, the manager may
/// evacuate its sparsest page (moving the survivors into other pages of
/// the class) and rebind the freed page — a G1-style mixed collection.
/// Against PF this is exactly the move Theorem 1 prices: the adversary's
/// density keeps every page expensive enough that evacuation cannot
/// rescue the footprint.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_MM_PAGEDSPACEMANAGER_H
#define PCBOUND_MM_PAGEDSPACEMANAGER_H

#include "mm/MemoryManager.h"

#include <set>
#include <vector>

namespace pcb {

/// Page-based size-class manager with cross-class page recycling and
/// budgeted page evacuation.
class PagedSpaceManager : public MemoryManager {
public:
  struct Options {
    /// log2 of the page size in words.
    unsigned PageLog = 9;
    /// Evacuate a page only when its live fraction is at most this (the
    /// G1 "liveness threshold").
    double EvacuationThreshold = 0.25;
  };

  PagedSpaceManager(Heap &H, double C) : MemoryManager(H, C) { init(); }
  PagedSpaceManager(Heap &H, double C, const Options &O)
      : MemoryManager(H, C), Opts(O) {
    init();
  }

  std::string name() const override { return "paged-space"; }

  uint64_t pageSize() const { return uint64_t(1) << Opts.PageLog; }
  uint64_t numPages() const { return Pages.size(); }
  uint64_t numFreePages() const { return FreePages.size(); }
  uint64_t numEvacuations() const { return NumEvacuations; }

protected:
  Addr placeFor(uint64_t Size) override;
  // onPlaced is not needed: takeSlot updates the slot structures at
  // selection time, for placements and move destinations alike.
  void onFreeing(ObjectId Id) override;

private:
  enum class PageState : uint8_t { Free, Bound, Humongous, HumongousTail };

  struct PageInfo {
    PageState State = PageState::Free;
    unsigned Class = 0;          ///< slot class when Bound
    uint64_t LiveSlots = 0;      ///< occupied slots when Bound
    std::set<uint64_t> FreeSlots; ///< free slot offsets when Bound
    uint64_t RunLength = 0;      ///< pages in the run (Humongous head)
  };

  void init();

  /// Ensures page \p Index exists in the table.
  PageInfo &page(uint64_t Index);

  /// Takes a free page (lowest index first) or extends the frontier.
  uint64_t acquirePage();

  /// Binds \p Index to \p Class and indexes it as allocatable.
  void bindPage(uint64_t Index, unsigned Class);

  /// Returns an emptied bound page (or a humongous run head) to the pool.
  void releasePage(uint64_t Index);

  /// Allocates one slot of \p Class; \p AvoidPage (or UINT64_MAX) is
  /// excluded (used during evacuation). May consume a free page. Never
  /// evacuates. Returns the slot address.
  Addr takeSlot(unsigned Class, uint64_t AvoidPage);

  /// Attempts a G1-style evacuation of the globally sparsest bound page
  /// (fewest live words, any class); survivors move into other pages of
  /// their own class. Returns true if a page was freed for reuse.
  bool evacuateSparsestPage();

  Options Opts;
  std::vector<PageInfo> Pages;
  std::set<uint64_t> FreePages;
  /// Bound pages with at least one free slot, per class.
  std::vector<std::set<uint64_t>> Allocatable;
  /// All bound pages per class (evacuation candidates).
  std::vector<std::set<uint64_t>> BoundPages;
  uint64_t Frontier = 0; ///< first never-carved page index
  uint64_t NumEvacuations = 0;
};

} // namespace pcb

#endif // PCBOUND_MM_PAGEDSPACEMANAGER_H
