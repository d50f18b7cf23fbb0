//===- fuzz/HeapParityChecker.cpp - Live vs reference heap ---------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "fuzz/HeapParityChecker.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <string>
#include <utility>

using namespace pcb;

void HeapParityChecker::observe(const HeapEvent &E) {
  switch (E.Event) {
  case HeapEvent::Kind::Alloc: {
    // Both heaps hand out dense ids in placement order, so a faithful
    // mirror reproduces the live heap's ids exactly.
    ObjectId Id = Ref.place(E.Address, E.Size);
    assert(Id == E.Id && "mirror desynchronized from the event stream");
    (void)Id;
    break;
  }
  case HeapEvent::Kind::Free:
    Ref.free(E.Id);
    break;
  case HeapEvent::Kind::Move:
    Ref.move(E.Id, E.Address);
    break;
  case HeapEvent::Kind::StepEnd:
    break;
  }
}

namespace {

std::string range(Addr Start, Addr End) {
  return "[" + std::to_string(Start) + ", " + std::to_string(End) + ")";
}

/// The first block where \p Live and \p Ref differ, named on both sides.
std::string diagnoseBlocks(const std::vector<std::pair<Addr, Addr>> &Live,
                           const std::vector<std::pair<Addr, Addr>> &Ref) {
  auto [L, R] = std::mismatch(Live.begin(), Live.end(), Ref.begin(), Ref.end());
  auto Name = [](auto It, auto End) {
    return It == End ? std::string("no block") : range(It->first, It->second);
  };
  return "block " + Name(L, Live.end()) + " in the live index but " +
         Name(R, Ref.end()) + " in the reference";
}

/// The first record where \p Live and \p Ref differ, live or dead.
std::string diagnoseObjects(std::span<const Object> Live,
                            std::span<const Object> Ref) {
  for (size_t Id = 0; Id != Live.size(); ++Id) {
    const Object &L = Live[Id];
    const Object &R = Ref[Id];
    if (L.State != R.State)
      return "object " + std::to_string(Id) + " is " +
             (L.isLive() ? "live" : "dead") + " in the live heap but " +
             (R.isLive() ? "live" : "dead") + " in the reference";
    if (L.Address != R.Address || L.Size != R.Size)
      return std::string(L.isLive() ? "object " : "dead object ") +
             std::to_string(Id) + " at " + range(L.Address, L.end()) +
             " in the live heap but " + range(R.Address, R.end()) +
             " in the reference";
  }
  assert(false && "no object record differs");
  return "";
}

} // namespace

void HeapParityChecker::checkStep(const std::string &Policy, uint64_t Step,
                                  std::vector<Violation> &Out) {
  auto Report = [&](const std::string &Detail) {
    Out.push_back(Violation{"heap-parity", Policy, Step, Detail});
  };

  // Free-space structural parity: same blocks, same order, from one walk
  // of the live board (which rebuilds no digest, so the queries below
  // meet the digests the policy left).
  const FreeSpaceIndex &Live = H.freeSpace();
  const ReferenceFreeSpaceIndex &RefFree = Ref.freeSpace();
  if (Live.numBlocks() != RefFree.numBlocks()) {
    Report("live index has " + std::to_string(Live.numBlocks()) +
           " blocks but the reference has " +
           std::to_string(RefFree.numBlocks()));
    return; // the block lists would only repeat the same divergence
  }
  Live.blocks(Blocks);
  if (Blocks != RefFree.blocks()) {
    Report(diagnoseBlocks(Blocks, RefFree.blocks()));
    return;
  }

  // Query parity at the sizes the policies ask for (powers of two are
  // the adversarial workloads' vocabulary) and the aggregates the
  // telemetry samples at the high-water mark.
  Addr Hwm = H.stats().HighWaterMark;
  auto Expect = [&](const char *What, uint64_t Arg, uint64_t Got,
                    uint64_t Want) {
    if (Got != Want)
      Report(std::string(What) + "(" + std::to_string(Arg) + ") = " +
             std::to_string(Got) + " but the reference says " +
             std::to_string(Want));
  };
  for (uint64_t Size = 1; Size <= 1024; Size *= 4) {
    Expect("firstFit", Size, Live.firstFit(Size), RefFree.firstFit(Size));
    Expect("bestFit", Size, Live.bestFit(Size), RefFree.bestFit(Size));
    Expect("firstFitFrom(hwm/2)", Size, Live.firstFitFrom(Hwm / 2, Size),
           RefFree.firstFitFrom(Hwm / 2, Size));
    Expect("firstFitAligned(.,8)", Size, Live.firstFitAligned(Size, 8),
           RefFree.firstFitAligned(Size, 8));
  }
  if (Hwm != 0) {
    Expect("worstFitBelow(1,hwm)", Hwm, Live.worstFitBelow(1, Hwm),
           RefFree.worstFitBelow(1, Hwm));
    Expect("largestBlockBelow", Hwm, Live.largestBlockBelow(Hwm),
           RefFree.largestBlockBelow(Hwm));
    Expect("freeWordsIn(0,hwm)", Hwm, Live.freeWordsIn(0, Hwm),
           RefFree.freeWordsIn(0, Hwm));
  }

  // Object-table parity: same slots, same placements, same liveness.
  const std::span<const Object> LiveObjs = H.objects();
  const std::span<const Object> RefObjs = Ref.objects();
  if (LiveObjs.size() != RefObjs.size()) {
    Report("live heap has " + std::to_string(LiveObjs.size()) +
           " object slots but the reference has " +
           std::to_string(RefObjs.size()));
    return;
  }
  // One pass with no exit compares every record whole. A dead record
  // keeps the address and size it was freed at on both sides (free
  // changes only its State), so whole-record equality holds for the dead
  // as well as the live.
  bool Same = true;
  for (size_t Id = 0; Id != LiveObjs.size(); ++Id) {
    const Object &L = LiveObjs[Id];
    const Object &R = RefObjs[Id];
    Same &= (L.State == R.State) & (L.Address == R.Address) &
            (L.Size == R.Size);
  }
  if (!Same) {
    Report(diagnoseObjects(LiveObjs, RefObjs));
    return;
  }

  // Statistics parity: every counter the telemetry exports.
  const HeapStats &LS = H.stats();
  const HeapStats &RS = Ref.stats();
  for (const HeapStatsField &F : HeapStatsFields)
    if (LS.*F.Member != RS.*F.Member)
      Report(std::string(F.Name) + " = " + std::to_string(LS.*F.Member) +
             " but the reference says " + std::to_string(RS.*F.Member));

  // Bitboard parity over the canonicalization hooks' window.
  Expect("occupancyMask", 64, H.occupancyMask(64), Ref.occupancyMask(64));
  Expect("objectStartMask", 64, H.objectStartMask(64),
         Ref.objectStartMask(64));
}
