//===- fuzz/HeapParityChecker.cpp - Live vs reference heap ---------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "fuzz/HeapParityChecker.h"

#include <cassert>
#include <string>

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

void HeapParityChecker::checkStep(const std::string &Policy, uint64_t Step,
                                  std::vector<Violation> &Out) const {
  auto Report = [&](const std::string &Detail) {
    Out.push_back(Violation{"heap-parity", Policy, Step, Detail});
  };

  // Free-space structural parity: same blocks, same order.
  const FreeSpaceIndex &Live = H.freeSpace();
  const ReferenceFreeSpaceIndex &RefFree = Ref.freeSpace();
  if (Live.numBlocks() != RefFree.numBlocks()) {
    Report("live index has " + std::to_string(Live.numBlocks()) +
           " blocks but the reference has " +
           std::to_string(RefFree.numBlocks()));
    return; // the walk below would only repeat the same divergence
  }
  auto LIt = Live.begin();
  for (const auto &[Start, End] : RefFree) {
    auto [LStart, LEnd] = *LIt;
    if (LStart != Start || LEnd != End) {
      Report("block [" + std::to_string(LStart) + ", " +
             std::to_string(LEnd) + ") in the live index but [" +
             std::to_string(Start) + ", " + std::to_string(End) +
             ") in the reference");
      return;
    }
    ++LIt;
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
  if (H.numObjects() != Ref.numObjects()) {
    Report("live heap has " + std::to_string(H.numObjects()) +
           " object slots but the reference has " +
           std::to_string(Ref.numObjects()));
    return;
  }
  for (ObjectId Id = 0; Id != ObjectId(H.numObjects()); ++Id) {
    const Object &L = H.object(Id);
    const Object &R = Ref.object(Id);
    if (L.isLive() != R.isLive()) {
      Report("object " + std::to_string(Id) + " is " +
             (L.isLive() ? "live" : "dead") + " in the live heap but " +
             (R.isLive() ? "live" : "dead") + " in the reference");
      return;
    }
    if (L.isLive() && (L.Address != R.Address || L.Size != R.Size)) {
      Report("object " + std::to_string(Id) + " at [" +
             std::to_string(L.Address) + ", " + std::to_string(L.end()) +
             ") in the live heap but [" + std::to_string(R.Address) + ", " +
             std::to_string(R.end()) + ") in the reference");
      return;
    }
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
