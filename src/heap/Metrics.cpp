//===- heap/Metrics.cpp - Fragmentation metrics --------------------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "heap/Metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace pcb;

FragmentationMetrics pcb::measureFragmentation(const Heap &H) {
  FragmentationMetrics M;
  M.FootprintWords = H.stats().HighWaterMark;
  M.LiveWords = H.stats().LiveWords;
  // An empty heap is all zeros by definition (see FragmentationMetrics).
  if (M.FootprintWords == 0)
    return M;

  // Everything below the high-water mark is either live or free, so the
  // free total is the complement of the live words — no scan needed.
  assert(M.LiveWords <= M.FootprintWords && "live words exceed footprint");
  M.FreeWords = M.FootprintWords - M.LiveWords;
  // Every word at or above the mark is free, so one block at most starts
  // there: the tail, when the word below the mark is used.
  M.FreeBlocks = H.freeSpace().numBlocks() -
                 size_t(M.FootprintWords < AddrLimit &&
                        !H.isFree(M.FootprintWords - 1, 1));
  M.LargestFreeBlock = H.freeSpace().largestBlockBelow(M.FootprintWords);
  M.Utilization = utilization(M.LiveWords, M.FootprintWords);
  M.ExternalFragmentation =
      externalFragmentation(M.LargestFreeBlock, M.FreeWords);
  return M;
}

namespace {

/// The smallest block length L in [1, \p Free] whose fragmentation is <=
/// \p Peak. externalFragmentation is non-increasing in L and is 0 at L =
/// Free, so those L form a suffix of [1, Free]. The estimate
/// ceil((1 - Peak) * Free) misses its start only by the rounding of
/// doubles near Free — a step or two where they resolve single words, at
/// most a few hundred words at AddrLimit — so the walks from it are short.
uint64_t smallestBlockWithin(double Peak, uint64_t Free) {
  auto Within = [&](uint64_t L) {
    return externalFragmentation(L, Free) <= Peak;
  };
  double Estimate = std::ceil((1.0 - Peak) * double(Free));
  uint64_t T = Estimate >= double(Free)
                   ? Free
                   : std::max<uint64_t>(uint64_t(Estimate), 1);
  while (!Within(T))
    ++T;
  while (T > 1 && Within(T - 1))
    --T;
  return T;
}

} // namespace

double pcb::maxExternalFragmentation(const Heap &H, double Peak) {
  assert(Peak >= 0.0 && Peak <= 1.0 && "peak fragmentation out of range");
  const uint64_t Hwm = H.stats().HighWaterMark;
  const uint64_t Live = H.stats().LiveWords;
  assert(Live <= Hwm && "live words exceed footprint");
  const uint64_t Free = Hwm - Live;
  // Nothing free below the mark measures 0, which cannot raise the peak.
  if (Free == 0)
    return Peak;
  // A block of T words or more below the mark caps this sample at Peak.
  // The lowest-address fit of T words is the start of the first such
  // block, so it ends at or below the mark exactly when one exists. The
  // query needs room for T words above the mark, where the fit that
  // settles "none below" lies; a heap within T words of AddrLimit is
  // walked instead.
  const uint64_t T = smallestBlockWithin(Peak, Free);
  if (T <= AddrLimit - Hwm && H.freeSpace().telemetryFirstFit(T) <= Hwm - T)
    return Peak;
  return std::max(Peak, externalFragmentation(
                            H.freeSpace().largestBlockBelow(Hwm), Free));
}
