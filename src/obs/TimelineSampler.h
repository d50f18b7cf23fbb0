//===- obs/TimelineSampler.h - Strided heap-state sampling ------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Records a Timeline of heap state during an Execution. The sampler
/// registers itself as a step observer; each sample is a
/// measureFragmentation, whose largest-block query walks the present
/// pages by their digests and sweeps only the dirty supers it descends
/// into — no word-by-word re-scan of the heap.
///
/// Memory is bounded: when a run outgrows MaxPoints, the sampler drops
/// every other recorded point and doubles its stride. The thinning
/// depends only on the step count, so the resulting timeline is
/// deterministic across runs and thread counts.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_OBS_TIMELINESAMPLER_H
#define PCBOUND_OBS_TIMELINESAMPLER_H

#include "obs/Timeline.h"

#include <cstdint>

namespace pcb {

class CompactionLedger;
class Execution;
class Heap;

/// Appends the state of \p H after step \p Step to \p TL, with \p L's
/// compaction budget, and counts the sample. Shared by the sampler and
/// the fleet shards' per-arena timelines.
void recordHeapState(Timeline &TL, uint64_t Step, const Heap &H,
                     const CompactionLedger &L);

/// Samples heap state into a Timeline during an Execution.
class TimelineSampler {
public:
  struct Options {
    /// Record every Nth step (1 = every step). Steps 1, 1+N, 1+2N, ...
    uint64_t Stride = 1;
    /// Point budget; on overflow the series is half-thinned and the
    /// stride doubles. Must be at least 2.
    uint64_t MaxPoints = uint64_t(1) << 16;
  };

  TimelineSampler() : TimelineSampler(Options()) {}
  explicit TimelineSampler(const Options &O) : Opts(O), Stride(O.Stride) {}

  /// Registers a step observer on \p E that samples after every step the
  /// stride selects. May be combined with other observers.
  void attach(Execution &E);

  /// Observer body: records the current state when the stride selects
  /// this step (callable directly by tests).
  void sample(const Execution &E);

  /// Records the final state if the last step was not stride-selected,
  /// so every timeline ends at the run's endpoint. Call after run().
  void finish(const Execution &E);

  const Timeline &timeline() const { return TL; }

  /// Current stride (>= Options::Stride; doubled by thinning).
  uint64_t stride() const { return Stride; }

private:
  void record(const Execution &E);

  Options Opts;
  uint64_t Stride;
  uint64_t LastRecordedStep = UINT64_MAX;
  Timeline TL;
};

} // namespace pcb

#endif // PCBOUND_OBS_TIMELINESAMPLER_H
