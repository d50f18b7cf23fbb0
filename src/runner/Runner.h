//===- runner/Runner.h - Parallel experiment execution ----------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution half of the experiment runner: a fixed-size thread pool
/// that pulls grid cells off a shared work queue and runs each on a
/// private Heap/Manager/Program stack. The determinism contract:
///
///   * results are keyed by cell index and assembled in cell order, and
///   * anything stochastic inside a cell must be seeded from
///     GridCell::seed(), which depends only on (base seed, cell index),
///
/// so the emitted table is byte-identical for --threads=1 and
/// --threads=8. With Threads == 1 (or a 1-cell grid) no thread is
/// spawned at all — the serial fallback runs cells inline. Progress
/// (cells done / total, elapsed, ETA) goes to stderr only, keeping
/// stdout reserved for results.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_RUNNER_RUNNER_H
#define PCBOUND_RUNNER_RUNNER_H

#include "runner/ExperimentGrid.h"
#include "runner/ResultSink.h"
#include "support/OptionParser.h"

#include <functional>
#include <vector>

namespace pcb {

class Profiler;

struct RunnerOptions {
  /// Worker count; 0 means std::thread::hardware_concurrency().
  unsigned Threads = 0;
  /// Progress reporting to stderr: 0 off, 1 on, -1 auto (on only when
  /// stderr is a terminal, so CI logs and redirections stay clean).
  int Progress = -1;
  /// When set, every cell runs under a profiler (per-worker instances on
  /// the pool) and the section/counter totals are merged here after the
  /// sweep. Merging is commutative, so the totals are deterministic even
  /// though workers finish in any order. Null leaves profiling to
  /// whatever ProfilerScope the calling thread has installed (which the
  /// pool's workers do NOT inherit).
  Profiler *Prof = nullptr;
};

class Runner {
public:
  explicit Runner(RunnerOptions Opts = {});

  /// The machine's hardware concurrency (at least 1).
  static unsigned defaultThreads();

  /// The resolved worker count this runner will use.
  unsigned threads() const { return NumThreads; }

  /// Runs \p Fn(I) for every I in [0, NumCells), distributing cells over
  /// the pool (or inline when threads() == 1). Blocks until all cells
  /// are done; rethrows the first cell exception after draining.
  void forEachCell(uint64_t NumCells,
                   const std::function<void(uint64_t)> &Fn) const;

  /// Runs \p Fn on every cell and stores its rows in \p Sink under the
  /// cell's index. Cells may return zero rows (out-of-domain points).
  void run(const ExperimentGrid &G,
           const std::function<std::vector<Row>(const GridCell &)> &Fn,
           ResultSink &Sink) const;

private:
  bool progressEnabled() const;

  unsigned NumThreads;
  int Progress;
  Profiler *Prof;
};

/// Builds a Runner from the common command-line options: `threads=N` (0
/// or absent = all hardware threads) and `progress=0/1` (default: auto,
/// i.e. report to stderr only when it is a terminal). A non-null \p Prof
/// collects the merged profile of every cell (RunnerOptions::Prof).
inline Runner makeRunner(const OptionParser &Opts, Profiler *Prof = nullptr) {
  RunnerOptions RO;
  RO.Threads = Opts.getUnsigned("threads", 0);
  if (Opts.has("progress"))
    RO.Progress = Opts.getBool("progress", true) ? 1 : 0;
  RO.Prof = Prof;
  return Runner(RO);
}

} // namespace pcb

#endif // PCBOUND_RUNNER_RUNNER_H
