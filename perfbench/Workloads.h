//===- perfbench/Workloads.h - The benchmark's four workloads ---*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The workloads the benchmark drives through pcbound's public entry
/// points. Each owns a fixed *universe* of units (grid cells, fleets,
/// fuzz schedules) whose deterministic results are digested and recorded
/// in digests.txt; the run's seed picks which units a pass covers and in
/// what order. A pass is a fixed amount of work, so passes of one run are
/// directly comparable; the run repeats passes for its time budget.
///
///  - pf-grid: PF against the ten c-partial policies plus
///    sliding-unlimited, c in {10,25,50,75,100}, M=2^15, n=2^9 (Runner).
///  - fleet-churn: one ServiceFleet of 20k short sessions over 8
///    evacuating arenas.
///  - realloc-churn: UpdateProgram comb, size-profile and mix against
///    realloc-bucket and realloc-jin (Runner).
///  - fuzz-diff: WorkloadFuzzer schedules through DifferentialHarness over
///    all 18 policies with the shipped oracles on (Runner).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Measure.h"

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Recorded deterministic-result digests, keyed by unit.
using DigestTable = std::map<std::string, std::string>;

/// One row of the traced time breakdown.
struct SelfRow {
  std::string Name;
  double Ms = 0.0;
};

/// What one pass measured.
struct PassResult {
  /// Wall seconds of the pass's timed units (latency probes excluded).
  double WallSec = 0.0;
  /// Allocator requests (allocations plus frees) and words allocated.
  uint64_t Ops = 0;
  uint64_t Words = 0;
  uint64_t Units = 0;
  /// Per unit, in pass order (every pass of a run holds the same units
  /// in the same order): timed seconds, requests, words, and the calls
  /// the wrapper timed (the unit's own, or its latency replay's).
  std::vector<double> UnitSec;
  std::vector<uint64_t> UnitOps, UnitWords;
  std::vector<CallLog> UnitCalls;
  /// Per unit, nanoseconds of consecutive fixed pieces of its timed work
  /// (the same pieces on every pass); empty when the unit is timed whole.
  std::vector<std::vector<uint64_t>> UnitSegNs;
  /// One line per failed unit: a throw, a failed output check, or a
  /// digest that differs from the recorded one.
  std::vector<std::string> Failures;

  // Traced passes only.
  /// Per-layer metrics (times in ms, counts, ratios).
  std::map<std::string, double> Layer;
  /// Deterministic work counts; identical across runs and thread counts.
  std::map<std::string, uint64_t> Counts;
  /// Exclusive times; they sum to threads x wall (see Nesting).
  std::vector<SelfRow> Self;
  std::string Nesting;
};

class Workload {
public:
  virtual ~Workload();
  /// Builds every input of the run's passes from \p Seed (timed as the
  /// run's set-up).
  virtual void setup(uint64_t Seed) = 0;
  /// Runs one pass. A traced pass installs a Profiler per unit and the
  /// wrapper's span split, and fills the traced fields.
  virtual PassResult runPass(bool Traced) = 0;
  /// Runs the whole universe and stores every unit's digest.
  virtual void recordDigests(DigestTable &Out) = 0;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string> &workloadNames();

/// Creates workload \p Name running on \p Threads workers and checking
/// unit digests against \p Expected (null when recording). Returns null
/// for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       unsigned Threads,
                                       const DigestTable *Expected);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
