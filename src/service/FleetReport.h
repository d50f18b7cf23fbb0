//===- service/FleetReport.h - Aggregate fleet telemetry --------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The deterministic output of a fleet run: per-arena summaries, fleet
/// totals (footprint, allocation volume, compaction spend), the
/// percentile view of per-arena fragmentation the Compact-fit trade-off
/// curves are drawn from, arena-attributed invariant violations, and a
/// merged fleet timeline. Every field derives from the shards' final
/// deterministic state — never from the clock, thread count, or steal
/// history — so the rendered report is byte-identical across thread
/// counts and fits golden-file testing. Wall-clock and scheduler
/// observability (steals, slices) live on ServiceFleet and go to stderr.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_SERVICE_FLEETREPORT_H
#define PCBOUND_SERVICE_FLEETREPORT_H

#include "fuzz/InvariantOracle.h"
#include "heap/Heap.h"
#include "heap/Metrics.h"
#include "obs/Timeline.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace pcb {

/// Final state of one arena, as reported.
struct ArenaSummary {
  unsigned ArenaId = 0;
  uint64_t Sessions = 0; ///< sessions assigned (== retired after a run)
  uint64_t Flushes = 0;
  uint64_t OpsApplied = 0;
  HeapStats Stats;
  /// Endpoint measurement (degenerate after a full drain: no live words).
  FragmentationMetrics Frag;
  /// Peak external fragmentation over flush boundaries.
  double PeakFragmentation = 0.0;
  /// Mean utilization over flush boundaries.
  double MeanUtilization = 0.0;
  /// floor(s/c) at the end; 0 for non-budget-limited managers.
  uint64_t BudgetAllowedWords = 0;
  /// Moved words as a fraction of the allowed budget (0 when unlimited
  /// or nothing allowed yet).
  double BudgetBurn = 0.0;
  size_t NumViolations = 0;
};

/// One arena-attributed invariant violation.
struct FleetViolation {
  unsigned ArenaId = 0;
  Violation V;
};

/// The deterministic fleet report; see the file comment.
struct FleetReport {
  // Configuration echo.
  unsigned NumArenas = 0;
  uint64_t NumSessions = 0;
  std::string Policy;
  double C = 0.0;
  uint64_t BatchSize = 0;
  uint64_t MaxResident = 0;
  uint64_t SessionOps = 0;
  uint64_t Seed = 0;

  std::vector<ArenaSummary> Arenas;

  // Fleet-wide aggregates.
  uint64_t TotalFootprintWords = 0; ///< sum of per-arena high-water marks
  uint64_t TotalLiveWords = 0;
  uint64_t TotalAllocatedWords = 0;
  uint64_t TotalMovedWords = 0;
  uint64_t TotalAllocations = 0;
  uint64_t TotalFrees = 0;
  uint64_t TotalMoves = 0;
  uint64_t TotalSessions = 0;
  uint64_t TotalFlushes = 0;
  uint64_t TotalOpsApplied = 0;
  /// Percentiles (nearest-rank) of per-arena *peak* external
  /// fragmentation — the endpoint measure is degenerate after a drain.
  double P50Fragmentation = 0.0;
  double P99Fragmentation = 0.0;
  /// Nearest-rank p99 of per-arena footprint, in words.
  uint64_t P99FootprintWords = 0;
  /// Mean of the arenas' flush-boundary mean utilizations.
  double MeanUtilization = 0.0;
  /// Fleet compaction budget: sum of per-arena floor(s/c) (0 when every
  /// manager is unlimited) and the burn fraction spent of it.
  uint64_t BudgetAllowedWords = 0;
  double BudgetBurn = 0.0;

  std::vector<FleetViolation> Violations;

  /// Epoch-aligned sum of the per-arena timelines (see ServiceFleet).
  Timeline FleetTimeline;

  /// Per-arena rows beyond this many are elided from the text table
  /// (the totals still cover every arena).
  unsigned ArenaRowLimit = 32;

  bool clean() const { return Violations.empty(); }

  /// Renders the aligned text report.
  void printText(std::ostream &OS) const;
  /// Renders the report as one JSON object (stable key order).
  void printJson(std::ostream &OS) const;
  /// Writes JSON to a `.json` path, text otherwise, via writeReportFile.
  /// Returns false and fills \p Error on failure.
  bool writeFile(const std::string &Path, std::string *Error = nullptr) const;
};

/// Nearest-rank percentile of \p Values (copied, then sorted): the
/// smallest element at or above the \p Pct fraction of the distribution.
/// Returns 0 on an empty vector. Exposed for the service tests.
double percentileNearestRank(std::vector<double> Values, double Pct);

} // namespace pcb

#endif // PCBOUND_SERVICE_FLEETREPORT_H
