//===- obs/Timeline.h - Time series of heap state ---------------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The recording half of the observability layer: a Timeline is the
/// per-step (or strided) series of heap-state snapshots a TimelineSampler
/// collects during an Execution — the quantities the paper's bounds are
/// statements about (footprint and live words over time), the
/// fragmentation picture (free words/blocks, largest hole), and the
/// compaction-budget ledger (allocated s, moved q, allowed floor(s/c)).
///
/// Emission reuses the runner's checked-stream machinery (ResultSink):
/// CSV and JSON output is deterministic — every field derives from the
/// deterministic execution, never from the clock — so timelines are
/// byte-identical across thread counts and fit golden-file testing.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_OBS_TIMELINE_H
#define PCBOUND_OBS_TIMELINE_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace pcb {

class ResultSink;

/// One sampled snapshot of heap state after a completed step.
struct TimelinePoint {
  uint64_t Step = 0;             ///< steps completed when sampled
  uint64_t FootprintWords = 0;   ///< high-water mark HS so far
  uint64_t LiveWords = 0;        ///< currently live
  uint64_t FreeWords = 0;        ///< free words below the mark
  uint64_t FreeBlocks = 0;       ///< maximal free runs below the mark
  uint64_t LargestFreeBlock = 0; ///< largest free run below the mark
  double Utilization = 0.0;      ///< live / footprint (0 on empty heap)
  double ExternalFragmentation = 0.0; ///< 1 - largest / free
  uint64_t AllocatedWords = 0;   ///< the paper's s: total ever allocated
  uint64_t MovedWords = 0;       ///< the paper's q: total ever moved
  /// Compaction words allowed so far, floor(s/c); 0 when the manager is
  /// not budget-limited (the non-c-partial baselines).
  uint64_t BudgetWords = 0;
};

/// An ordered series of TimelinePoints with deterministic emitters.
class Timeline {
public:
  void addPoint(const TimelinePoint &P) { Points.push_back(P); }

  const std::vector<TimelinePoint> &points() const { return Points; }
  size_t size() const { return Points.size(); }
  bool empty() const { return Points.empty(); }
  void clear() { Points.clear(); }

  /// Drops every odd-indexed point (keeps 0, 2, 4, ...). The sampler uses
  /// this to double its stride when a run outgrows its point budget.
  void thinHalf();

  /// The emitted column names, in order.
  static std::vector<std::string> header();

  /// Appends the points (one row each) to \p Sink, sharing the runner's
  /// table/CSV/JSON renderers and checked streams. \p Sink must have been
  /// constructed with Timeline::header(). (ResultSink owns a mutex, so it
  /// is filled in place rather than returned.)
  void fillSink(ResultSink &Sink) const;

  void printCsv(std::ostream &OS) const;
  void printJson(std::ostream &OS) const;

  /// Writes CSV (or JSON for a `.json` path) to \p Path via
  /// writeReportFile. Returns false and fills \p Error on failure.
  bool writeFile(const std::string &Path, std::string *Error = nullptr) const;

  /// Terminal sparklines: footprint/live words over steps, then
  /// utilization and external fragmentation on a [0, 1] axis.
  void printCharts(std::ostream &OS, unsigned Width = 64,
                   unsigned Height = 10) const;

private:
  std::vector<TimelinePoint> Points;
};

/// Joins a per-cell tag into a timeline path prefix: inserts "-TAG"
/// before a trailing `.csv`/`.json`, otherwise appends "-TAG.csv". Used
/// by sweeps that write one timeline per grid cell.
std::string timelineCellPath(const std::string &Prefix,
                             const std::string &Tag);

} // namespace pcb

#endif // PCBOUND_OBS_TIMELINE_H
