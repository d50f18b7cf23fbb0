//===- runner/ResultSink.h - Thread-safe result collection ------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The collection half of the experiment runner. Worker threads store the
/// rows each grid cell produced under that cell's index; the sink then
/// flattens them in cell order, so the emitted table is identical no
/// matter how many threads ran the sweep or in which order cells
/// finished. Emission (aligned text, CSV, JSON, and the benches' common
/// `csv=` / `json=` / `out=` options) lives here too; a failed stdout or
/// `out=` write is reported and turned into a false return, which the
/// benches map to a non-zero exit code.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_RUNNER_RESULTSINK_H
#define PCBOUND_RUNNER_RESULTSINK_H

#include "support/Table.h"

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pcb {

class OptionParser;

/// One result row under construction: the same addCell vocabulary as
/// Table, accumulated privately by a cell function and handed to the sink.
class Row {
public:
  Row &addCell(std::string Cell) {
    Cells.push_back(std::move(Cell));
    return *this;
  }
  Row &addCell(const char *Cell) { return addCell(std::string(Cell)); }
  Row &addCell(uint64_t Value) { return addCell(std::to_string(Value)); }
  Row &addCell(int64_t Value) { return addCell(std::to_string(Value)); }
  Row &addCell(double Value, int Precision = 4) {
    return addCell(formatDouble(Value, Precision));
  }

  const std::vector<std::string> &cells() const { return Cells; }

private:
  std::vector<std::string> Cells;
};

/// Collects rows keyed by grid-cell index (thread-safe) plus optional
/// serially-appended rows, and renders/emits the resulting table.
class ResultSink {
public:
  explicit ResultSink(std::vector<std::string> Header);

  /// Prepares storage for \p NumCells cells. Called by the Runner before
  /// a sweep; storing to an index >= NumCells is a bug.
  void resizeCells(uint64_t NumCells);

  /// Stores \p Rows as cell \p CellIndex's output. Thread-safe; a cell
  /// may legitimately produce zero rows (out-of-domain points).
  void store(uint64_t CellIndex, std::vector<Row> Rows);

  /// Appends one row after all cell rows (serial use only — summary rows
  /// or benches that build rows from mapped results).
  void append(Row R);

  /// Flattens cell rows (in cell order) then appended rows into a Table.
  Table toTable() const;

  /// Renders as a JSON array of one object per row, keyed by the header.
  /// Cells that parse as finite numbers are emitted unquoted.
  void printJson(std::ostream &OS) const;

  /// Emits the table per the benches' common options — `csv=1` or
  /// `json=1` select the stdout format (aligned otherwise), `out=FILE`
  /// additionally writes CSV (or JSON for a `.json` FILE) through
  /// writeReportFile.
  /// Returns false, after printing an error to stderr, when any output
  /// stream fails; callers must turn that into a non-zero exit.
  bool emit(const OptionParser &Opts) const;

private:
  std::vector<std::string> Header;
  std::vector<std::vector<Row>> CellRows;
  std::vector<Row> Appended;
  mutable std::mutex Mu;
};

} // namespace pcb

#endif // PCBOUND_RUNNER_RESULTSINK_H
