//===- runner/ExperimentGrid.h - Declarative experiment plans ---*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The declarative half of the experiment runner: an ExperimentGrid is a
/// cartesian product of named axes (managers, programs, c/n/M values, …),
/// and a GridCell is one point of that product. Cells are identified by a
/// single linear index with the first-added axis outermost (so iterating
/// indices 0..numCells()-1 reproduces the nested-loop order the benches
/// historically used), and every cell carries a deterministic seed derived
/// only from (grid base seed, cell index) — never from execution order or
/// thread assignment.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_RUNNER_EXPERIMENTGRID_H
#define PCBOUND_RUNNER_EXPERIMENTGRID_H

#include <cstdint>
#include <string>
#include <vector>

namespace pcb {

class ExperimentGrid;

/// One value along an axis: either a number or a string label.
struct AxisValue {
  enum Kind { Number, Label };
  Kind ValueKind;
  double Num = 0.0;
  std::string Str;
};

/// One named dimension of a grid.
struct GridAxis {
  std::string Name;
  std::vector<AxisValue> Values;
};

/// One point of a grid: per-axis value accessors plus the cell's identity
/// (linear index and deterministic seed). Cheap to copy; valid only while
/// the owning grid is alive.
class GridCell {
public:
  GridCell(const ExperimentGrid &G, uint64_t Index,
           std::vector<size_t> Coordinate)
      : G(&G), Idx(Index), Coord(std::move(Coordinate)) {}

  /// The cell's linear index in [0, numCells()).
  uint64_t index() const { return Idx; }

  /// Deterministic per-cell seed: splitSeed(grid base seed, index()).
  /// Identical across runs, thread counts, and execution orders.
  uint64_t seed() const;

  /// The numeric value of axis \p Axis at this cell. The axis must exist
  /// and be numeric.
  double num(const std::string &Axis) const;

  /// The string value of axis \p Axis at this cell. The axis must exist
  /// and hold labels.
  const std::string &str(const std::string &Axis) const;

private:
  const ExperimentGrid *G;
  uint64_t Idx;
  std::vector<size_t> Coord;
};

/// A cartesian experiment plan over named axes. Axes are immutable once
/// added; the grid is then a pure function index -> cell.
class ExperimentGrid {
public:
  /// \p BaseSeed seeds the whole sweep; per-cell seeds are split from it.
  explicit ExperimentGrid(uint64_t BaseSeed = 0x70636230756e64ULL);

  /// Adds a numeric axis. Returns *this for chaining.
  ExperimentGrid &addAxis(std::string Name, std::vector<double> Values);

  /// Adds a string-labelled axis. Returns *this for chaining.
  ExperimentGrid &addAxis(std::string Name, std::vector<std::string> Values);

  /// Adds the integer range [\p Lo, \p Hi] (inclusive, step 1) as a
  /// numeric axis; an empty axis when Lo > Hi.
  ExperimentGrid &addRangeAxis(std::string Name, uint64_t Lo, uint64_t Hi);

  /// Index of the axis named \p Name; asserts that it exists.
  size_t axisNumbered(const std::string &Name) const;

  /// Total number of cells: the product of the axis sizes. A grid with no
  /// axes (or with any empty axis) has zero cells and runs nothing.
  uint64_t numCells() const;

  /// Decodes linear index \p Index (first axis outermost, last axis
  /// fastest-varying) into a cell.
  GridCell cell(uint64_t Index) const;

  uint64_t baseSeed() const { return BaseSeed; }

private:
  friend class GridCell;
  uint64_t BaseSeed;
  std::vector<GridAxis> Axes;
};

} // namespace pcb

#endif // PCBOUND_RUNNER_EXPERIMENTGRID_H
