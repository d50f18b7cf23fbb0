//===- runner/ExperimentGrid.cpp - Declarative experiment plans ----------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "runner/ExperimentGrid.h"

#include "support/Random.h"

#include <cassert>

using namespace pcb;

ExperimentGrid::ExperimentGrid(uint64_t BaseSeed) : BaseSeed(BaseSeed) {}

ExperimentGrid &ExperimentGrid::addAxis(std::string Name,
                                        std::vector<double> Values) {
  GridAxis Axis;
  Axis.Name = std::move(Name);
  Axis.Values.reserve(Values.size());
  for (double V : Values)
    Axis.Values.push_back(AxisValue{AxisValue::Number, V, {}});
  Axes.push_back(std::move(Axis));
  return *this;
}

ExperimentGrid &ExperimentGrid::addAxis(std::string Name,
                                        std::vector<std::string> Values) {
  GridAxis Axis;
  Axis.Name = std::move(Name);
  Axis.Values.reserve(Values.size());
  for (std::string &V : Values)
    Axis.Values.push_back(AxisValue{AxisValue::Label, 0.0, std::move(V)});
  Axes.push_back(std::move(Axis));
  return *this;
}

ExperimentGrid &ExperimentGrid::addRangeAxis(std::string Name, uint64_t Lo,
                                             uint64_t Hi) {
  std::vector<double> Values;
  for (uint64_t V = Lo; V <= Hi; ++V)
    Values.push_back(double(V));
  return addAxis(std::move(Name), std::move(Values));
}

size_t ExperimentGrid::axisNumbered(const std::string &Name) const {
  for (size_t I = 0; I != Axes.size(); ++I)
    if (Axes[I].Name == Name)
      return I;
  assert(false && "unknown grid axis");
  return 0;
}

uint64_t ExperimentGrid::numCells() const {
  if (Axes.empty())
    return 0;
  uint64_t Product = 1;
  for (const GridAxis &Axis : Axes)
    Product *= Axis.Values.size();
  return Product;
}

GridCell ExperimentGrid::cell(uint64_t Index) const {
  assert(Index < numCells() && "cell index out of range");
  // First axis outermost: peel from the last (fastest-varying) axis.
  std::vector<size_t> Coord(Axes.size());
  uint64_t Rest = Index;
  for (size_t I = Axes.size(); I-- != 0;) {
    size_t Size = Axes[I].Values.size();
    Coord[I] = size_t(Rest % Size);
    Rest /= Size;
  }
  return GridCell(*this, Index, std::move(Coord));
}

uint64_t GridCell::seed() const { return splitSeed(G->baseSeed(), Idx); }

double GridCell::num(const std::string &Axis) const {
  size_t A = G->axisNumbered(Axis);
  const AxisValue &V = G->Axes[A].Values[Coord[A]];
  assert(V.ValueKind == AxisValue::Number && "axis is not numeric");
  return V.Num;
}

const std::string &GridCell::str(const std::string &Axis) const {
  size_t A = G->axisNumbered(Axis);
  const AxisValue &V = G->Axes[A].Values[Coord[A]];
  assert(V.ValueKind == AxisValue::Label && "axis is not string-valued");
  return V.Str;
}
