//===- runner/ResultSink.cpp - Thread-safe result collection -------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "runner/ResultSink.h"

#include "support/OptionParser.h"
#include "support/ReportFile.h"

#include <cassert>
#include <cstdlib>
#include <iostream>

using namespace pcb;

ResultSink::ResultSink(std::vector<std::string> Header)
    : Header(std::move(Header)) {}

void ResultSink::resizeCells(uint64_t NumCells) {
  std::lock_guard<std::mutex> Lock(Mu);
  CellRows.assign(size_t(NumCells), {});
}

void ResultSink::store(uint64_t CellIndex, std::vector<Row> Rows) {
  std::lock_guard<std::mutex> Lock(Mu);
  assert(CellIndex < CellRows.size() && "cell index outside the sweep");
  CellRows[size_t(CellIndex)] = std::move(Rows);
}

void ResultSink::append(Row R) {
  std::lock_guard<std::mutex> Lock(Mu);
  Appended.push_back(std::move(R));
}

Table ResultSink::toTable() const {
  std::lock_guard<std::mutex> Lock(Mu);
  Table T(Header);
  auto AddRow = [&T](const Row &R) {
    T.beginRow();
    for (const std::string &Cell : R.cells())
      T.addCell(Cell);
  };
  for (const std::vector<Row> &Rows : CellRows)
    for (const Row &R : Rows)
      AddRow(R);
  for (const Row &R : Appended)
    AddRow(R);
  return T;
}

/// True when \p Cell renders as a finite JSON number.
static bool isJsonNumber(const std::string &Cell) {
  if (Cell.empty())
    return false;
  char *End = nullptr;
  std::strtod(Cell.c_str(), &End);
  if (End != Cell.c_str() + Cell.size())
    return false;
  // strtod accepts inf/nan and hex floats; JSON does not.
  for (char Ch : Cell)
    if ((Ch < '0' || Ch > '9') && Ch != '+' && Ch != '-' && Ch != '.' &&
        Ch != 'e' && Ch != 'E')
      return false;
  return true;
}

void ResultSink::printJson(std::ostream &OS) const {
  std::lock_guard<std::mutex> Lock(Mu);
  OS << "[\n";
  bool FirstRow = true;
  auto PrintRow = [&](const Row &R) {
    if (!FirstRow)
      OS << ",\n";
    FirstRow = false;
    OS << "  {";
    for (size_t I = 0; I != Header.size(); ++I) {
      if (I != 0)
        OS << ", ";
      const std::string Cell = I < R.cells().size() ? R.cells()[I] : "";
      OS << jsonString(Header[I]) << ": "
         << (isJsonNumber(Cell) ? Cell : jsonString(Cell));
    }
    OS << "}";
  };
  for (const std::vector<Row> &Rows : CellRows)
    for (const Row &R : Rows)
      PrintRow(R);
  for (const Row &R : Appended)
    PrintRow(R);
  OS << "\n]\n";
}

bool ResultSink::emit(const OptionParser &Opts) const {
  if (Opts.getBool("json", false))
    printJson(std::cout);
  else if (Opts.getBool("csv", false))
    toTable().printCsv(std::cout);
  else
    toTable().printAligned(std::cout);
  std::cout.flush();
  if (!std::cout) {
    std::cerr << "error: writing results to stdout failed\n";
    return false;
  }

  std::string OutPath = Opts.getString("out", "");
  if (OutPath.empty())
    return true;
  std::string Error;
  if (!writeReportFile(
          OutPath,
          [this](std::ostream &OS, bool Json) {
            Json ? printJson(OS) : toTable().printCsv(OS);
          },
          &Error)) {
    std::cerr << "error: " << Error << "\n";
    return false;
  }
  std::cout << "# wrote " << OutPath << "\n";
  return true;
}
