//===- tests/runner_test.cpp - Unit tests for src/runner -----------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "runner/ExperimentGrid.h"
#include "runner/ResultSink.h"
#include "runner/Runner.h"

#include "adversary/RobsonProgram.h"
#include "driver/Execution.h"
#include "mm/SequentialFitManagers.h"
#include "support/MathUtils.h"
#include "support/OptionParser.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <vector>

using namespace pcb;

namespace {

Runner makeRunner(unsigned Threads) {
  RunnerOptions Opts;
  Opts.Threads = Threads;
  Opts.Progress = 0;
  return Runner(Opts);
}

TEST(ExperimentGrid, CartesianDecode) {
  ExperimentGrid G;
  G.addAxis("c", std::vector<double>{10, 50, 100});
  G.addAxis("policy", std::vector<std::string>{"first-fit", "best-fit"});
  ASSERT_EQ(G.numCells(), 6u);

  // First axis outermost, last axis fastest-varying — the nested-loop
  // order the tables historically used.
  GridCell C0 = G.cell(0);
  EXPECT_EQ(C0.num("c"), 10.0);
  EXPECT_EQ(C0.str("policy"), "first-fit");
  GridCell C1 = G.cell(1);
  EXPECT_EQ(C1.num("c"), 10.0);
  EXPECT_EQ(C1.str("policy"), "best-fit");
  GridCell C5 = G.cell(5);
  EXPECT_EQ(C5.num("c"), 100.0);
  EXPECT_EQ(C5.str("policy"), "best-fit");
}

TEST(ExperimentGrid, RangeAxis) {
  ExperimentGrid G;
  G.addRangeAxis("logn", 4, 8);
  ASSERT_EQ(G.numCells(), 5u);
  EXPECT_EQ(G.cell(0).num("logn"), 4.0);
  EXPECT_EQ(G.cell(4).num("logn"), 8.0);

  ExperimentGrid Empty;
  Empty.addRangeAxis("logn", 8, 4);
  EXPECT_EQ(Empty.numCells(), 0u);
}

TEST(ExperimentGrid, EmptyGridHasNoCells) {
  ExperimentGrid NoAxes;
  EXPECT_EQ(NoAxes.numCells(), 0u);

  ExperimentGrid EmptyAxis;
  EmptyAxis.addAxis("c", std::vector<double>{});
  EmptyAxis.addAxis("policy", std::vector<std::string>{"first-fit"});
  EXPECT_EQ(EmptyAxis.numCells(), 0u);
}

TEST(ExperimentGrid, CellSeedsAreDistinctAndStable) {
  ExperimentGrid G(/*BaseSeed=*/42);
  G.addRangeAxis("i", 0, 99);
  std::set<uint64_t> Seeds;
  for (uint64_t I = 0; I != G.numCells(); ++I)
    Seeds.insert(G.cell(I).seed());
  EXPECT_EQ(Seeds.size(), 100u);

  // Seeds depend only on (base seed, index): a fresh identical grid and a
  // differently-seeded grid.
  ExperimentGrid Same(42);
  Same.addRangeAxis("i", 0, 99);
  EXPECT_EQ(Same.cell(7).seed(), G.cell(7).seed());
  ExperimentGrid Other(43);
  Other.addRangeAxis("i", 0, 99);
  EXPECT_NE(Other.cell(7).seed(), G.cell(7).seed());

  EXPECT_EQ(G.cell(7).seed(), splitSeed(42, 7));
}

TEST(SplitSeed, MatchesSplitMixStream) {
  // splitSeed(base, k) must be the (k+1)-th SplitMix64 output for base;
  // adjacent children must decorrelate (no shared high bits pattern).
  EXPECT_NE(splitSeed(0, 0), splitSeed(0, 1));
  EXPECT_NE(splitSeed(0, 0), splitSeed(1, 0));
  std::set<uint64_t> Children;
  for (uint64_t K = 0; K != 1000; ++K)
    Children.insert(splitSeed(12345, K));
  EXPECT_EQ(Children.size(), 1000u);
}

/// Renders the sink's table as CSV for byte-level comparison.
std::string csvOf(const ResultSink &Sink) {
  std::ostringstream OS;
  Sink.toTable().printCsv(OS);
  return OS.str();
}

/// A stochastic cell function: result depends only on the cell's seed, so
/// any execution order / thread count must reproduce it.
std::vector<Row> stochasticCell(const GridCell &Cell) {
  Rng R(Cell.seed());
  uint64_t Sum = 0;
  for (int I = 0; I != 1000; ++I)
    Sum += R.nextBelow(1000);
  return {Row().addCell(Cell.index()).addCell(Sum)};
}

TEST(Runner, SingleVsMultiThreadedTablesAreIdentical) {
  ExperimentGrid G(7);
  G.addRangeAxis("i", 0, 31);

  ResultSink Serial({"cell", "sum"});
  makeRunner(1).run(G, stochasticCell, Serial);
  ASSERT_EQ(Serial.toTable().numRows(), 32u);

  for (unsigned Threads : {2u, 8u}) {
    ResultSink Parallel({"cell", "sum"});
    makeRunner(Threads).run(G, stochasticCell, Parallel);
    EXPECT_EQ(csvOf(Parallel), csvOf(Serial))
        << "table differs at " << Threads << " threads";
  }
}

TEST(Runner, RealExecutionsAreDeterministicAcrossThreadCounts) {
  // End-to-end: private Heap/Manager/Program per cell, as the sweep tables run.
  ExperimentGrid G;
  G.addRangeAxis("logm", 9, 12);
  G.addRangeAxis("logn", 3, 5);
  auto CellFn = [](const GridCell &Cell) {
    const uint64_t M = pow2(unsigned(Cell.num("logm")));
    Heap H;
    FirstFitManager MM(H, 1e18);
    RobsonProgram PR(M, unsigned(Cell.num("logn")));
    Execution E(MM, PR, M);
    ExecutionResult R = E.run();
    return std::vector<Row>{
        Row().addCell(R.HeapSize).addCell(R.TotalAllocatedWords)};
  };
  ResultSink Serial({"hs", "alloc"});
  makeRunner(1).run(G, CellFn, Serial);
  ResultSink Parallel({"hs", "alloc"});
  makeRunner(8).run(G, CellFn, Parallel);
  EXPECT_EQ(csvOf(Parallel), csvOf(Serial));
}

TEST(Runner, PermutedExecutionOrderDoesNotChangeAnyCell) {
  // Per-cell seed independence: running the cells by hand in reverse (or
  // any) order yields exactly the rows the pool produced for each index.
  ExperimentGrid G(99);
  G.addRangeAxis("i", 0, 15);

  ResultSink Pooled({"cell", "sum"});
  makeRunner(4).run(G, stochasticCell, Pooled);

  ResultSink Reversed({"cell", "sum"});
  Reversed.resizeCells(G.numCells());
  for (uint64_t I = G.numCells(); I-- != 0;)
    Reversed.store(I, stochasticCell(G.cell(I)));
  EXPECT_EQ(csvOf(Reversed), csvOf(Pooled));
}

TEST(Runner, EmptyGrid) {
  ExperimentGrid G;
  ResultSink Sink({"x"});
  uint64_t Calls = 0;
  makeRunner(4).run(
      G,
      [&](const GridCell &) -> std::vector<Row> {
        ++Calls;
        return {};
      },
      Sink);
  EXPECT_EQ(Calls, 0u);
  EXPECT_EQ(Sink.toTable().numRows(), 0u);
}

TEST(Runner, OneCellGrid) {
  ExperimentGrid G;
  G.addAxis("c", std::vector<double>{50});
  ResultSink Sink({"c"});
  makeRunner(8).run(
      G,
      [](const GridCell &Cell) {
        return std::vector<Row>{Row().addCell(Cell.num("c"), 0)};
      },
      Sink);
  ASSERT_EQ(Sink.toTable().numRows(), 1u);
  EXPECT_EQ(csvOf(Sink), "c\n50\n");
}

TEST(Runner, CellsMayProduceZeroOrManyRows) {
  ExperimentGrid G;
  G.addRangeAxis("i", 0, 5);
  ResultSink Sink({"i"});
  makeRunner(3).run(
      G,
      [](const GridCell &Cell) {
        // Cell i yields i % 3 rows: exercises flattening in cell order.
        std::vector<Row> Rows;
        for (uint64_t K = 0; K != uint64_t(Cell.num("i")) % 3; ++K)
          Rows.push_back(Row().addCell(Cell.index()));
        return Rows;
      },
      Sink);
  EXPECT_EQ(csvOf(Sink), "i\n1\n2\n2\n4\n5\n5\n");
}

TEST(Runner, ForEachCellSeesEveryCellOnce) {
  ExperimentGrid G(3);
  G.addRangeAxis("i", 0, 63);
  std::vector<uint64_t> Expected;
  for (uint64_t I = 0; I != 64; ++I)
    Expected.push_back(splitSeed(3, I));
  std::vector<uint64_t> Got(64);
  makeRunner(8).forEachCell(G.numCells(),
                            [&](uint64_t I) { Got[I] = G.cell(I).seed(); });
  EXPECT_EQ(Got, Expected);
}

TEST(ResultSink, EmitReportsUnwritableOutput) {
  const char *Argv[] = {"test", "out=/nonexistent-dir/table.csv"};
  OptionParser Opts(2, Argv);
  ResultSink Sink({"x"});
  Sink.append(Row().addCell(uint64_t(1)));
  testing::internal::CaptureStdout();
  bool Ok = Sink.emit(Opts);
  testing::internal::GetCapturedStdout();
  EXPECT_FALSE(Ok);
}

TEST(ResultSink, JsonEmitsNumbersUnquoted) {
  ResultSink Sink({"c", "policy", "waste"});
  Sink.append(Row().addCell(uint64_t(10)).addCell("first-fit").addCell(3.485, 3));
  std::ostringstream OS;
  Sink.printJson(OS);
  EXPECT_EQ(OS.str(),
            "[\n  {\"c\": 10, \"policy\": \"first-fit\", \"waste\": 3.485}\n]\n");
}

TEST(ResultSink, JsonEscapesControlCharactersByCode) {
  ResultSink Sink({"cell"});
  Sink.append(Row().addCell("a\rb\tc\"d"));
  std::ostringstream OS;
  Sink.printJson(OS);
  EXPECT_EQ(OS.str(), "[\n  {\"cell\": \"a\\u000db\\tc\\\"d\"}\n]\n");
}

} // namespace
