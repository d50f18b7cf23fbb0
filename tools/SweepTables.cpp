//===- tools/SweepTables.cpp - pcbound sweep and its tables ---------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// Each table is a plan: the banner printed above its rows, its grid, its
// columns, the cell that returns a grid point's rows, and what prints
// below them (an ASCII chart, notes). cmdSweep validates the options
// through the plan, runs the grid and emits the table. The simulation
// tables share one Execution cell, runCell(). Four tables write a
// `bench-json=` work golden (WorkGolden.h).
//
//===----------------------------------------------------------------------===//

#include "SweepTables.h"

#include "CliOptions.h"
#include "WorkGolden.h"
#include "adversary/CohenPetrankProgram.h"
#include "adversary/ProgramFactory.h"
#include "bounds/BoundSweep.h"
#include "bounds/CohenPetrankBounds.h"
#include "bounds/RobsonBounds.h"
#include "driver/Execution.h"
#include "fuzz/WorkloadFuzzer.h"
#include "mm/ChunkedManager.h"
#include "mm/CompactionLedger.h"
#include "mm/EvacuatingCompactor.h"
#include "mm/ManagerFactory.h"
#include "realloc/ReallocationLedger.h"
#include "runner/ExperimentGrid.h"
#include "runner/ResultSink.h"
#include "runner/Runner.h"
#include "support/AsciiChart.h"
#include "support/Random.h"
#include "support/Statistics.h"
#include "trace/TraceRecorder.h"
#include "trace/TraceRun.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

using namespace pcb;

namespace {

//===----------------------------------------------------------------------===//
// The Execution cell
//===----------------------------------------------------------------------===//

/// One Execution cell: a program, or a PF variant, against a policy or a
/// tuned manager, at quota C on a heap whose live bound is M.
struct CellSpec {
  std::string Program;
  unsigned LogN = 0;
  WorkloadKnobs Knobs = {};
  /// Set: the program is PF built with these options (the ablation).
  std::optional<CohenPetrankProgram::Options> PFVariant = {};
  std::string Policy = {};
  /// Set: builds the manager in place of Policy (the tuning knobs).
  std::function<std::unique_ptr<MemoryManager>(Heap &)> Manager = {};
  double C = 50.0;
  uint64_t M = 0;
  /// Set: sampled over the run.
  TimelineSampler *Sampler = nullptr;
};

/// What a cell measured: the run; PF's sigma and h when the program is
/// PF; the realloc ledger's overhead, worst prefix and declared bound;
/// and the evacuations of an evacuating or chunked manager.
struct CellResult {
  ExecutionResult Exec;
  uint64_t Sigma = 0;
  double TargetWaste = 0.0;
  double Overhead = 0.0;
  double WorstPrefix = 0.0;
  double Bound = 0.0;
  uint64_t Evacuations = 0;

  /// The share of the c-partial budget the run spent, in percent; n/a at
  /// c = inf, whose budget is zero.
  std::string budgetUsedPct(double C) const {
    if (std::isinf(C))
      return "n/a";
    return formatDouble(Exec.TotalAllocatedWords == 0
                            ? 0.0
                            : 100.0 * double(Exec.MovedWords) * C /
                                  double(Exec.TotalAllocatedWords),
                        1);
  }
};

CellResult runCell(const CellSpec &S) {
  Heap H;
  std::unique_ptr<MemoryManager> MM =
      S.Manager ? S.Manager(H) : createManager(S.Policy, H, S.C, S.M);
  std::unique_ptr<Program> Prog =
      S.PFVariant ? std::make_unique<CohenPetrankProgram>(
                        S.M, pow2(S.LogN), S.C, *S.PFVariant)
                  : createProgram(S.Program, S.M, S.LogN, S.C, S.Knobs);
  Execution E(*MM, *Prog, S.M);
  if (S.Sampler)
    S.Sampler->attach(E);
  CellResult R;
  R.Exec = E.run();
  if (S.Sampler)
    S.Sampler->finish(E);
  if (auto *PF = dynamic_cast<CohenPetrankProgram *>(Prog.get())) {
    R.Sigma = PF->sigma();
    R.TargetWaste = PF->targetWasteFactor();
  }
  R.Overhead = R.Exec.overheadRatio();
  R.Bound = MM->overheadBound();
  if (const ReallocationLedger *RL = MM->reallocationLedger())
    R.WorstPrefix = RL->maxPrefixRatio();
  if (auto *EC = dynamic_cast<EvacuatingCompactor *>(MM.get()))
    R.Evacuations = EC->numEvacuations();
  else if (auto *CM = dynamic_cast<ChunkedManager *>(MM.get()))
    R.Evacuations = CM->numChunkEvacuations();
  return R;
}

//===----------------------------------------------------------------------===//
// Plans
//===----------------------------------------------------------------------===//

/// Two curves drawn below a table's rows, one point per grid cell.
struct Chart {
  double XMin, XMax;
  const char *XLabel, *YLabel;
  ChartSeries First, Second;

  void set(const GridCell &Cell, double Y1, double Y2) {
    First.Y[size_t(Cell.index())] = Y1;
    Second.Y[size_t(Cell.index())] = Y2;
  }
  void print(std::ostream &OS) const {
    AsciiChart::Options O;
    O.XLabel = XLabel;
    O.YLabel = YLabel;
    AsciiChart C(XMin, XMax, O);
    C.addSeries(First);
    C.addSeries(Second);
    OS << '\n';
    C.print(OS);
  }
};

/// A table ready to run.
struct TablePlan {
  /// The "# ..." lines above the rows.
  std::ostringstream Banner;
  ExperimentGrid Grid;
  std::vector<std::string> Columns;
  std::function<std::vector<Row>(const GridCell &)> Cell;
  /// Below the rows: the chart, then the notes.
  std::unique_ptr<Chart> Plot;
  std::string Notes;
  /// The work golden of the tables that write one; Fields adds the grid
  /// and the totals once the grid has run.
  std::unique_ptr<BenchReport> Report;
  std::function<void(BenchReport &)> Fields;
  /// Cells run one at a time and the runner profiles none of them: each
  /// fleet runs its own pool into the report's profiler.
  bool Serial = false;

  /// Sets Plot to a chart over [XMin, XMax] with one point per cell of
  /// Grid, and returns it for the cells to fill.
  Chart *chart(double XMin, double XMax, const char *XLabel,
               const char *YLabel, ChartSeries First, ChartSeries Second) {
    size_t N = size_t(Grid.numCells());
    First.Y.assign(N, 0.0);
    Second.Y.assign(N, 0.0);
    Plot = std::make_unique<Chart>(
        Chart{XMin, XMax, XLabel, YLabel, First, Second});
    return Plot.get();
  }
};

using Rows = std::vector<Row>;

/// Refuses a ratio whose M = ratio * 2^LogNMax leaves the address space.
bool checkRatio(uint64_t Ratio, unsigned LogNMax) {
  if (Ratio <= (AddrLimit >> LogNMax))
    return true;
  std::cerr << "error: ratio=" << Ratio << " is out of range (need ratio <= "
            << (AddrLimit >> LogNMax) << " at lognmax=" << LogNMax << ")\n";
  return false;
}

/// The plain sweep: one program against a policy list over cs=.
bool planSweep(const OptionParser &Opts, TablePlan &P) {
  std::string ProgName = Opts.getString("program", "cohen-petrank");
  unsigned LogM = getLog2(Opts, "logm", 14);
  unsigned LogN = getLog2(Opts, "logn", 8);
  uint64_t M = pow2(LogM);
  std::vector<double> Cs = getQuotaList(Opts, "10,25,50,75,100");
  std::vector<std::string> Policies;
  if (!parsePolicyList(Opts, /*LiveBound=*/M, Policies))
    return false;
  for (double C : Cs)
    if (!checkProgram(ProgName, M, LogN, C))
      return false;
  P.Banner << "# sweep: " << ProgName << " vs " << Policies.size()
           << " policies x " << Cs.size() << " quotas (M=" << formatWords(M)
           << ", n=" << formatWords(pow2(LogN)) << ")\n";
  P.Grid.addAxis("c", Cs);
  P.Grid.addAxis("policy", Policies);
  P.Columns = {"c",        "policy", "measured_HS", "measured_waste",
               "moved_words", "overhead", "allocs", "frees", "steps"};
  std::string Prefix = Opts.getString("timeline", "");
  TimelineSampler::Options SO = samplerOptions(Opts);
  P.Cell = [=](const GridCell &Cell) -> Rows {
    double C = Cell.num("c");
    const std::string &Policy = Cell.str("policy");
    TimelineSampler Sampler(SO);
    CellSpec S{.Program = ProgName, .LogN = LogN, .Policy = Policy, .C = C,
               .M = M};
    if (!Prefix.empty())
      S.Sampler = &Sampler;
    CellResult R = runCell(S);
    std::string Error;
    if (!Prefix.empty() &&
        !Sampler.timeline().writeFile(
            timelineCellPath(Prefix, "c" + formatDouble(C, 0) + "-" + Policy),
            &Error))
      throw std::runtime_error(Error);
    return {Row()
                .addCell(formatDouble(C, 0))
                .addCell(Policy)
                .addCell(R.Exec.HeapSize)
                .addCell(R.Exec.wasteFactor(M), 3)
                .addCell(R.Exec.MovedWords)
                .addCell(R.Overhead, 4)
                .addCell(R.Exec.NumAllocations)
                .addCell(R.Exec.NumFrees)
                .addCell(R.Exec.Steps)};
  };
  return true;
}

/// Asserts the null-sink fast path: with no profiler installed, a
/// ScopedTimer is one thread_local load and a branch. The ceiling is
/// generous (a clock read alone costs ~20ns; the disabled path must stay
/// well under one) so the check only fires on a real regression, e.g.
/// someone adding an unconditional clock read.
bool overheadCheckPasses() {
  constexpr uint64_t Iters = 20'000'000;
  auto Start = std::chrono::steady_clock::now();
  for (uint64_t I = 0; I != Iters; ++I) {
    ScopedTimer T(Profiler::SecHeapPlace);
    // Keep the loop body from being hoisted or elided wholesale.
    asm volatile("" ::: "memory");
  }
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  double NsPerOp = Seconds * 1e9 / double(Iters);
  std::cerr << "# overhead-check: disabled ScopedTimer = "
            << formatDouble(NsPerOp, 2) << " ns/op over " << Iters
            << " iterations\n";
  if (NsPerOp <= 25.0)
    return true;
  std::cerr << "# overhead-check: FAIL — disabled instrumentation must"
            << " stay under 25 ns/op\n";
  return false;
}

/// E5: Theorem 1 by simulation. PF against the c-partial managers over
/// c; every c-partial row must satisfy measured >= h. The unlimited
/// slider is the "overhead factor 1" reference the introduction contrasts
/// against: not c-partial, and the only row allowed below h.
bool planPfSim(const OptionParser &Opts, TablePlan &P) {
  unsigned LogM = getLog2(Opts, "logm", 16);
  unsigned LogN = getLog2(Opts, "logn", 9);
  std::vector<double> Cs = getQuotaList(Opts, "10,25,50,75,100");
  uint64_t M = pow2(LogM);
  for (double C : Cs)
    if (!checkProgram("cohen-petrank", M, LogN, C))
      return false;
  if (Opts.getBool("overhead-check", false) && !overheadCheckPasses())
    return false;
  P.Banner << "# E5: Theorem 1 by simulation: PF vs c-partial managers"
           << " (M=" << formatWords(M) << ", n=" << formatWords(pow2(LogN))
           << ")\n"
           << "# Every c-partial row must satisfy measured >= h;"
           << " sliding-unlimited is the non-c-partial reference.\n";
  // The reference row comes last within each c group.
  const std::string Reference = "sliding-unlimited*";
  P.Grid.addAxis("c", Cs);
  P.Grid.addAxis("policy", std::vector<std::string>{
                               "first-fit", "best-fit", "segregated-fit",
                               "chunked", "meshing", "evacuating", "hybrid",
                               "sliding", "paged-space", "bump-compactor",
                               Reference});
  P.Columns = {"c",     "policy",      "measured_HS",  "measured_waste",
               "theory_h", "sigma", "moved_words", "budget_used_%"};
  struct Totals {
    std::atomic<uint64_t> Steps{0}, AllocatedWords{0};
  };
  auto T = std::make_shared<Totals>();
  P.Cell = [=](const GridCell &Cell) -> Rows {
    double C = Cell.num("c");
    const std::string &Policy = Cell.str("policy");
    bool IsReference = Policy == Reference;
    CellSpec S{.Program = "cohen-petrank",
               .LogN = LogN,
               .Policy = IsReference ? "sliding-unlimited" : Policy,
               .C = C,
               .M = M};
    CellResult R = runCell(S);
    T->Steps += R.Exec.Steps;
    T->AllocatedWords += R.Exec.TotalAllocatedWords;
    Row Out;
    Out.addCell(formatDouble(C, 0))
        .addCell(Policy)
        .addCell(R.Exec.HeapSize)
        .addCell(R.Exec.wasteFactor(M), 3)
        .addCell(R.TargetWaste, 3)
        .addCell(R.Sigma)
        .addCell(R.Exec.MovedWords);
    Out.addCell(IsReference ? "n/a" : R.budgetUsedPct(C));
    return {Out};
  };
  P.Notes = "\n# (*) not a c-partial manager: unlimited compaction budget,"
            " shown as the overhead-1 reference.\n";
  P.Report = std::make_unique<BenchReport>("pf_sim");
  P.Fields = [=](BenchReport &B) {
    B.add("logm", LogM)
        .add("logn", LogN)
        .add("cs", Cs, 0)
        .add("total_steps", T->Steps.load())
        .add("total_allocated_words", T->AllocatedWords.load());
  };
  return true;
}

/// E4: Robson's bad program against every non-moving manager, with the
/// closed form M (log n / 2 + 1) - n + 1. Robson's theorem says the
/// measured column never falls below the theory column; first fit and
/// best fit match it exactly.
bool planRobson(const OptionParser &Opts, TablePlan &P) {
  unsigned LogM = getLog2(Opts, "logm", 14);
  unsigned LogNMin = 4, LogNMax = 8;
  if (!getRange(Opts, "logn", /*Log2=*/true, LogNMin, LogNMax))
    return false;
  uint64_t M = pow2(LogM);
  for (unsigned LogN : {LogNMin, LogNMax})
    if (!checkBounds({M, pow2(LogN), 10.0}))
      return false;
  P.Banner << "# E4: Robson's matching bound, simulated (PR vs"
           << " non-moving managers), M=" << formatWords(M) << "\n"
           << "# measured_waste >= theory_waste is the theorem;"
           << " first-fit matches it exactly.\n";
  P.Grid.addRangeAxis("log2n", LogNMin, LogNMax);
  P.Grid.addAxis("policy", nonMovingManagerPolicies());
  P.Columns = {"log2(n)",        "policy",       "measured_HS",
               "measured_waste", "theory_waste", "ratio"};
  P.Cell = [=](const GridCell &Cell) -> Rows {
    unsigned LogN = unsigned(Cell.num("log2n"));
    double Theory = robsonWasteFactor({M, pow2(LogN), 10.0});
    CellSpec S{.Program = "robson", .LogN = LogN, .Policy = Cell.str("policy"),
               .C = 1e18, .M = M};
    CellResult R = runCell(S);
    return {Row()
                .addCell(uint64_t(LogN))
                .addCell(S.Policy)
                .addCell(R.Exec.HeapSize)
                .addCell(R.Exec.wasteFactor(M), 3)
                .addCell(Theory, 3)
                .addCell(R.Exec.wasteFactor(M) / Theory, 3)};
  };
  return true;
}

/// E6: the Theorem-2-spirited managers against adversarial and ordinary
/// workloads, with the three upper-bound formulas in the banner. The
/// stochastic workloads average over seeds= streams split from the
/// cell's seed.
bool planUpper(const OptionParser &Opts, TablePlan &P) {
  unsigned LogM = getLog2(Opts, "logm", 15);
  unsigned LogN = getLog2(Opts, "logn", 8);
  double C = getQuota(Opts, 50.0);
  uint64_t NumSeeds = Opts.getUInt("seeds", 3);
  uint64_t M = pow2(LogM);
  std::vector<std::string> Workloads = {
      "robson",     "cohen-petrank", "random-churn", "markov-phase",
      "stack-lifo", "queue-fifo",    "sawtooth"};
  if (NumSeeds == 0) {
    std::cerr << "error: seeds= must be positive\n";
    return false;
  }
  for (const std::string &Workload : Workloads)
    if (!checkProgram(Workload, M, LogN, C))
      return false;
  BoundParams B{M, pow2(LogN), C};
  P.Banner << "# E6: upper-bound manager behaviour (M=" << formatWords(M)
           << ", n=" << formatWords(B.N) << ", c=" << C << ")\n"
           << "# Upper bounds: (c+1)M waste=" << C + 1.0
           << "; 2*Robson waste="
           << formatDouble(robsonGeneralWasteFactor(B), 3);
  if (C > 0.5 * double(LogN))
    P.Banner << "; Theorem 2 waste="
             << formatDouble(cohenPetrankUpperWasteFactor(B), 3);
  P.Banner << "\n";
  P.Grid.addAxis("policy", std::vector<std::string>{
                               "segregated-fit", "buddy", "first-fit",
                               "evacuating", "hybrid", "paged-space",
                               "bump-compactor"});
  P.Grid.addAxis("workload", Workloads);
  P.Columns = {"workload",  "policy",    "waste_mean",
               "waste_min", "waste_max", "moved_mean"};
  P.Cell = [=](const GridCell &Cell) -> Rows {
    CellSpec S{.Program = Cell.str("workload"), .LogN = LogN,
               .Policy = Cell.str("policy"), .C = C, .M = M};
    // The adversaries are deterministic and run once.
    bool Deterministic =
        S.Program == "robson" || S.Program == "cohen-petrank";
    RunningStat Waste, Moved;
    for (uint64_t K = 0; K != (Deterministic ? 1 : NumSeeds); ++K) {
      S.Knobs = {splitSeed(Cell.seed(), K), /*ChurnSteps=*/48};
      CellResult R = runCell(S);
      Waste.add(R.Exec.wasteFactor(M));
      Moved.add(double(R.Exec.MovedWords));
    }
    return {Row()
                .addCell(S.Program)
                .addCell(S.Policy)
                .addCell(Waste.mean(), 3)
                .addCell(Waste.min(), 3)
                .addCell(Waste.max(), 3)
                .addCell(uint64_t(Moved.mean()))};
  };
  return true;
}

/// E7: PF's design choices (Section 3.1) disabled one at a time against
/// the evacuating manager, and each admissible density exponent forced.
/// sigma=k cells outside a c's admissible range produce no row.
bool planAblation(const OptionParser &Opts, TablePlan &P) {
  unsigned LogM = getLog2(Opts, "logm", 15);
  unsigned LogN = getLog2(Opts, "logn", 9);
  std::vector<double> Cs = getQuotaList(Opts, "20,50,100");
  uint64_t M = pow2(LogM);
  for (double C : Cs)
    if (!checkProgram("cohen-petrank", M, LogN, C))
      return false;
  P.Banner << "# E7: ablation of PF's design choices vs the evacuating"
           << " manager (M=" << formatWords(M)
           << ", n=" << formatWords(pow2(LogN)) << ")\n";
  auto MaxSigmaFor = [=](double C) {
    return std::min(cohenPetrankMaxSigma(C), (LogN - 2) / 2);
  };
  std::vector<std::string> Variants = {"full", "no-density", "no-ghosts",
                                       "no-stage1", "greedy-alloc"};
  unsigned MaxSigma = 0;
  for (double C : Cs)
    MaxSigma = std::max(MaxSigma, MaxSigmaFor(C));
  for (unsigned S = 1; S <= MaxSigma; ++S)
    Variants.push_back("sigma=" + std::to_string(S));
  P.Grid.addAxis("c", Cs);
  P.Grid.addAxis("variant", Variants);
  P.Columns = {"c",        "variant", "sigma", "measured_waste",
               "theory_h", "moved_words"};
  P.Cell = [=](const GridCell &Cell) -> Rows {
    double C = Cell.num("c");
    const std::string &Variant = Cell.str("variant");
    CohenPetrankProgram::Options V;
    if (Variant == "no-density")
      V.MaintainDensity = false;
    else if (Variant == "no-ghosts")
      V.TrackGhosts = false;
    else if (Variant == "no-stage1")
      V.RobsonBootstrap = false;
    else if (Variant == "greedy-alloc")
      V.FixedAllocation = false;
    else if (Variant.rfind("sigma=", 0) == 0) {
      V.SigmaOverride = unsigned(std::stoul(Variant.substr(6)));
      if (V.SigmaOverride > MaxSigmaFor(C))
        return {};
    }
    CellSpec S{.Program = "cohen-petrank", .LogN = LogN, .PFVariant = V,
               .Policy = "evacuating", .C = C, .M = M};
    CellResult R = runCell(S);
    return {Row()
                .addCell(formatDouble(C, 0))
                .addCell(Variant)
                .addCell(R.Sigma)
                .addCell(R.Exec.wasteFactor(M), 3)
                .addCell(R.TargetWaste, 3)
                .addCell(R.Exec.MovedWords)};
  };
  return true;
}

/// The manager-side ablation: EvacuatingCompactor's density threshold and
/// ChunkedManager's garbage-share threshold, against PF and against
/// churn. PF keeps every chunk denser than 1/c, so against it aggressive
/// evacuation burns budget for little footprint; against churn it is
/// pure win. The knobs point in opposite directions: a high density
/// threshold is aggressive, a high garbage threshold conservative.
bool planManagerTuning(const OptionParser &Opts, TablePlan &P) {
  unsigned LogM = getLog2(Opts, "logm", 15);
  unsigned LogN = getLog2(Opts, "logn", 8);
  double C = getQuota(Opts, 50.0);
  std::string ThresholdList =
      Opts.getString("thresholds", "0.05,0.1,0.25,0.5,0.9");
  std::vector<double> Thresholds =
      parseNumberList(ThresholdList, "thresholds");
  uint64_t M = pow2(LogM);
  if (Thresholds.empty() ||
      !std::all_of(Thresholds.begin(), Thresholds.end(),
                   [](double T) { return std::isfinite(T) && T > 0.0; })) {
    std::cerr << "error: thresholds=" << ThresholdList
              << " must list finite numbers > 0\n";
    return false;
  }
  if (!checkProgram("cohen-petrank", M, LogN, C))
    return false;
  P.Banner << "# Manager tuning: evacuation density threshold vs PF and"
           << " vs churn (M=" << formatWords(M)
           << ", n=" << formatWords(pow2(LogN)) << ", c=" << C << ")\n"
           << "# The adversary's density 2^-sigma > 1/c makes aggressive"
           << " evacuation a budget sink against PF.\n";
  P.Grid.addAxis("manager", std::vector<std::string>{"evacuating", "chunked"});
  P.Grid.addAxis("threshold", Thresholds);
  P.Grid.addAxis("workload",
                 std::vector<std::string>{"cohen-petrank", "random-churn"});
  P.Columns = {"manager",     "threshold",   "workload",     "measured_waste",
               "moved_words", "evacuations", "budget_used_%"};
  P.Cell = [=](const GridCell &Cell) -> Rows {
    const std::string &Manager = Cell.str("manager");
    double Threshold = Cell.num("threshold");
    auto Tuned = [&](Heap &H) -> std::unique_ptr<MemoryManager> {
      if (Manager == "evacuating") {
        EvacuatingCompactor::Options O;
        O.DensityThreshold = Threshold;
        return std::make_unique<EvacuatingCompactor>(H, C, O);
      }
      ChunkedManager::Options O;
      O.GarbageThreshold = Threshold;
      return std::make_unique<ChunkedManager>(H, C, O);
    };
    CellSpec S{.Program = Cell.str("workload"), .LogN = LogN,
               .Knobs = {.ChurnSteps = 48}, .Manager = Tuned, .C = C, .M = M};
    CellResult R = runCell(S);
    return {Row()
                .addCell(Manager)
                .addCell(Threshold, 2)
                .addCell(S.Program)
                .addCell(R.Exec.wasteFactor(M), 3)
                .addCell(R.Exec.MovedWords)
                .addCell(R.Evacuations)
                .addCell(R.budgetUsedPct(C))};
  };
  return true;
}

/// Figure 2's simulated counterpart (E9): at fixed c and M = ratio * n,
/// PF against one manager while n grows, with Theorem 1's h at the
/// simulated scale. Measured >= theory in every cell; both grow with n.
bool planPfNSweep(const OptionParser &Opts, TablePlan &P) {
  double C = getQuota(Opts, 50.0);
  unsigned LogNMin = 6, LogNMax = 10;
  if (!getRange(Opts, "logn", /*Log2=*/true, LogNMin, LogNMax))
    return false;
  uint64_t Ratio = Opts.getUInt("ratio", 64);
  if (!checkRatio(Ratio, LogNMax))
    return false;
  for (unsigned LogN = LogNMin; LogN <= LogNMax; ++LogN)
    if (!checkProgram("cohen-petrank", Ratio * pow2(LogN), LogN, C))
      return false;
  std::string Policy = Opts.getString("policy", "evacuating");
  if (!checkPolicy(Policy, Ratio * pow2(LogNMin)))
    return false;
  P.Banner << "# Figure 2, simulated: PF vs " << Policy
           << " while n grows (c=" << C << ", M=" << Ratio << "n)\n"
           << "# Theorem 1: measured >= theory at every n; both grow"
           << " with n.\n";
  P.Grid.addRangeAxis("log2n", LogNMin, LogNMax);
  P.Columns = {"log2(n)",        "M_words",  "measured_HS",
               "measured_waste", "theory_h", "sigma"};
  Chart *Plot = P.chart(LogNMin, LogNMax, "log2(n)", "waste factor",
                        {"measured waste (PF vs " + Policy + ")", '#', {}},
                        {"Theorem 1 h at simulated scale", '.', {}});
  P.Cell = [=](const GridCell &Cell) -> Rows {
    unsigned LogN = unsigned(Cell.num("log2n"));
    CellSpec S{.Program = "cohen-petrank", .LogN = LogN, .Policy = Policy,
               .C = C, .M = Ratio * pow2(LogN)};
    CellResult R = runCell(S);
    Plot->set(Cell, R.Exec.wasteFactor(S.M), R.TargetWaste);
    return {Row()
                .addCell(uint64_t(LogN))
                .addCell(S.M)
                .addCell(R.Exec.HeapSize)
                .addCell(R.Exec.wasteFactor(S.M), 3)
                .addCell(R.TargetWaste, 3)
                .addCell(R.Sigma)};
  };
  return true;
}

/// Reads the M= n= cmin= cmax= axes of Figures 1 and 3 (M = 256M, n = 1M,
/// c = 10..100) and checks them against the bound formulas' domain.
bool readFigureAxes(const OptionParser &Opts, uint64_t &M, uint64_t &N,
                    unsigned &CMin, unsigned &CMax) {
  M = Opts.getUInt("M", pow2(28));
  N = Opts.getUInt("n", pow2(20));
  CMin = 10;
  CMax = 100;
  if (!getRange(Opts, "c", /*Log2=*/false, CMin, CMax))
    return false;
  if (CMin < 2) {
    std::cerr << "error: need cmin >= 2 (cmin=" << CMin << ")\n";
    return false;
  }
  return checkBounds({M, N, double(CMin)});
}

/// Figure 1: Theorem 1's lower bound h against c at the paper's M and n,
/// with the POPL 2011 lower bound and Robson's no-compaction bound.
bool planFig1(const OptionParser &Opts, TablePlan &P) {
  uint64_t M, N;
  unsigned CMin, CMax;
  if (!readFigureAxes(Opts, M, N, CMin, CMax))
    return false;
  P.Banner << "# Figure 1: lower bound on the waste factor h"
           << " (M=" << formatWords(M) << ", n=" << formatWords(N)
           << ") as a function of c\n"
           << "# new_lower: Theorem 1 (this paper); prior_lower:"
           << " Bendersky-Petrank POPL 2011 (clamped at the trivial 1);\n"
           << "# robson: the no-compaction ceiling.\n";
  P.Grid.addRangeAxis("c", CMin, CMax);
  P.Columns = {"c", "new_lower", "sigma", "prior_lower", "robson"};
  Chart *Plot = P.chart(CMin, CMax, "c", "waste factor h",
                        {"Theorem 1 lower bound (this paper)", '#', {}},
                        {"POPL 2011 lower bound", '.', {}});
  P.Cell = [=](const GridCell &Cell) -> Rows {
    unsigned C = unsigned(Cell.num("c"));
    Fig1Point Pt = fig1Point(M, N, C);
    Plot->set(Cell, Pt.NewLower, Pt.PriorLower);
    return {Row()
                .addCell(uint64_t(C))
                .addCell(Pt.NewLower, 3)
                .addCell(uint64_t(Pt.Sigma))
                .addCell(Pt.PriorLower, 3)
                .addCell(Pt.RobsonLower, 3)};
  };
  P.Notes = "\n# Paper anchors: h(c=10) = 2, h(c=50) ~ 3.15,"
            " h(c=100) ~ 3.5 (for M=256MB, n=1MB)\n";
  return true;
}

/// Figure 2: Theorem 1's lower bound h against the maximum object size n,
/// with c = 100 and M = 256 n (n = 1KB .. 1GB).
bool planFig2(const OptionParser &Opts, TablePlan &P) {
  double C = getQuota(Opts, 100.0);
  unsigned LogNMin = 10, LogNMax = 30;
  if (!getRange(Opts, "logn", /*Log2=*/true, LogNMin, LogNMax))
    return false;
  uint64_t Ratio = Opts.getUInt("ratio", 256);
  if (!checkRatio(Ratio, LogNMax))
    return false;
  for (unsigned LogN : {LogNMin, LogNMax})
    if (LogN >= Fig2LogNLimit ||
        !BoundParams{Ratio * pow2(LogN), pow2(LogN), C}.valid()) {
      std::cerr << "error: need c > 1, a power-of-two ratio and 1 <= "
                << "log2(n) < " << Fig2LogNLimit << " (c=" << C
                << ", ratio=" << Ratio << ", log2(n)=" << LogN << ")\n";
      return false;
    }
  P.Banner << "# Figure 2: lower bound on the waste factor h as a"
           << " function of n (c=" << C << ", M=" << Ratio << "n)\n";
  P.Grid.addRangeAxis("log2n", LogNMin, LogNMax);
  P.Columns = {"n", "log2(n)", "new_lower", "sigma", "prior_lower"};
  Chart *Plot = P.chart(LogNMin, LogNMax, "log2(n)", "waste factor h",
                        {"Theorem 1 lower bound (this paper)", '#', {}},
                        {"POPL 2011 lower bound", '.', {}});
  P.Cell = [=](const GridCell &Cell) -> Rows {
    unsigned LogN = unsigned(Cell.num("log2n"));
    Fig2Point Pt = fig2Point(C, LogN, Ratio);
    Plot->set(Cell, Pt.NewLower, Pt.PriorLower);
    return {Row()
                .addCell(formatWords(Pt.N))
                .addCell(uint64_t(Pt.LogN))
                .addCell(Pt.NewLower, 3)
                .addCell(uint64_t(Pt.Sigma))
                .addCell(Pt.PriorLower, 3)};
  };
  return true;
}

/// Figure 3: the upper bounds against c at the paper's M and n: the prior
/// best min((c+1) M, 2 Robson) and the reconstructed Theorem 2 (DESIGN.md
/// section 3 has the caveat on its OCR-damaged recursion).
bool planFig3(const OptionParser &Opts, TablePlan &P) {
  uint64_t M, N;
  unsigned CMin, CMax;
  if (!readFigureAxes(Opts, M, N, CMin, CMax))
    return false;
  P.Banner << "# Figure 3: upper bound on the waste factor"
           << " (M=" << formatWords(M) << ", n=" << formatWords(N)
           << ") as a function of c\n"
           << "# prior_upper = min((c+1)M, 2*Robson)/M;"
           << " new_upper = Theorem 2 (reconstructed);"
           << " best = min of both.\n";
  P.Grid.addRangeAxis("c", CMin, CMax);
  P.Columns = {"c", "new_upper", "prior_upper", "best", "improvement_%"};
  Chart *Plot = P.chart(CMin, CMax, "c", "waste factor (upper bounds)",
                        {"Theorem 2 upper bound (reconstructed)", '#', {}},
                        {"prior best: min((c+1)M, 2*Robson)", '.', {}});
  P.Cell = [=](const GridCell &Cell) -> Rows {
    unsigned C = unsigned(Cell.num("c"));
    Fig3Point Pt = fig3Point(M, N, C);
    Plot->set(Cell, Pt.NewUpper, Pt.PriorUpper); // NaN gaps off the domain
    Row R;
    R.addCell(uint64_t(C));
    if (std::isnan(Pt.NewUpper))
      R.addCell("n/a");
    else
      R.addCell(Pt.NewUpper, 3);
    return {R.addCell(Pt.PriorUpper, 3)
                .addCell(Pt.BestUpper, 3)
                .addCell(100.0 * (Pt.PriorUpper - Pt.BestUpper) /
                             Pt.PriorUpper,
                         1)};
  };
  P.Notes = "\n# Paper: the new bound improves on the prior best for"
            " c in [20, 100];\n"
            "# our reconstruction preserves that shape (see"
            " EXPERIMENTS.md for the magnitude caveat).\n";
  return true;
}

/// E14: for each arena count, a ServiceFleet drains sessions= sessions
/// through its work-stealing scheduler: how sharding one workload over
/// more arenas trades total footprint against per-arena fragmentation
/// under a fixed c-partial budget.
bool planFleet(const OptionParser &Opts, TablePlan &P) {
  std::string ArenaList = Opts.getString("arenas", "1,4,8");
  std::vector<double> Arenas = parseNumberList(ArenaList, "arenas");
  if (Arenas.empty() ||
      !std::all_of(Arenas.begin(), Arenas.end(), [](double A) {
        return A >= 1.0 && A <= double(UINT32_MAX) && A == std::floor(A);
      })) {
    std::cerr << "error: arenas=" << ArenaList
              << " must list whole arena counts >= 1\n";
    return false;
  }
  FleetOptions Base;
  Base.NumSessions = 100000;
  Base.Shard.SampleEverySessions = 0; // a throughput run: no timelines
  if (!readFleetOptions(Opts, Base))
    return false;
  const ShardConfig &S = Base.Shard;
  P.Banner << "# E14: fleet service mode: " << Arenas.size()
           << " arena counts x " << Base.NumSessions << " sessions (policy="
           << S.Policy << ", c=" << formatDouble(S.C, 0)
           << ", batch=" << S.BatchSize << ", resident=" << S.MaxResident
           << ", ops=" << S.Session.TargetOps << ")\n"
           << "# Sharding one workload over more arenas: total footprint"
           << " vs per-arena fragmentation percentiles.\n";
  P.Grid.addAxis("arenas", Arenas);
  P.Columns = {"arenas",   "sessions", "footprint_words", "p99_footprint",
               "frag_p50", "frag_p99", "mean_util",       "moved_words",
               "burn_%",   "flushes"};
  P.Serial = true;
  // The fleets always run profiled (serve.flush and the substrate
  // sections), so the work golden counts the real scheduler path.
  P.Report = std::make_unique<BenchReport>("fleet");
  auto TotalOps = std::make_shared<uint64_t>(0);
  Profiler *Prof = &P.Report->profiler();
  P.Cell = [=](const GridCell &Cell) -> Rows {
    FleetOptions FO = Base;
    FO.NumArenas = unsigned(Cell.num("arenas"));
    FO.Prof = Prof;
    ServiceFleet Fleet(FO);
    Fleet.run();
    FleetReport R = Fleet.report();
    *TotalOps += R.TotalOpsApplied;
    return {Row()
                .addCell(uint64_t(FO.NumArenas))
                .addCell(R.TotalSessions)
                .addCell(R.TotalFootprintWords)
                .addCell(R.P99FootprintWords)
                .addCell(R.P50Fragmentation, 3)
                .addCell(R.P99Fragmentation, 3)
                .addCell(R.MeanUtilization, 3)
                .addCell(R.TotalMovedWords)
                .addCell(100.0 * R.BudgetBurn, 1)
                .addCell(R.TotalFlushes)};
  };
  P.Fields = [=](BenchReport &B) {
    B.add("arenas", Arenas, 0)
        .add("sessions", Base.NumSessions)
        .add("policy", S.Policy)
        .add("batch", S.BatchSize)
        .add("resident", S.MaxResident)
        .add("ops", S.Session.TargetOps)
        .add("total_steps", *TotalOps);
  };
  return true;
}

/// E15: each named workload pattern is generated once, written through
/// the binary malloc-trace format, and streamed back through every
/// (policy, controller) pair, the production path of `pcbound replay` on
/// a pcbtrace: budget burn against waste on identical schedules.
bool planTrace(const OptionParser &Opts, TablePlan &P) {
  std::vector<std::string> Traces =
      parseNameList(Opts.getString("traces", "churn,queue-fifo,comb"));
  std::vector<std::string> Controllers = parseNameList(
      Opts.getString("controllers", "fixed,periodic,membalancer"));
  uint64_t NumOps = Opts.getUInt("ops", 20000);
  uint64_t Seed = Opts.getUInt("seed", 42);
  if (Traces.empty() || Controllers.empty() || NumOps == 0) {
    std::cerr << "error: traces=, controllers= and ops= must be"
              << " non-empty\n";
    return false;
  }
  // Each cell runs the controller its controllers= entry names; a
  // controller= would be read and never run.
  if (Opts.has("controller")) {
    std::cerr << "error: table=trace runs the controllers= list; name the"
              << " controllers there, not in controller=\n";
    return false;
  }
  TraceRunOptions Base;
  Base.C = getQuota(Opts, 50.0);
  Base.LiveBound = Opts.getUInt("live", 0);
  // One tuning for every cell; the name is the cell's.
  ControllerSpec Spec;
  Spec.Period = 64;
  Spec.C1 = 10000.0;
  if (!parseControllerSpec(Opts, Spec))
    return false;
  for (const std::string &Name : Controllers) {
    Spec.Name = Name;
    if (!checkController(Spec))
      return false;
  }
  std::vector<std::string> Policies;
  if (!parsePolicyList(Opts, Base.LiveBound, Policies,
                       "first-fit,evacuating,chunked"))
    return false;
  WorkloadFuzzer::Options FO;
  FO.NumOps = NumOps;
  FO.LiveBound = std::max<uint64_t>(1, Opts.getUInt("livegen", 1 << 12));
  FO.MaxLogSize = getLog2(Opts, "maxlog", 8);
  if (!checkWorkload(FO.LiveBound, FO.MaxLogSize))
    return false;
  auto Serialized = std::make_shared<std::map<std::string, std::string>>();
  for (size_t T = 0; T != Traces.size(); ++T) {
    FO.Seed = splitSeed(Seed, T);
    std::string Error;
    if (!WorkloadFuzzer::patternByName(Traces[T], FO.P, &Error)) {
      std::cerr << "error: " << Error << "\n";
      return false;
    }
    std::ostringstream OS;
    TraceRecorder(OS, TraceFraming::Binary)
        .record(WorkloadFuzzer(FO).generate().materialize());
    (*Serialized)[Traces[T]] = OS.str();
  }
  P.Banner << "# E15: trace replay under budget controllers: "
           << Traces.size() << " traces x " << Policies.size()
           << " policies x " << Controllers.size() << " controllers (ops="
           << NumOps << ", c=" << formatDouble(Base.C, 0)
           << ", period=" << Spec.Period << ", c1=" << formatDouble(Spec.C1, 0)
           << ")\n"
           << "# Budget burn vs waste factor on identical streamed"
           << " schedules; fixed is the managers' built-in trigger.\n";
  P.Grid.addAxis("trace", Traces);
  P.Grid.addAxis("policy", Policies);
  P.Grid.addAxis("controller", Controllers);
  P.Columns = {"trace",       "policy", "controller", "ops",    "HS",
               "waste", "moved_words", "burn_%",     "grants", "denials"};
  auto TotalOps = std::make_shared<std::atomic<uint64_t>>(0);
  P.Cell = [=](const GridCell &Cell) -> Rows {
    TraceRunOptions RO = Base;
    RO.Policy = Cell.str("policy");
    RO.Controller = Spec;
    RO.Controller.Name = Cell.str("controller");
    std::istringstream IS(Serialized->at(Cell.str("trace")));
    TraceReader R(IS);
    TraceRunReport Rep = runTrace(R, RO, Cell.str("trace"));
    *TotalOps += Rep.OpsStreamed;
    return {Row()
                .addCell(Rep.Trace)
                .addCell(Rep.Policy)
                .addCell(Rep.Controller)
                .addCell(Rep.OpsStreamed)
                .addCell(Rep.Exec.HeapSize)
                .addCell(Rep.WasteFactor, 4)
                .addCell(Rep.Exec.MovedWords)
                .addCell(Rep.BudgetBurnPct, 2)
                .addCell(Rep.ControllerGrants)
                .addCell(Rep.ControllerDenials)};
  };
  P.Report = std::make_unique<BenchReport>("trace");
  P.Fields = [=](BenchReport &B) {
    B.add("traces", Traces)
        .add("policies", Policies)
        .add("controllers", Controllers)
        .add("ops", NumOps)
        .add("total_steps", TotalOps->load());
  };
  return true;
}

/// E16: every insert/delete adversary plus PF through every reallocation
/// algorithm: the footprint, and the overhead paid (moved words per
/// allocated word), with the worst prefix ratio against each scheme's
/// declared bound. PF's row aims the compaction family's strongest
/// adversary at the other problem.
bool planRealloc(const OptionParser &Opts, TablePlan &P) {
  std::vector<std::string> Programs = parseNameList(Opts.getString(
      "programs", "update-fill-drain,update-alternating,update-comb,"
                  "update-size-profile,update-mix,cohen-petrank"));
  unsigned LogM = getLog2(Opts, "logm", 12);
  unsigned LogN = getLog2(Opts, "logn", 6);
  double C = getQuota(Opts, 50.0);
  uint64_t M = pow2(LogM);
  std::vector<std::string> Policies;
  if (Programs.empty()) {
    std::cerr << "error: programs= names no program\n";
    return false;
  }
  if (!parsePolicyList(Opts, M, Policies,
                       "realloc-never,realloc-bucket,realloc-jin"))
    return false;
  for (const std::string &Name : Programs)
    if (!checkProgram(Name, M, LogN, C))
      return false;
  P.Banner << "# E16: reallocation overhead curves: " << Programs.size()
           << " programs x " << Policies.size() << " algorithms (M="
           << formatWords(M) << ", n=" << formatWords(pow2(LogN)) << ")\n"
           << "# overhead = moved words / allocated words; worst_prefix"
           << " must stay at or below each scheme's bound.\n";
  P.Grid.addAxis("program", Programs);
  P.Grid.addAxis("policy", Policies);
  P.Columns = {"program",     "policy",      "steps",    "HS",
               "waste",       "moved_words", "alloc_words", "overhead",
               "worst_prefix", "bound"};
  struct Totals {
    std::atomic<uint64_t> Steps{0};
    /// The work golden's "program/policy" overheads, by cell index.
    std::vector<std::pair<std::string, double>> Overheads;
  };
  auto T = std::make_shared<Totals>();
  T->Overheads.resize(size_t(P.Grid.numCells()));
  P.Cell = [=](const GridCell &Cell) -> Rows {
    CellSpec S{.Program = Cell.str("program"), .LogN = LogN,
               .Policy = Cell.str("policy"), .C = C, .M = M};
    CellResult R = runCell(S);
    T->Steps += R.Exec.Steps;
    T->Overheads[size_t(Cell.index())] = {S.Program + "/" + S.Policy,
                                          R.Overhead};
    return {Row()
                .addCell(S.Program)
                .addCell(S.Policy)
                .addCell(R.Exec.Steps)
                .addCell(R.Exec.HeapSize)
                .addCell(R.Exec.wasteFactor(M), 3)
                .addCell(R.Exec.MovedWords)
                .addCell(R.Exec.TotalAllocatedWords)
                .addCell(R.Overhead, 4)
                .addCell(R.WorstPrefix, 4)
                .addCell(std::isfinite(R.Bound) ? formatDouble(R.Bound, 1)
                                                : std::string("inf"))};
  };
  P.Report = std::make_unique<BenchReport>("realloc");
  P.Fields = [=](BenchReport &B) {
    std::vector<std::pair<std::string, double>> Sorted = T->Overheads;
    std::sort(Sorted.begin(), Sorted.end());
    std::vector<JsonObject> Cells;
    for (const auto &[Name, Overhead] : Sorted)
      Cells.push_back(JsonObject().add("cell", Name).add("overhead",
                                                          Overhead, 4));
    B.add("programs", Programs)
        .add("policies", Policies)
        .add("logm", LogM)
        .add("logn", LogN)
        .add("total_steps", T->Steps.load())
        .add("overhead_cells", Cells);
  };
  return true;
}

/// A named table: its plan, and its options with their defaults for the
/// usage text.
struct SweepTable {
  const char *Name;
  bool (*Plan)(const OptionParser &, TablePlan &);
  const char *Options;
};

const SweepTable Tables[] = {
    {"fig1", planFig1, "M=256M n=1M cmin=10 cmax=100"},
    {"fig2", planFig2, "c=100 lognmin=10 lognmax=30 ratio=256"},
    {"fig3", planFig3, "M=256M n=1M cmin=10 cmax=100"},
    {"robson", planRobson, "logm=14 lognmin=4 lognmax=8"},
    {"pf-sim", planPfSim,
     "logm=16 logn=9 cs=10,25,50,75,100 bench-json= overhead-check=0"},
    {"upper", planUpper, "logm=15 logn=8 c=50 seeds=3"},
    {"ablation", planAblation, "logm=15 logn=9 cs=20,50,100"},
    {"pf-n-sweep", planPfNSweep,
     "c=50 lognmin=6 lognmax=10 ratio=64 policy=evacuating"},
    {"manager-tuning", planManagerTuning,
     "logm=15 logn=8 c=50 thresholds=0.05,0.1,0.25,0.5,0.9"},
    {"fleet", planFleet,
     "arenas=1,4,8 sessions=100000 sample=0 bench-json=\n"
     "                 (and serve's other fleet options)"},
    {"trace", planTrace,
     "traces=churn,queue-fifo,comb ops=20000\n"
     "                 policies=first-fit,evacuating,chunked\n"
     "                 controllers=fixed,periodic,membalancer c=50 period=64\n"
     "                 c1=10000 smoothing=0.25 seed=42 maxlog=8 live=0\n"
     "                 livegen=4096 bench-json="},
    {"realloc", planRealloc,
     "programs=<the five update-* programs>,cohen-petrank\n"
     "                 logm=12 logn=6 c=50\n"
     "                 policies=realloc-never,realloc-bucket,realloc-jin\n"
     "                 bench-json="},
};

} // namespace

std::string pcb::sweepTableUsage() {
  std::string Out;
  for (const SweepTable &T : Tables)
    Out += "  " + (T.Name + std::string(15, ' ')).substr(0, 15) + T.Options +
           "\n";
  return Out;
}

int pcb::cmdSweep(const OptionParser &Opts) {
  bool (*Plan)(const OptionParser &, TablePlan &) = planSweep;
  if (Opts.has("table")) {
    std::string Name = Opts.getString("table", ""), Names;
    Plan = nullptr;
    for (const SweepTable &T : Tables) {
      Names += Names.empty() ? T.Name : std::string(", ") + T.Name;
      if (Name == T.Name)
        Plan = T.Plan;
    }
    if (!Plan) {
      std::cerr << "error: unknown table '" << Name
                << "'; valid tables: " << Names << "\n";
      return 1;
    }
  }
  TablePlan P;
  if (!Plan(Opts, P))
    return 1;
  std::string JsonPath = P.Report ? Opts.getString("bench-json", "") : "";
  Runner R = P.Serial ? Runner(RunnerOptions{1, 0, nullptr})
                      : makeRunner(Opts, JsonPath.empty()
                                             ? nullptr
                                             : &P.Report->profiler());
  std::cout << P.Banner.str();
  if (!P.Serial)
    std::cerr << "# sweep: threads=" << R.threads() << "\n";
  ResultSink Sink(P.Columns);
  try {
    R.run(P.Grid, P.Cell, Sink);
  } catch (const std::exception &Ex) {
    std::cerr << "error: " << Ex.what() << "\n";
    return 1;
  }
  if (!Sink.emit(Opts))
    return 1;
  if (P.Plot)
    P.Plot->print(std::cout);
  std::cout << P.Notes;
  if (JsonPath.empty())
    return 0;
  P.Fields(*P.Report);
  return P.Report->write(JsonPath) ? 0 : 1;
}
