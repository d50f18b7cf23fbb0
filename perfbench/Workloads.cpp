//===- perfbench/Workloads.cpp - The benchmark's four workloads -----------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "adversary/CohenPetrankProgram.h"
#include "adversary/SyntheticWorkloads.h"
#include "driver/Execution.h"
#include "fuzz/DifferentialHarness.h"
#include "fuzz/WorkloadFuzzer.h"
#include "mm/ManagerFactory.h"
#include "realloc/ReallocationLedger.h"
#include "realloc/UpdateProgram.h"
#include "runner/Runner.h"
#include "service/ServiceFleet.h"
#include "service/SessionWorkload.h"
#include "support/Random.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

using namespace perfbench;
using namespace pcb;

Workload::~Workload() = default;

namespace {

// pf-grid: bench_pf_sim's grid with M scaled down 2x.
constexpr uint64_t PfM = uint64_t(1) << 15;
constexpr uint64_t PfN = uint64_t(1) << 9;
const std::vector<double> PfCs = {10, 25, 50, 75, 100};
const char *const PfReference = "sliding-unlimited";
const std::vector<std::string> PfPolicies = {
    "first-fit", "best-fit",   "segregated-fit", "chunked",
    "meshing",   "evacuating", "hybrid",         "sliding",
    "paged-space", "bump-compactor", PfReference};

// realloc-churn. PF x realloc-bucket is left out: its backfill cascade
// recurses once per link and overflows the default stack.
constexpr uint64_t ReallocM = uint64_t(1) << 17;
constexpr uint64_t ReallocSteps = 5000;
constexpr unsigned ReallocMaxLog = 10;
constexpr uint64_t ReallocSeeds = 4; ///< update seeds 1..4, every pass
const std::vector<UpdateProgram::Shape> ReallocShapes = {
    UpdateProgram::Shape::Comb, UpdateProgram::Shape::SizeProfile,
    UpdateProgram::Shape::Mix};
const std::vector<std::string> ReallocPolicies = {"realloc-bucket",
                                                  "realloc-jin"};

// fleet-churn: bench_fleet's shape at 8 arenas and 20k sessions.
constexpr unsigned FleetArenas = 8;
constexpr uint64_t FleetSessions = 20000;
/// Universe: fleet seed 1 only. The allocate tail (p99.9) follows the
/// fleet seed (about 1000 ns at seed 6, 1500 ns at seed 1), so a run seed
/// that picked the fleet would move it by more than the noise does.
constexpr uint64_t FleetSeeds = 1;
const char *const FleetPolicy = "evacuating";
constexpr double FleetC = 50.0;

// fuzz-diff: `pcbound fuzz` defaults.
constexpr uint64_t FuzzSchedules = 32; ///< every pass, 4 per fuzz pattern
constexpr uint64_t FuzzOps = 384;
constexpr uint64_t FuzzLiveBound = uint64_t(1) << 12;
constexpr unsigned FuzzMaxLog = 8;
constexpr double FuzzC = 50.0;
constexpr uint64_t FuzzDeepEvery = 64;
constexpr uint64_t FuzzTickSteps = 128; ///< steps per timed piece of a run

double ms(int64_t Ns) { return double(Ns) * 1e-6; }

uint64_t secNs(const Profiler &P, Profiler::Section S) {
  return P.section(S).Nanos;
}

uint64_t secCalls(const Profiler &P, Profiler::Section S) {
  return P.section(S).Calls;
}

/// Seeded Fisher-Yates permutation of [0, N).
std::vector<size_t> shuffled(size_t N, uint64_t Seed) {
  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), size_t(0));
  Rng R(splitSeed(Seed, 0x7065726662656e63ULL));
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[size_t(R.nextBelow(I))]);
  return Order;
}

Runner makeRunner(unsigned Threads) {
  RunnerOptions RO;
  RO.Threads = Threads;
  RO.Progress = 0;
  return Runner(RO);
}

std::string formatNumber(double V) {
  std::ostringstream OS;
  OS.precision(6);
  OS << V;
  return OS.str();
}

void addStats(Digest &D, const HeapStats &S) {
  D.add(S.HighWaterMark)
      .add(S.TotalAllocatedWords)
      .add(S.MovedWords)
      .add(S.LiveWords)
      .add(S.PeakLiveWords)
      .add(S.NumAllocations)
      .add(S.NumFrees)
      .add(S.NumMoves);
}

bool sameStats(const HeapStats &A, const HeapStats &B) {
  return A.HighWaterMark == B.HighWaterMark &&
         A.TotalAllocatedWords == B.TotalAllocatedWords &&
         A.MovedWords == B.MovedWords && A.LiveWords == B.LiveWords &&
         A.PeakLiveWords == B.PeakLiveWords &&
         A.NumAllocations == B.NumAllocations && A.NumFrees == B.NumFrees &&
         A.NumMoves == B.NumMoves;
}

std::unique_ptr<MemoryManager> makeManager(const std::string &Policy, Heap &H,
                                           double C, uint64_t LiveBound) {
  std::string Error;
  auto MM = createManagerChecked(Policy, H, C, LiveBound, &Error);
  if (!MM)
    throw std::runtime_error(Error);
  return MM;
}

/// One unit's outcome, filled on whichever worker ran it.
struct UnitOut {
  std::string Key;
  std::string Digest;
  std::string Failure;
  uint64_t Ops = 0, Words = 0;
  uint64_t Moves = 0, MovedWords = 0;
  uint64_t CellNs = 0;
  CallLog Log;
  /// Timed work split into fixed pieces when the unit's own calls are not
  /// logged (fuzz-diff: the harness's steps between ticks).
  std::vector<uint64_t> SegNs;
  // Traced units.
  Profiler Prof;
  CallStats Calls;
  // realloc-churn.
  uint64_t LedgerMoved = 0, LedgerAllocated = 0;
  double WorstPrefix = 0.0;
  // fuzz-diff.
  uint64_t HarnessNs = 0, PolicyRuns = 0;
  std::vector<HeapStats> RunStats;
};

/// Runs \p Prog against \p MM under the timing wrapper.
ExecutionResult runWrapped(UnitOut &Out, Program &Prog, MemoryManager &MM,
                           uint64_t M, bool Traced) {
  TimedProgram Timed(Prog, Traced, Out.Log);
  Execution E(MM, Timed, M);
  ExecutionResult R = E.run();
  Timed.finish();
  Out.Calls.merge(Timed.stats());
  return R;
}

void noteResult(UnitOut &Out, Digest &D, const ExecutionResult &R) {
  Out.Ops += R.NumAllocations + R.NumFrees;
  Out.Words += R.TotalAllocatedWords;
  Out.Moves += R.NumMoves;
  Out.MovedWords += R.MovedWords;
  D.add(R.HeapSize)
      .add(R.PeakLiveWords)
      .add(R.TotalAllocatedWords)
      .add(R.MovedWords)
      .add(R.Steps)
      .add(R.NumAllocations)
      .add(R.NumFrees)
      .add(R.NumMoves);
}

/// Runs \p Body as one unit: installs the unit's profiler when traced,
/// times it, and turns a throw into a failure.
template <typename Fn> void runUnit(UnitOut &Out, bool Traced, Fn Body) {
  uint64_t Start = nowNs();
  {
    ProfilerScope Scope(Traced ? &Out.Prof : nullptr);
    try {
      Body();
    } catch (const std::exception &Ex) {
      Out.Failure = Out.Key + ": threw: " + Ex.what();
    }
  }
  Out.CellNs = nowNs() - Start;
}

/// Runs \p Run(I, Units[I]) for every unit on the Runner; returns the
/// pass's wall nanoseconds.
template <typename Fn>
uint64_t runUnits(std::vector<UnitOut> &Units, unsigned Threads, Fn Run) {
  uint64_t Start = nowNs();
  makeRunner(Threads).forEachCell(Units.size(), [&](uint64_t I) {
    Run(size_t(I), Units[size_t(I)]);
  });
  return nowNs() - Start;
}

void storeDigests(const std::vector<UnitOut> &Units, DigestTable &Out) {
  for (const UnitOut &U : Units)
    Out[U.Key] = U.Failure.empty() ? U.Digest : "failed";
}

/// Profiler-derived per-layer metrics and work counts shared by every
/// workload.
void addProfilerLayers(PassResult &P, const Profiler &Prof) {
  auto &L = P.Layer;
  auto &C = P.Counts;
  L["heap.place_ms"] = ms(secNs(Prof, Profiler::SecHeapPlace));
  L["heap.free_ms"] = ms(secNs(Prof, Profiler::SecHeapFree));
  L["heap.move_ms"] = ms(secNs(Prof, Profiler::SecHeapMove));
  L["heap.fsi_reserve_ms"] = ms(secNs(Prof, Profiler::SecFreeReserve));
  L["heap.fsi_release_ms"] = ms(secNs(Prof, Profiler::SecFreeRelease));
  L["realloc.pass_ms"] = ms(secNs(Prof, Profiler::SecRealloc));
  C["heap.place_calls"] = secCalls(Prof, Profiler::SecHeapPlace);
  C["heap.free_calls"] = secCalls(Prof, Profiler::SecHeapFree);
  C["heap.move_calls"] = secCalls(Prof, Profiler::SecHeapMove);
  C["mm.fit_probes"] = Prof.counter(Profiler::CtrFitProbes);
  C["mm.compaction_passes"] = Prof.counter(Profiler::CtrCompactionPasses);
  C["mm.mesh_probes"] = Prof.counter(Profiler::CtrMeshProbes);
  C["mm.mesh_merges"] = Prof.counter(Profiler::CtrMeshMerges);
  C["mm.chunk_evacuations"] = Prof.counter(Profiler::CtrChunkEvacuations);
  C["mm.controller_denials"] = Prof.counter(Profiler::CtrControllerDenials);
  C["realloc.passes"] = Prof.counter(Profiler::CtrReallocPasses);
  C["service.flushes"] = Prof.counter(Profiler::CtrServeFlushes);
  C["service.sessions"] = Prof.counter(Profiler::CtrServeSessions);
}

/// Ratios and copies of counts into the metric map, once counts are final.
void finishLayers(PassResult &P) {
  auto &L = P.Layer;
  auto &C = P.Counts;
  auto Ratio = [](uint64_t Num, uint64_t Den) {
    return Den == 0 ? 0.0 : double(Num) / double(Den);
  };
  L["mm.fit_probes_per_alloc"] = Ratio(C["mm.fit_probes"], C["mm.alloc_calls"]);
  L["mm.moves_per_pass"] = Ratio(C["heap.moves"], C["mm.compaction_passes"]);
  L["mm.mesh_merge_ratio"] = Ratio(C["mm.mesh_merges"], C["mm.mesh_probes"]);
  for (const auto &[Name, Value] : C)
    L[Name] = double(Value);
  double Sum = 0.0;
  for (const SelfRow &R : P.Self)
    Sum += R.Ms;
  L["trace.self_sum_ms"] = Sum;
  L["trace.wall_ms"] = P.WallSec * 1e3;
  for (const SelfRow &R : P.Self)
    L["self." + R.Name + "_ms"] = R.Ms;
}

/// Common aggregation of a pass's units. \p CallsInUnitSec: the units'
/// logged calls are their own timed work, so the call log's segments
/// split the unit's time; otherwise the units bring their own SegNs.
class PassBuilder {
public:
  PassBuilder(std::vector<UnitOut> &Units, const DigestTable *Expected,
              uint64_t WallNs, bool CallsInUnitSec) {
    Pass.WallSec = double(WallNs) * 1e-9;
    for (UnitOut &U : Units) {
      ++Pass.Units;
      Pass.Ops += U.Ops;
      Pass.Words += U.Words;
      Pass.UnitSec.push_back(double(U.CellNs) * 1e-9);
      Pass.UnitOps.push_back(U.Ops);
      Pass.UnitWords.push_back(U.Words);
      Pass.UnitSegNs.push_back(CallsInUnitSec ? U.Log.SegNs
                                              : std::move(U.SegNs));
      Pass.UnitCalls.push_back(std::move(U.Log));
      std::string Failure = U.Failure;
      if (Failure.empty() && Expected) {
        auto It = Expected->find(U.Key);
        if (It == Expected->end())
          Failure = U.Key + ": no recorded digest";
        else if (It->second != U.Digest)
          Failure = U.Key + ": digest " + U.Digest +
                    " differs from the recorded " + It->second;
      }
      if (!Failure.empty())
        Pass.Failures.push_back(Failure);
      Prof.merge(U.Prof);
      Calls.merge(U.Calls);
      SumCellNs += U.CellNs;
      CellMs.push_back(ms(int64_t(U.CellNs)));
      Pass.Counts["heap.moves"] += U.Moves;
      Pass.Counts["heap.moved_words"] += U.MovedWords;
    }
  }

  /// Runner-side metrics: per-cell median and idle worker time.
  void addRunnerLayers(unsigned Threads) {
    std::vector<double> Sorted = CellMs;
    std::sort(Sorted.begin(), Sorted.end());
    Pass.Layer["runner.cell_p50_ms"] =
        Sorted.empty() ? 0.0 : Sorted[(Sorted.size() - 1) / 2];
    Pass.Layer["runner.idle_ms"] = ms(threadNs(Threads) - int64_t(SumCellNs));
  }

  int64_t threadNs(unsigned Threads) const {
    return int64_t(double(Threads) * Pass.WallSec * 1e9);
  }

  PassResult Pass;
  Profiler Prof;
  CallStats Calls;
  uint64_t SumCellNs = 0;
  std::vector<double> CellMs;
};

/// Traced breakdown of the workloads that drive Execution through the
/// wrapper (pf-grid, realloc-churn).
void addExecutionLayers(PassBuilder &B, unsigned Threads) {
  PassResult &P = B.Pass;
  const Profiler &Prof = B.Prof;
  const CallStats &C = B.Calls;
  int64_t Place = int64_t(secNs(Prof, Profiler::SecHeapPlace));
  int64_t Free = int64_t(secNs(Prof, Profiler::SecHeapFree));
  int64_t Move = int64_t(secNs(Prof, Profiler::SecHeapMove));
  int64_t Fsi = int64_t(secNs(Prof, Profiler::SecFreeReserve) +
                        secNs(Prof, Profiler::SecFreeRelease));
  int64_t Exec = int64_t(secNs(Prof, Profiler::SecStep));
  int64_t Adversary = int64_t(C.StepNs) - int64_t(C.AllocNs) -
                      int64_t(C.FreeNs) + int64_t(C.MovedNs);
  int64_t Thread = B.threadNs(Threads);
  P.Self = {{"adversary", ms(Adversary)},
            {"driver", ms(Exec - int64_t(C.StepNs))},
            {"mm", ms(C.MmSelfNs)},
            {"compact", ms(C.CompactSelfNs)},
            {"heap", ms(Place + Free + Move - Fsi)},
            {"fsi", ms(Fsi)},
            {"other", ms(int64_t(B.SumCellNs) - Exec)},
            {"runner_idle", ms(Thread - int64_t(B.SumCellNs))}};
  P.Nesting =
      "cell > exec.step > prog.step > {allocate, free} > {outermost "
      "mm.compact | mm.chunk_trigger | mm.realloc} > {heap.*, "
      "onObjectMoved}; heap.* > fsi.*. adversary = prog.step - allocate - "
      "free + onObjectMoved; driver = exec.step - prog.step; mm = allocate "
      "+ free - own heap op - outermost compaction; compact = outermost "
      "compaction - heap ops and callbacks inside it; heap = heap.* - "
      "fsi.*; other = cell - exec.step; runner_idle = threads x wall - "
      "sum(cell)";
  auto &L = P.Layer;
  L["trace.thread_ms"] = ms(Thread);
  L["adversary.self_ms"] = ms(Adversary);
  L["driver.check_ms"] = ms(Exec - int64_t(C.StepNs));
  L["mm.alloc_ms"] = ms(int64_t(C.AllocNs));
  L["mm.free_ms"] = ms(int64_t(C.FreeNs));
  L["mm.place_ms"] = ms(C.PlaceSelfNs);
  L["mm.compact_ms"] =
      ms(int64_t(C.CompactNs) - int64_t(secNs(Prof, Profiler::SecRealloc)));
  P.Counts["adversary.steps"] = C.Steps;
  P.Counts["driver.steps"] = secCalls(Prof, Profiler::SecStep);
  P.Counts["mm.alloc_calls"] = C.Allocs;
  P.Counts["mm.free_calls"] = C.Frees;
  P.Counts["mm.nested_free_spans"] = C.NestedFrees;
  B.addRunnerLayers(Threads);
}

//===----------------------------------------------------------------------===//
// pf-grid
//===----------------------------------------------------------------------===//

struct PfCell {
  double C;
  std::string Policy;
  std::string key() const {
    return "pf-grid/c=" + formatNumber(C) + "/" + Policy;
  }
};

class PfGrid final : public Workload {
public:
  PfGrid(unsigned Threads, const DigestTable *Expected)
      : Threads(Threads), Expected(Expected) {}

  void setup(uint64_t Seed) override {
    std::vector<PfCell> All = universe();
    Cells.clear();
    for (size_t I : shuffled(All.size(), Seed))
      Cells.push_back(All[I]);
  }

  PassResult runPass(bool Traced) override {
    std::vector<UnitOut> Units(Cells.size());
    uint64_t WallNs = runUnits(Units, Threads, [&](size_t I, UnitOut &U) {
      runCell(Cells[I], Traced, U);
    });
    PassBuilder B(Units, Expected, WallNs, /*CallsInUnitSec=*/true);
    if (Traced) {
      addProfilerLayers(B.Pass, B.Prof);
      addExecutionLayers(B, Threads);
      finishLayers(B.Pass);
    }
    return std::move(B.Pass);
  }

  void recordDigests(DigestTable &Out) override {
    std::vector<PfCell> All = universe();
    std::vector<UnitOut> Units(All.size());
    runUnits(Units, Threads,
             [&](size_t I, UnitOut &U) { runCell(All[I], false, U); });
    storeDigests(Units, Out);
  }

private:
  static std::vector<PfCell> universe() {
    std::vector<PfCell> All;
    for (double C : PfCs)
      for (const std::string &Policy : PfPolicies)
        All.push_back({C, Policy});
    return All;
  }

  static void runCell(const PfCell &Cell, bool Traced, UnitOut &Out) {
    Out.Key = Cell.key();
    runUnit(Out, Traced, [&] {
      bool IsReference = Cell.Policy == PfReference;
      Heap H;
      auto MM = makeManager(Cell.Policy, H, IsReference ? 0.0 : Cell.C, PfM);
      CohenPetrankProgram PF(PfM, PfN, Cell.C);
      ExecutionResult R = runWrapped(Out, PF, *MM, PfM, Traced);
      Digest D;
      D.add(Out.Key);
      noteResult(Out, D, R);
      Out.Digest = D.hex();
      // Theorem 1: every c-partial manager needs at least h * M words.
      double Waste = R.wasteFactor(PfM);
      if (!IsReference && Waste < PF.targetWasteFactor())
        Out.Failure = Out.Key + ": waste " + formatNumber(Waste) +
                      " is below Theorem 1's h = " +
                      formatNumber(PF.targetWasteFactor());
    });
  }

  unsigned Threads;
  const DigestTable *Expected;
  std::vector<PfCell> Cells;
};

//===----------------------------------------------------------------------===//
// realloc-churn
//===----------------------------------------------------------------------===//

struct ReallocCell {
  UpdateProgram::Shape Shape;
  std::string Policy;
  uint64_t Seed;
  std::string key() const {
    return std::string("realloc-churn/") + UpdateProgram::shapeName(Shape) +
           "/" + Policy + "/seed=" + std::to_string(Seed);
  }
};

class ReallocChurn final : public Workload {
public:
  ReallocChurn(unsigned Threads, const DigestTable *Expected)
      : Threads(Threads), Expected(Expected) {}

  void setup(uint64_t Seed) override {
    std::vector<ReallocCell> All = universe();
    Cells.clear();
    for (size_t I : shuffled(All.size(), Seed))
      Cells.push_back(All[I]);
  }

  PassResult runPass(bool Traced) override {
    std::vector<UnitOut> Units(Cells.size());
    uint64_t WallNs = runUnits(Units, Threads, [&](size_t I, UnitOut &U) {
      runCell(Cells[I], Traced, U);
    });
    PassBuilder B(Units, Expected, WallNs, /*CallsInUnitSec=*/true);
    if (Traced) {
      addProfilerLayers(B.Pass, B.Prof);
      addExecutionLayers(B, Threads);
      uint64_t Moved = 0, Allocated = 0;
      double Worst = 0.0;
      for (const UnitOut &U : Units) {
        Moved += U.LedgerMoved;
        Allocated += U.LedgerAllocated;
        Worst = std::max(Worst, U.WorstPrefix);
      }
      B.Pass.Counts["realloc.moved_words"] = Moved;
      B.Pass.Layer["realloc.overhead_ratio"] =
          Allocated == 0 ? 0.0 : double(Moved) / double(Allocated);
      B.Pass.Layer["realloc.worst_prefix"] = Worst;
      finishLayers(B.Pass);
    }
    return std::move(B.Pass);
  }

  void recordDigests(DigestTable &Out) override {
    std::vector<ReallocCell> All = universe();
    std::vector<UnitOut> Units(All.size());
    runUnits(Units, Threads,
             [&](size_t I, UnitOut &U) { runCell(All[I], false, U); });
    storeDigests(Units, Out);
  }

private:
  static std::vector<ReallocCell> universe() {
    std::vector<ReallocCell> All;
    for (uint64_t Seed = 1; Seed <= ReallocSeeds; ++Seed)
      for (UpdateProgram::Shape S : ReallocShapes)
        for (const std::string &Policy : ReallocPolicies)
          All.push_back({S, Policy, Seed});
    return All;
  }

  static void runCell(const ReallocCell &Cell, bool Traced, UnitOut &Out) {
    Out.Key = Cell.key();
    runUnit(Out, Traced, [&] {
      Heap H;
      auto MM = makeManager(Cell.Policy, H, FuzzC, ReallocM);
      UpdateProgram::Options O;
      O.Steps = ReallocSteps;
      O.MaxLogSize = ReallocMaxLog;
      O.Seed = Cell.Seed;
      O.S = Cell.Shape;
      UpdateProgram Prog(ReallocM, O);
      ExecutionResult R = runWrapped(Out, Prog, *MM, ReallocM, Traced);
      const ReallocationLedger *RL = MM->reallocationLedger();
      if (!RL)
        throw std::runtime_error(Cell.Policy + " keeps no reallocation ledger");
      Out.LedgerMoved = RL->movedWords();
      Out.LedgerAllocated = RL->allocatedWords();
      Out.WorstPrefix = RL->maxPrefixRatio();
      Digest D;
      D.add(Out.Key);
      noteResult(Out, D, R);
      D.add(RL->maxPrefixRatio()).add(RL->movedWords()).add(RL->allocatedWords());
      Out.Digest = D.hex();
      // Every prefix stays within the scheme's declared overhead bound.
      if (!RL->holds() || RL->maxPrefixRatio() > MM->overheadBound() + 1e-9)
        Out.Failure = Out.Key + ": worst prefix ratio " +
                      formatNumber(RL->maxPrefixRatio()) +
                      " exceeds the declared bound " +
                      formatNumber(MM->overheadBound());
    });
  }

  unsigned Threads;
  const DigestTable *Expected;
  std::vector<ReallocCell> Cells;
};

//===----------------------------------------------------------------------===//
// fleet-churn
//===----------------------------------------------------------------------===//

FleetOptions fleetOptions(uint64_t FleetSeed, unsigned Threads) {
  FleetOptions FO;
  FO.NumArenas = FleetArenas;
  FO.NumSessions = FleetSessions;
  FO.Threads = Threads;
  FO.Shard.Policy = FleetPolicy;
  FO.Shard.C = FleetC;
  FO.Shard.BatchSize = 16;
  FO.Shard.MaxResident = 8;
  FO.Shard.SampleEverySessions = 0;
  FO.Shard.Session.FleetSeed = FleetSeed;
  FO.Shard.Session.TargetOps = 48;
  FO.Shard.Session.MaxLogSize = 6;
  return FO;
}

std::string fleetKey(uint64_t FleetSeed) {
  return "fleet-churn/seed=" + std::to_string(FleetSeed);
}

std::string fleetDigest(const FleetReport &R) {
  std::ostringstream OS;
  R.printJson(OS);
  Digest D;
  D.add(OS.str());
  return D.hex();
}

class FleetChurn final : public Workload {
public:
  FleetChurn(unsigned Threads, const DigestTable *Expected)
      : Threads(Threads), Expected(Expected) {}

  void setup(uint64_t Seed) override {
    FleetSeed = 1 + Seed % FleetSeeds;
    // The sessions' operation lists, generated once on their own: their
    // totals are what the drained fleet must report.
    FleetOptions FO = fleetOptions(FleetSeed, Threads);
    ExpectedOps = ExpectedWords = 0;
    uint64_t Start = nowNs();
    for (uint64_t G = 0; G != FleetSessions; ++G) {
      std::vector<TraceOp> Ops = generateSessionTrace(FO.Shard.Session, G);
      ExpectedOps += Ops.size();
      for (const TraceOp &Op : Ops)
        if (Op.Op == TraceOp::Kind::Alloc)
          ExpectedWords += Op.Value;
    }
    SessionGenNs = nowNs() - Start;
  }

  PassResult runPass(bool Traced) override {
    std::vector<UnitOut> Units(1);
    UnitOut &U = Units.front();
    U.Key = fleetKey(FleetSeed);
    FleetOptions FO = fleetOptions(FleetSeed, Threads);
    Profiler FleetProf;
    if (Traced)
      FO.Prof = &FleetProf;
    ServiceFleet Fleet(FO);
    // Untraced passes record every arena's request stream from its heap
    // events (object ids are allocation ordinals) for the latency replay.
    std::vector<std::vector<TraceOp>> Streams(FleetArenas);
    if (!Traced)
      for (unsigned A = 0; A != FleetArenas; ++A)
        arenaHeap(Fleet, A).setEventCallback(
            [&Ops = Streams[A]](const HeapEvent &E) {
              if (E.Event == HeapEvent::Kind::Alloc)
                Ops.push_back(TraceOp::alloc(E.Size));
              else if (E.Event == HeapEvent::Kind::Free)
                Ops.push_back(TraceOp::release(E.Id));
            });
    uint64_t Start = nowNs();
    try {
      Fleet.run();
    } catch (const std::exception &Ex) {
      U.Failure = U.Key + ": threw: " + Ex.what();
    }
    uint64_t WallNs = nowNs() - Start;
    for (unsigned A = 0; A != FleetArenas; ++A)
      arenaHeap(Fleet, A).setEventCallback({});
    U.CellNs = WallNs;
    FleetReport R = Fleet.report();
    U.Ops = R.TotalAllocations + R.TotalFrees;
    U.Words = R.TotalAllocatedWords;
    U.Moves = R.TotalMoves;
    U.MovedWords = R.TotalMovedWords;
    U.Digest = fleetDigest(R);
    if (U.Failure.empty())
      U.Failure = checkReport(R);
    if (U.Failure.empty() && !Traced)
      U.Failure = replayArenas(Streams, R, U);

    PassBuilder B(Units, Expected, WallNs, /*CallsInUnitSec=*/false);
    if (Traced) {
      addProfilerLayers(B.Pass, FleetProf);
      addFleetLayers(B.Pass, FleetProf, Fleet, R);
      finishLayers(B.Pass);
    }
    return std::move(B.Pass);
  }

  void recordDigests(DigestTable &Out) override {
    for (uint64_t Seed = 1; Seed <= FleetSeeds; ++Seed) {
      ServiceFleet Fleet(fleetOptions(Seed, Threads));
      Fleet.run();
      FleetReport R = Fleet.report();
      Out[fleetKey(Seed)] = R.clean() ? fleetDigest(R) : "failed";
    }
  }

private:
  std::string checkReport(const FleetReport &R) const {
    std::string Key = fleetKey(FleetSeed);
    if (!R.clean())
      return Key + ": " + std::to_string(R.Violations.size()) +
             " invariant violations";
    if (R.TotalSessions != FleetSessions || R.TotalOpsApplied != ExpectedOps ||
        R.TotalAllocations + R.TotalFrees != ExpectedOps ||
        R.TotalAllocatedWords != ExpectedWords || R.TotalLiveWords != 0)
      return Key + ": drained fleet reports " +
             std::to_string(R.TotalSessions) + " sessions, " +
             std::to_string(R.TotalOpsApplied) + " ops, " +
             std::to_string(R.TotalAllocatedWords) + " words, " +
             std::to_string(R.TotalLiveWords) + " live; the sessions hold " +
             std::to_string(ExpectedOps) + " ops and " +
             std::to_string(ExpectedWords) + " words";
    return "";
  }

  static Heap &arenaHeap(ServiceFleet &Fleet, unsigned A) {
    return const_cast<Heap &>(Fleet.shard(A).heap());
  }

  /// Replays each arena's request stream through the same manager under
  /// the timing wrapper; each replay must reproduce its arena's heap
  /// exactly. Every arena, not one arena several times, so the tail
  /// percentiles rest on many distinct calls.
  std::string replayArenas(const std::vector<std::vector<TraceOp>> &Streams,
                           const FleetReport &R, UnitOut &U) const {
    FleetOptions FO = fleetOptions(FleetSeed, Threads);
    uint64_t LiveBound = FO.Shard.MaxResident * FO.Shard.Session.LiveBound;
    for (size_t A = 0; A != Streams.size(); ++A) {
      Heap H;
      auto MM = makeManager(FO.Shard.Policy, H, FO.Shard.C, LiveBound);
      TraceReplayProgram Replay(Streams[A]);
      runWrapped(U, Replay, *MM, LiveBound, /*Traced=*/false);
      if (!sameStats(H.stats(), R.Arenas[A].Stats))
        return fleetKey(FleetSeed) + ": the replay of arena " +
               std::to_string(A) + " diverged from the fleet's";
    }
    return "";
  }

  void addFleetLayers(PassResult &P, const Profiler &Prof,
                      const ServiceFleet &Fleet, const FleetReport &R) const {
    int64_t Place = int64_t(secNs(Prof, Profiler::SecHeapPlace));
    int64_t Free = int64_t(secNs(Prof, Profiler::SecHeapFree));
    int64_t Move = int64_t(secNs(Prof, Profiler::SecHeapMove));
    int64_t Fsi = int64_t(secNs(Prof, Profiler::SecFreeReserve) +
                          secNs(Prof, Profiler::SecFreeRelease));
    int64_t Flush = int64_t(secNs(Prof, Profiler::SecServeFlush));
    int64_t Compaction =
        int64_t(secCalls(Prof, Profiler::SecChunkTrigger) != 0
                    ? secNs(Prof, Profiler::SecChunkTrigger)
                    : secNs(Prof, Profiler::SecCompaction)) +
        int64_t(secNs(Prof, Profiler::SecRealloc));
    int64_t Thread =
        int64_t(double(Fleet.threads()) * Fleet.wallSeconds() * 1e9);
    int64_t FlushSelf = Flush - Place - Free - Compaction;
    P.Self = {{"service", ms(FlushSelf)},
              {"compact", ms(Compaction - Move)},
              {"heap", ms(Place + Free + Move - Fsi)},
              {"fsi", ms(Fsi)},
              {"other", ms(Thread - Flush)}};
    P.Nesting = "threads x wall > serve.flush > {heap.place, heap.free, "
                "outermost mm.compact} > heap.move; heap.* > fsi.*. service "
                "= serve.flush - heap.place - heap.free - compaction (the "
                "placement search and flush telemetry); compact = "
                "compaction - heap.move; other = threads x wall - "
                "serve.flush (admission, session generation, scheduler, "
                "idle)";
    auto &L = P.Layer;
    L["trace.thread_ms"] = ms(Thread);
    L["service.flush_ms"] = ms(Flush);
    L["service.flush_self_ms"] = ms(FlushSelf);
    L["service.idle_ms"] = ms(Thread - Flush);
    L["mm.compact_ms"] = ms(Compaction - int64_t(secNs(Prof, Profiler::SecRealloc)));
    L["adversary.session_gen_ms"] = ms(int64_t(SessionGenNs));
    L["service.steals"] = double(Fleet.steals());
    L["service.slices"] = double(Fleet.slices());
    P.Counts["mm.alloc_calls"] = R.TotalAllocations;
    P.Counts["mm.free_calls"] = R.TotalFrees;
  }

  unsigned Threads;
  const DigestTable *Expected;
  uint64_t FleetSeed = 1;
  uint64_t ExpectedOps = 0, ExpectedWords = 0;
  uint64_t SessionGenNs = 0;
};

//===----------------------------------------------------------------------===//
// fuzz-diff
//===----------------------------------------------------------------------===//

std::string fuzzKey(uint64_t Index) {
  return "fuzz-diff/schedule=" + std::to_string(Index);
}

FuzzSchedule generateSchedule(uint64_t Index) {
  const std::vector<WorkloadFuzzer::Pattern> &Patterns =
      WorkloadFuzzer::allPatterns();
  WorkloadFuzzer::Options FO;
  FO.Seed = splitSeed(1, Index);
  FO.NumOps = FuzzOps;
  FO.LiveBound = FuzzLiveBound;
  FO.MaxLogSize = FuzzMaxLog;
  FO.P = Patterns[size_t(Index % Patterns.size())];
  return WorkloadFuzzer(FO).generate();
}

/// Where the harness's step observer records a tick every FuzzTickSteps
/// steps of each policy run: the running unit's list, null otherwise.
thread_local std::vector<uint64_t> *StepTicks = nullptr;

class StepTickScope {
public:
  explicit StepTickScope(std::vector<uint64_t> &Ticks) { StepTicks = &Ticks; }
  ~StepTickScope() { StepTicks = nullptr; }
  StepTickScope(const StepTickScope &) = delete;
  StepTickScope &operator=(const StepTickScope &) = delete;
};

DifferentialHarness makeHarness() {
  DifferentialHarness::Options HO;
  HO.C = FuzzC;
  HO.DeepCheckEvery = FuzzDeepEvery;
  HO.OnExecution = [](Execution &E, const std::string &) {
    E.addStepObserver([](const Execution &Run) {
      if (StepTicks && Run.stepsRun() % FuzzTickSteps == 0)
        StepTicks->push_back(nowNs());
    });
  };
  return DifferentialHarness(HO);
}

class FuzzDiff final : public Workload {
public:
  FuzzDiff(unsigned Threads, const DigestTable *Expected)
      : Threads(Threads), Expected(Expected), Harness(makeHarness()) {}

  void setup(uint64_t Seed) override {
    // Schedule I uses pattern I mod the pattern count, so every pass
    // holds the same pattern mix; the seed orders the schedules.
    Indices = shuffled(FuzzSchedules, Seed);
    Schedules.clear();
    uint64_t Start = nowNs();
    for (size_t Index : Indices)
      Schedules.push_back(generateSchedule(Index));
    GenerateNs = nowNs() - Start;
  }

  PassResult runPass(bool Traced) override {
    std::vector<UnitOut> Units(Schedules.size());
    uint64_t WallNs = runUnits(Units, Threads, [&](size_t I, UnitOut &U) {
      runSchedule(Indices[I], Schedules[I], Traced, U);
    });
    // Latency probe, outside the timed pass: the same requests through the
    // same managers under the wrapper, without the oracles.
    if (!Traced)
      runUnits(Units, Threads, [&](size_t I, UnitOut &U) {
        probeSchedule(Schedules[I], U);
      });
    PassBuilder B(Units, Expected, WallNs, /*CallsInUnitSec=*/false);
    if (Traced) {
      addProfilerLayers(B.Pass, B.Prof);
      addFuzzLayers(B, Units);
      finishLayers(B.Pass);
    }
    return std::move(B.Pass);
  }

  void recordDigests(DigestTable &Out) override {
    std::vector<UnitOut> Units(FuzzSchedules);
    runUnits(Units, Threads, [&](size_t I, UnitOut &U) {
      runSchedule(I, generateSchedule(I), false, U);
    });
    storeDigests(Units, Out);
  }

private:
  void runSchedule(size_t Index, const FuzzSchedule &S, bool Traced,
                   UnitOut &Out) const {
    Out.Key = fuzzKey(Index);
    runUnit(Out, Traced, [&] {
      std::vector<uint64_t> Ticks;
      uint64_t Start = nowNs();
      DifferentialReport Report = [&] {
        StepTickScope Scope(Ticks);
        return Harness.run(S);
      }();
      Out.HarnessNs = nowNs() - Start;
      for (size_t I = 1; I < Ticks.size(); ++I)
        Out.SegNs.push_back(Ticks[I] - Ticks[I - 1]);
      Digest D;
      D.add(Out.Key);
      for (const PolicyRunResult &Run : Report.Runs) {
        D.add(Run.Policy).add(Run.QuotaC).add(uint64_t(Run.Violations.size()));
        addStats(D, Run.Stats);
        Out.Ops += Run.Stats.NumAllocations + Run.Stats.NumFrees;
        Out.Words += Run.Stats.TotalAllocatedWords;
        Out.Moves += Run.Stats.NumMoves;
        Out.MovedWords += Run.Stats.MovedWords;
        Out.RunStats.push_back(Run.Stats);
      }
      D.add(uint64_t(Report.Cross.size()));
      Out.Digest = D.hex();
      const std::vector<std::string> &Policies = Harness.options().Policies;
      Out.PolicyRuns = Report.Runs.size() +
                       (std::count(Policies.begin(), Policies.end(),
                                   Harness.options().ReplayCheckPolicy)
                            ? 1
                            : 0);
      if (!Report.clean())
        Out.Failure = Out.Key + ": " +
                      std::to_string(Report.allViolations().size()) +
                      " violations: " + Report.summary();
    });
  }

  void probeSchedule(const FuzzSchedule &S, UnitOut &Out) const {
    if (!Out.Failure.empty())
      return;
    try {
      std::vector<TraceOp> Trace = S.materialize();
      uint64_t M = std::max<uint64_t>(tracePeakLiveWords(Trace), 1);
      const std::vector<std::string> &Policies = Harness.options().Policies;
      for (size_t P = 0; P != Policies.size(); ++P) {
        // The first replay warms the allocator and caches up; a schedule
        // is too short to amortize a fresh heap's page faults.
        for (bool Timed : {false, true}) {
          UnitOut Warm;
          UnitOut &Sink = Timed ? Out : Warm;
          Heap H;
          auto MM = makeManager(Policies[P], H, FuzzC, M);
          TraceReplayProgram Replay(Trace);
          runWrapped(Sink, Replay, *MM, M, /*Traced=*/false);
          if (P >= Out.RunStats.size() ||
              !sameStats(H.stats(), Out.RunStats[P]))
            Out.Failure = Out.Key + ": the latency replay under " +
                          Policies[P] + " diverged from the harness run";
        }
      }
    } catch (const std::exception &Ex) {
      Out.Failure = Out.Key + ": latency replay threw: " + Ex.what();
    }
  }

  void addFuzzLayers(PassBuilder &B, const std::vector<UnitOut> &Units) const {
    PassResult &P = B.Pass;
    const Profiler &Prof = B.Prof;
    int64_t HeapNs = int64_t(secNs(Prof, Profiler::SecHeapPlace) +
                             secNs(Prof, Profiler::SecHeapFree) +
                             secNs(Prof, Profiler::SecHeapMove));
    int64_t Fsi = int64_t(secNs(Prof, Profiler::SecFreeReserve) +
                          secNs(Prof, Profiler::SecFreeRelease));
    int64_t Exec = int64_t(secNs(Prof, Profiler::SecStep));
    int64_t HarnessNs = 0;
    uint64_t PolicyRuns = 0, Allocs = 0, Frees = 0;
    for (const UnitOut &U : Units) {
      HarnessNs += int64_t(U.HarnessNs);
      PolicyRuns += U.PolicyRuns;
      for (const HeapStats &S : U.RunStats) {
        Allocs += S.NumAllocations;
        Frees += S.NumFrees;
      }
    }
    int64_t Thread = B.threadNs(Threads);
    P.Self = {{"oracle", ms(HarnessNs - Exec)},
              {"exec", ms(Exec - HeapNs)},
              {"heap", ms(HeapNs - Fsi)},
              {"fsi", ms(Fsi)},
              {"other", ms(int64_t(B.SumCellNs) - HarnessNs)},
              {"runner_idle", ms(Thread - int64_t(B.SumCellNs))}};
    P.Nesting = "cell > DifferentialHarness::run > exec.step > heap.* > "
                "fsi.*. oracle = run - exec.step (InvariantOracle, "
                "ReferenceHeap parity, per-policy set-up); exec = exec.step "
                "- heap.* (program, manager, compaction, driver checks); "
                "heap = heap.* - fsi.*, and holds the harness's event "
                "callback (log + reference-heap mirror), which runs inside "
                "heap.*; other = cell - run; runner_idle = threads x wall - "
                "sum(cell)";
    auto &L = P.Layer;
    L["trace.thread_ms"] = ms(Thread);
    L["fuzz.generate_ms"] = ms(int64_t(GenerateNs));
    L["fuzz.harness_ms"] = ms(HarnessNs);
    L["fuzz.exec_ms"] = ms(Exec);
    L["fuzz.oracle_ms"] = ms(HarnessNs - Exec);
    L["mm.compact_ms"] = ms(int64_t(secNs(Prof, Profiler::SecCompaction)));
    P.Counts["fuzz.schedules"] = Units.size();
    P.Counts["fuzz.policy_runs"] = PolicyRuns;
    P.Counts["driver.steps"] = secCalls(Prof, Profiler::SecStep);
    P.Counts["mm.alloc_calls"] = Allocs;
    P.Counts["mm.free_calls"] = Frees;
    B.addRunnerLayers(Threads);
  }

  unsigned Threads;
  const DigestTable *Expected;
  DifferentialHarness Harness;
  std::vector<size_t> Indices;
  std::vector<FuzzSchedule> Schedules;
  uint64_t GenerateNs = 0;
};

} // namespace

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {"pf-grid", "fleet-churn",
                                                 "realloc-churn", "fuzz-diff"};
  return Names;
}

std::unique_ptr<Workload> perfbench::makeWorkload(const std::string &Name,
                                                  unsigned Threads,
                                                  const DigestTable *Expected) {
  if (Name == "pf-grid")
    return std::make_unique<PfGrid>(Threads, Expected);
  if (Name == "fleet-churn")
    return std::make_unique<FleetChurn>(Threads, Expected);
  if (Name == "realloc-churn")
    return std::make_unique<ReallocChurn>(Threads, Expected);
  if (Name == "fuzz-diff")
    return std::make_unique<FuzzDiff>(Threads, Expected);
  return nullptr;
}
