//===- tools/pcbound.cpp - The pcbound command-line tool ------------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// One binary for the common workflows: bounds, plan, simulate, replay,
// sweep, fuzz, trace-record, serve, exact and policies. usage() lists
// each command's options with their defaults; docs/MANUAL.md documents
// them.
//
//===----------------------------------------------------------------------===//

#include "CliOptions.h"
#include "SweepTables.h"
#include "adversary/ProgramFactory.h"
#include "adversary/SyntheticWorkloads.h"
#include "adversary/WorkloadSpec.h"
#include "bounds/BenderskyPetrankBounds.h"
#include "bounds/CohenPetrankBounds.h"
#include "bounds/Planning.h"
#include "bounds/RobsonBounds.h"
#include "driver/Auditors.h"
#include "driver/Execution.h"
#include "driver/TraceIO.h"
#include "exact/ExactGrid.h"
#include "exact/MinimaxSolver.h"
#include "exact/WitnessTrace.h"
#include "fuzz/DifferentialHarness.h"
#include "fuzz/WorkloadFuzzer.h"
#include "heap/HeapImage.h"
#include "heap/Metrics.h"
#include "mm/CompactionLedger.h"
#include "mm/ManagerFactory.h"
#include "obs/Profiler.h"
#include "obs/Timeline.h"
#include "obs/TimelineSampler.h"
#include "realloc/ReallocationLedger.h"
#include "service/ServiceFleet.h"
#include "runner/ResultSink.h"
#include "runner/Runner.h"
#include "support/OptionParser.h"
#include "support/Table.h"
#include "trace/BudgetController.h"
#include "trace/TraceRecorder.h"
#include "trace/TraceRun.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>

using namespace pcb;

namespace {

int usage() {
  std::cerr
      << "usage: pcbound <command> [name=value ...]\n"
      << "  bounds    [M=256M n=1M c=50]\n"
      << "  plan      [M=256M n=1M target=2.5]\n"
      << "  simulate  [program=cohen-petrank policy=evacuating logm=14\n"
      << "             logn=8 c=50 family=all trace=FILE verbose=0\n"
      << "             timeline=FILE stride=1 profile=0 controller=fixed\n"
      << "             period=16 c1=1.0 smoothing=0.25]\n"
      << "  replay    trace=FILE [policy=first-fit c=50]\n"
      << "            pcbtrace only: [controller=fixed period=16 c1=1.0\n"
      << "             smoothing=0.25 live=0 deep=0 json=0 out= timeline=\n"
      << "             stride=1 profile=0]\n"
      << "  sweep     [program=cohen-petrank policies=all family=all\n"
      << "             cs=10,25,50,75,100 logm=14 logn=8 --threads=<ncores>\n"
      << "             csv=0 json=0 out= timeline=PREFIX stride=1]\n"
      << "  sweep     table=NAME [its options; --threads= csv= json= out=]\n"
      << "  fuzz      [seed=1 iterations=50 ops=384 policies=all family=all\n"
      << "             c=50 logm=12 maxlog=8 deep=64 repro-dir=.\n"
      << "             --threads=N timeline=PREFIX trace=FILE\n"
      << "             controller=fixed period=16 c1=1.0 smoothing=0.25]\n"
      << "  trace-record out=FILE [pattern=mixed | program=NAME | session=ID]\n"
      << "             [format=binary seed=1 ops=4096 live=4096 maxlog=8\n"
      << "             logm=14 logn=8 c=50 policy=first-fit]\n"
      << "  serve     [arenas=4 sessions=4096 threads=0 policy=evacuating\n"
      << "             c=50 batch=16 resident=8 ops=48 maxlog=6 live=1024\n"
      << "             seed=1 sample=64 audit=0 slice=32 json=0 out=\n"
      << "             timeline= arena-rows=32 profile=0 trace=FILE\n"
      << "             controller=fixed period=16 c1=1.0 smoothing=0.25]\n"
      << "  exact     [Ms=2,4,8 ns=2,4 cs=1,2,4,inf budget-cap=0\n"
      << "             node-limit=0 max-arena=0 witness-dir=DIR\n"
      << "             --threads=N csv=0 json=0 out=]\n"
      << "  policies\n"
      << "programs: robson, cohen-petrank, random-churn, markov-phase,\n"
      << "          stack-lifo, queue-fifo, sawtooth, update-fill-drain,\n"
      << "          update-alternating, update-comb, update-size-profile,\n"
      << "          update-mix, spec (with spec=FILE; see docs/MANUAL.md)\n"
      << "families: all, compaction, realloc (default policy/program set\n"
      << "          for simulate/sweep/fuzz)\n"
      << "controllers: fixed, periodic (period=), membalancer (c1=\n"
      << "          smoothing=)\n"
      << "sweep tables (table=NAME, then its options and defaults):\n"
      << sweepTableUsage();
  return 2;
}

int cmdBounds(const OptionParser &Opts) {
  BoundParams P;
  P.M = Opts.getUInt("M", pow2(28));
  P.N = Opts.getUInt("n", pow2(20));
  P.C = getQuota(Opts, 50.0);
  if (!P.valid() || std::isinf(P.C)) {
    std::cerr << "error: need power-of-two M >= n >= 2 and finite c > 1\n";
    return 1;
  }
  Table T({"bound", "waste_factor", "heap_words"});
  auto Row = [&](const std::string &Name, double Factor) {
    T.beginRow();
    T.addCell(Name);
    T.addCell(Factor, 3);
    T.addCell(uint64_t(Factor * double(P.M)));
  };
  Row("lower: Cohen-Petrank Theorem 1", cohenPetrankLowerWasteFactor(P));
  Row("lower: Bendersky-Petrank POPL'11",
      benderskyPetrankLowerWasteFactor(P));
  Row("lower/upper: Robson (no moving)", robsonWasteFactor(P));
  Row("upper: Bendersky-Petrank (c+1)M",
      benderskyPetrankUpperWasteFactor(P));
  if (P.C > 0.5 * double(P.logN()))
    Row("upper: Cohen-Petrank Theorem 2", cohenPetrankUpperWasteFactor(P));
  Row("upper: best known combined", newBestUpperWasteFactor(P));
  T.printAligned(std::cout);
  return 0;
}

int cmdPlan(const OptionParser &Opts) {
  BoundParams P; // the plan searches c itself; C keeps its valid default
  P.M = Opts.getUInt("M", pow2(28));
  P.N = Opts.getUInt("n", pow2(20));
  if (!checkBounds(P))
    return 1;
  uint64_t M = P.M, N = P.N;
  double Target = Opts.getDouble("target", 2.5);
  CompactionPlan Plan = planCompactionBudget(M, N, Target);
  if (!Plan.Feasible) {
    std::cout << "target waste factor " << formatDouble(Target, 2)
              << " is not guaranteeable by any partial compactor at"
              << " these parameters\n";
    return 0;
  }
  std::cout << "to keep the guaranteed worst case at or below "
            << formatDouble(Target, 2) << " x live space (M="
            << formatWords(M) << ", n=" << formatWords(N) << "):\n"
            << "  move at least " << formatDouble(100.0 * Plan.MinMovedFraction, 2)
            << "% of all allocated words (c <= "
            << formatDouble(Plan.MaxQuota, 1) << ")\n"
            << "  Theorem 1 then forces at most "
            << formatDouble(Plan.AchievedLowerBound, 3) << " x\n";
  return 0;
}

/// Builds the program named program= — any factory name, or "spec" with
/// spec=FILE. Prints an error and returns null on failure. Shared by
/// simulate and trace-record.
std::unique_ptr<Program> buildProgram(const OptionParser &Opts,
                                      const std::string &ProgName,
                                      uint64_t M, unsigned LogN, double C) {
  if (ProgName == "spec") {
    std::string SpecPath = Opts.getString("spec", "");
    std::ifstream SpecIS(SpecPath);
    if (SpecPath.empty() || !SpecIS) {
      std::cerr << "error: program=spec needs a readable spec=FILE\n";
      return nullptr;
    }
    WorkloadSpec Spec;
    std::string Error;
    if (!parseWorkloadSpec(SpecIS, Spec, Error)) {
      std::cerr << "error: " << SpecPath << ": " << Error << "\n";
      return nullptr;
    }
    return std::make_unique<SpecProgram>(M, Spec);
  }
  if (!checkProgram(ProgName, M, LogN, C))
    return nullptr;
  return createProgram(ProgName, M, LogN, C);
}

/// Writes \p Artifact (a Timeline or a report) to \p Path with its
/// writeFile(). Prints the error and returns false on failure.
template <typename T>
bool writeArtifact(const T &Artifact, const std::string &Path) {
  std::string Error;
  if (Artifact.writeFile(Path, &Error))
    return true;
  std::cerr << "error: " << Error << "\n";
  return false;
}

int cmdSimulate(const OptionParser &Opts) {
  // family=realloc retargets the defaults at the reallocation
  // workbench; explicit program=/policy= always win.
  std::string Family;
  if (!parseFamily(Opts, Family))
    return 1;
  bool Realloc = Family == "realloc";
  std::string ProgName =
      Opts.getString("program", Realloc ? "update-mix" : "cohen-petrank");
  std::string Policy =
      Opts.getString("policy", Realloc ? "realloc-jin" : "evacuating");
  unsigned LogM = getLog2(Opts, "logm", 14);
  unsigned LogN = getLog2(Opts, "logn", 8);
  double C = getQuota(Opts, 50.0);
  bool Verbose = Opts.getBool("verbose", false);
  bool Profile = Opts.getBool("profile", false);
  uint64_t M = pow2(LogM);

  if (!checkPolicy(Policy, /*LiveBound=*/M))
    return 1;
  Heap H;
  auto MM = createManager(Policy, H, C, /*LiveBound=*/M);
  std::unique_ptr<Program> Prog = buildProgram(Opts, ProgName, M, LogN, C);
  if (!Prog)
    return 1;
  ControllerSpec CtlSpec;
  if (!parseControllerSpec(Opts, CtlSpec))
    return 1;
  std::unique_ptr<BudgetController> Ctrl = createController(CtlSpec);

  EventLog Log;
  Execution::Options ExecOpts;
  std::string TracePath = Opts.getString("trace", "");
  if (!TracePath.empty())
    ExecOpts.Log = &Log;
  Execution E(*MM, *Prog, M, ExecOpts);
  attachController(E, *MM, *Ctrl);

  std::string TimelinePath = Opts.getString("timeline", "");
  bool Sampled = Profile || !TimelinePath.empty();
  TimelineSampler Sampler(samplerOptions(Opts));
  if (Sampled)
    Sampler.attach(E);

  if (Verbose) {
    while (true) {
      bool More = E.runStep();
      const HeapStats &S = H.stats();
      std::cout << "step " << E.stepsRun() << ": live=" << S.LiveWords
                << " heap=" << S.HighWaterMark << " moved=" << S.MovedWords
                << "\n"
                << renderHeapImage(H, S.HighWaterMark, 72, 2) << "\n";
      if (!More)
        break;
    }
  }
  ExecutionResult R;
  Profiler Prof;
  double Wall = timeRun(Profile ? &Prof : nullptr, [&] { R = E.run(); });
  FragmentationMetrics FM = measureFragmentation(H);

  std::cout << Prog->name() << " vs " << MM->name() << " (M="
            << formatWords(M) << ", n=" << formatWords(pow2(LogN))
            << ", c=" << C << ")\n"
            << "  heap size HS(A,P)   " << R.HeapSize << " words ("
            << formatDouble(R.wasteFactor(M), 3) << " x M)\n"
            << "  peak live           " << R.PeakLiveWords << "\n"
            << "  total allocated     " << R.TotalAllocatedWords << "\n"
            << "  moved (compaction)  " << R.MovedWords << "\n"
            << "  utilization         " << formatDouble(FM.Utilization, 3)
            << ", external fragmentation "
            << formatDouble(FM.ExternalFragmentation, 3) << "\n";
  // The reallocation family's score line; compaction-family output is
  // unchanged byte for byte.
  if (const ReallocationLedger *RL = MM->reallocationLedger())
    std::cout << "  overhead ratio      "
              << formatDouble(RL->overheadRatio(), 4) << " (worst prefix "
              << formatDouble(RL->maxPrefixRatio(), 4) << ", bound "
              << (std::isfinite(MM->overheadBound())
                      ? formatDouble(MM->overheadBound(), 1)
                      : std::string("inf"))
              << ")\n";
  // The default fixed trigger never denies, so the line (and the whole
  // gate) only appears when a controller was actually asked for —
  // keeping the report byte-identical to earlier releases otherwise.
  if (CtlSpec.Name != "fixed")
    std::cout << "  controller          " << Ctrl->name() << " (granted "
              << Ctrl->grants() << ", denied " << Ctrl->denials() << ")\n";

  if (!TracePath.empty()) {
    std::ofstream OS(TracePath);
    if (!OS) {
      std::cerr << "error: cannot write '" << TracePath << "'\n";
      return 1;
    }
    OS << "# pcbound trace: " << Prog->name() << " vs " << MM->name()
       << "\n";
    writeEventLog(OS, Log);
    std::cout << "  trace written to    " << TracePath << " ("
              << Log.size() << " events)\n";
  }
  if (Sampled)
    Sampler.finish(E);
  const Timeline &TL = Sampler.timeline();
  if (!TimelinePath.empty()) {
    if (!writeArtifact(TL, TimelinePath))
      return 1;
    std::cout << "  timeline written to " << TimelinePath << " ("
              << TL.size() << " points, stride " << Sampler.stride()
              << ")\n";
  }
  if (Profile) {
    // The sparklines are a pure function of the run, so they stay on
    // stdout; the wall clock and the profiler's timers go to stderr.
    std::cout << "  timeline            " << TL.size() << " points, stride "
              << Sampler.stride() << "\n";
    TL.printCharts(std::cout);
    std::cerr << "# simulate: wall " << formatDouble(Wall, 3) << "s, "
              << uint64_t(perSecond(R.Steps, Wall)) << " steps/s\n";
    Prof.printReport(std::cerr, Wall);
  }
  return 0;
}

/// Everything one fuzz iteration produced, filled in by a worker thread
/// and reported serially afterwards.
struct FuzzIterationOutcome {
  bool Failed = false;
  uint64_t Seed = 0;
  std::string Pattern;
  size_t OriginalOps = 0;
  FuzzSchedule Minimal;
  DifferentialReport MinimalReport;
};

int cmdFuzz(const OptionParser &Opts) {
  uint64_t BaseSeed = Opts.getUInt("seed", 1);
  uint64_t Iterations = Opts.getUInt("iterations", 50);
  uint64_t NumOps = Opts.getUInt("ops", 384);
  unsigned LogM = Opts.getUnsigned("logm", 12);
  unsigned MaxLog = Opts.getUnsigned("maxlog", 8);
  double C = getQuota(Opts, 50.0);
  uint64_t Deep = Opts.getUInt("deep", 64);
  std::string ReproDir = Opts.getString("repro-dir", ".");
  std::string TimelinePrefix = Opts.getString("timeline", "");
  if (Iterations == 0 || NumOps == 0) {
    std::cerr << "error: iterations= and ops= must be positive\n";
    return 1;
  }
  if (MaxLog > LogM || LogM > 24) {
    std::cerr << "error: need maxlog <= logm <= 24\n";
    return 1;
  }

  std::vector<std::string> Policies;
  if (!parsePolicyList(Opts, pow2(LogM), Policies))
    return 1;

  // trace=FILE fuzzes seeded windows of a recorded malloc trace instead
  // of cycling the synthetic patterns.
  std::shared_ptr<const std::vector<TraceOp>> FuzzTrace;
  std::string FuzzTracePath = Opts.getString("trace", "");
  if (!FuzzTracePath.empty()) {
    uint64_t TracePeak = 0;
    FuzzTrace = loadMallocTrace(FuzzTracePath, TracePeak);
    if (!FuzzTrace)
      return 1;
    if (FuzzTrace->empty()) {
      std::cerr << "error: " << FuzzTracePath << ": empty trace\n";
      return 1;
    }
  }

  DifferentialHarness::Options HO;
  HO.Policies = Policies;
  HO.C = C;
  HO.DeepCheckEvery = Deep;
  // The replay-determinism check rides on first-fit, which family=
  // realloc excludes from the policy list; re-home it so the check
  // stays live for the reallocation family.
  if (Opts.getString("family", "all") == "realloc")
    HO.ReplayCheckPolicy = "realloc-bucket";
  if (!parseControllerSpec(Opts, HO.Controller))
    return 1;
  DifferentialHarness Harness(HO);

  Runner R = makeRunner(Opts);

  std::cout << "# fuzz: " << Iterations << " schedules x "
            << Policies.size() << " policies (seed=" << BaseSeed
            << ", ops=" << NumOps << ", M=" << formatWords(pow2(LogM))
            << ", c=" << C << (FuzzTrace ? ", trace-backed" : "") << ")\n";
  std::cerr << "# fuzz: threads=" << R.threads() << "\n";

  const std::vector<WorkloadFuzzer::Pattern> &Patterns =
      WorkloadFuzzer::allPatterns();
  std::vector<FuzzIterationOutcome> Outcomes{size_t(Iterations)};
  R.forEachCell(Iterations, [&](uint64_t I) {
    WorkloadFuzzer::Options FO;
    FO.Seed = splitSeed(BaseSeed, I);
    FO.NumOps = NumOps;
    FO.LiveBound = pow2(LogM);
    FO.MaxLogSize = MaxLog;
    if (FuzzTrace) {
      FO.P = WorkloadFuzzer::Pattern::Trace;
      FO.TraceOps = FuzzTrace;
    } else {
      FO.P = Patterns[size_t(I) % Patterns.size()];
    }
    FuzzSchedule S = WorkloadFuzzer(FO).generate();

    FuzzIterationOutcome &O = Outcomes[size_t(I)];
    O.Seed = FO.Seed;
    O.Pattern = S.Pattern;
    O.OriginalOps = S.size();
    if (Harness.run(S).clean())
      return;
    O.Failed = true;
    O.Minimal = Harness.shrink(S);
    O.MinimalReport = Harness.run(O.Minimal);
  });

  uint64_t TotalOps = 0;
  size_t NumFailed = 0;
  for (const FuzzIterationOutcome &O : Outcomes) {
    TotalOps += O.OriginalOps;
    if (!O.Failed)
      continue;
    ++NumFailed;
    std::cerr << "fuzz: seed " << O.Seed << " (" << O.Pattern << ", "
              << O.OriginalOps << " ops) violated invariants; minimized to "
              << O.Minimal.size() << " ops\n"
              << O.MinimalReport.summary();
    const PolicyRunResult *Failing = O.MinimalReport.firstFailing();
    if (!Failing && !O.MinimalReport.Runs.empty())
      Failing = &O.MinimalReport.Runs.front();
    if (!Failing)
      continue;
    std::string Path =
        ReproDir + "/fuzz-repro-seed" + std::to_string(O.Seed) + ".trace";
    std::ofstream OS(Path);
    if (!OS) {
      std::cerr << "fuzz: cannot write reproducer '" << Path << "'\n";
      continue;
    }
    DifferentialHarness::writeReproducer(OS, O.Minimal, *Failing);
    std::cerr << "fuzz: reproducer written; re-run with: pcbound"
              << " replay trace=" << Path << "\n";
    if (!TimelinePrefix.empty()) {
      // Re-run just the failing policy with a sampler attached, so the
      // reproducer ships with the heap-state series that led to the
      // violation. Replay determinism checking is off: this run exists
      // only to observe.
      TimelineSampler Sampler;
      DifferentialHarness::Options TO;
      TO.Policies = {Failing->Policy};
      TO.C = C;
      TO.DeepCheckEvery = Deep;
      TO.Controller = HO.Controller;
      TO.ReplayCheckPolicy.clear();
      TO.OnExecution = [&Sampler](Execution &E, const std::string &) {
        Sampler.attach(E);
      };
      DifferentialHarness(TO).run(O.Minimal);
      std::string TLPath = timelineCellPath(
          TimelinePrefix, "seed" + std::to_string(O.Seed));
      std::string Error;
      if (!Sampler.timeline().writeFile(TLPath, &Error))
        std::cerr << "fuzz: " << Error << "\n";
      else
        std::cerr << "fuzz: timeline written to " << TLPath << " ("
                  << Sampler.timeline().size() << " points)\n";
    }
  }

  if (NumFailed == 0) {
    std::cout << "fuzz: OK — " << TotalOps << " ops, no invariant"
              << " violations under any policy\n";
    return 0;
  }
  std::cout << "fuzz: FAIL — " << NumFailed << " of " << Iterations
            << " schedules violated invariants (reproducers in '"
            << ReproDir << "')\n";
  return 1;
}

int cmdTraceRecord(const OptionParser &Opts) {
  std::string OutPath = Opts.getString("out", "");
  if (OutPath.empty()) {
    std::cerr << "error: trace-record needs out=FILE\n";
    return 1;
  }
  TraceFraming Framing = TraceFraming::Binary;
  std::string FramingName = Opts.getString("format", "binary");
  if (!parseFraming(FramingName, Framing)) {
    std::cerr << "error: unknown format '" << FramingName
              << "' (text or binary)\n";
    return 1;
  }
  std::string ProgName = Opts.getString("program", "");
  bool HaveSession = Opts.has("session");
  if (!ProgName.empty() && HaveSession) {
    std::cerr << "error: pick one source: pattern=, program=, or session=\n";
    return 1;
  }

  std::ofstream OS(OutPath, std::ios::binary);
  if (!OS) {
    std::cerr << "error: cannot write '" << OutPath << "'\n";
    return 1;
  }
  TraceRecorder Rec(OS, Framing);
  std::string Source;
  if (!ProgName.empty()) {
    // A live program run, recorded off the heap's event stream. The
    // policy only shapes placement, which the trace does not record, but
    // stays selectable so budget-starved fallback paths (which can change
    // the *schedule* of a c-aware adversary) are reachable too.
    unsigned LogM = getLog2(Opts, "logm", 14);
    unsigned LogN = getLog2(Opts, "logn", 8);
    double C = getQuota(Opts, 50.0);
    uint64_t M = pow2(LogM);
    std::string Policy = Opts.getString("policy", "first-fit");
    if (!checkPolicy(Policy, /*LiveBound=*/M))
      return 1;
    Heap H;
    auto MM = createManager(Policy, H, C, /*LiveBound=*/M);
    std::unique_ptr<Program> Prog = buildProgram(Opts, ProgName, M, LogN, C);
    if (!Prog)
      return 1;
    H.setEventCallback(Rec.heapTap());
    Execution E(*MM, *Prog, M);
    E.run();
    Source = Prog->name();
  } else if (HaveSession) {
    // One fleet session, exactly as `pcbound serve` would generate it.
    SessionParams SP;
    SP.FleetSeed = Opts.getUInt("seed", 1);
    SP.TargetOps = Opts.getUInt("ops", 48);
    SP.MaxLogSize = getLog2(Opts, "maxlog", 6);
    SP.LiveBound =
        std::max<uint64_t>(1, Opts.getUInt("live", uint64_t(1) << 10));
    if (!checkWorkload(SP.LiveBound, SP.MaxLogSize))
      return 1;
    uint64_t GlobalId = Opts.getUInt("session", 0);
    Rec.record(generateSessionTrace(SP, GlobalId));
    Source = "session-" + std::to_string(GlobalId);
  } else {
    std::string PatName = Opts.getString("pattern", "mixed");
    WorkloadFuzzer::Options FO;
    std::string Error;
    if (!WorkloadFuzzer::patternByName(PatName, FO.P, &Error)) {
      std::cerr << "error: " << Error << "\n";
      return 1;
    }
    FO.Seed = Opts.getUInt("seed", 1);
    FO.NumOps = Opts.getUInt("ops", 4096);
    FO.LiveBound =
        std::max<uint64_t>(1, Opts.getUInt("live", uint64_t(1) << 12));
    FO.MaxLogSize = getLog2(Opts, "maxlog", 8);
    if (!checkWorkload(FO.LiveBound, FO.MaxLogSize))
      return 1;
    Rec.record(WorkloadFuzzer(FO).generate().materialize());
    Source = PatName;
  }
  OS.flush();
  if (!Rec.good() || !OS) {
    std::cerr << "error: write failure on '" << OutPath << "'\n";
    return 1;
  }
  std::cout << "trace-record: " << Rec.opsWritten() << " ops (" << Source
            << ") written to " << OutPath << " (" << framingName(Framing)
            << ")\n";
  return 0;
}

/// True when \p IS starts like a pcbtrace malloc trace — the binary
/// "PCBT" magic or a `pcbtrace` text header — rather than an event log.
/// Leaves the stream rewound.
bool isPcbtrace(std::istream &IS) {
  char Head[8] = {};
  IS.read(Head, sizeof(Head));
  std::string Prefix(Head, size_t(IS.gcount()));
  IS.clear();
  IS.seekg(0);
  return Prefix.rfind("PCBT", 0) == 0 || Prefix.rfind("pcbtrace", 0) == 0;
}

/// replay on a pcbtrace: streams it through a manager under a budget
/// controller, so memory stays bounded by the live window, not the op
/// count.
int replayPcbtrace(const OptionParser &Opts, const std::string &TracePath,
                   std::istream &IS) {
  TraceRunOptions RO;
  RO.Policy = Opts.getString("policy", "first-fit");
  RO.C = getQuota(Opts, 50.0);
  if (!parseControllerSpec(Opts, RO.Controller))
    return 1;
  RO.LiveBound = Opts.getUInt("live", 0);
  RO.DeepCheckEvery = Opts.getUInt("deep", 0);

  std::string TimelinePath = Opts.getString("timeline", "");
  TimelineSampler Sampler(samplerOptions(Opts));
  if (!TimelinePath.empty()) {
    RO.OnExecution = [&Sampler](Execution &E) { Sampler.attach(E); };
    RO.OnFinished = [&Sampler](Execution &E) { Sampler.finish(E); };
  }

  Profiler Prof;
  bool Profile = Opts.getBool("profile", false);
  TraceReader R(IS);
  TraceRunReport Report;
  double Wall = 0.0;
  try {
    Wall = timeRun(Profile ? &Prof : nullptr,
                   [&] { Report = runTrace(R, RO, TracePath); });
  } catch (const std::exception &Ex) {
    std::cerr << "error: " << Ex.what() << "\n";
    return 1;
  }

  // The report names the trace by basename so it is relocatable across
  // build trees; diagnostics above keep the full path.
  size_t Slash = TracePath.find_last_of('/');
  Report.Trace =
      Slash == std::string::npos ? TracePath : TracePath.substr(Slash + 1);

  // Wall clock (and the profiler, which holds timers) are
  // nondeterministic, so they go to stderr; stdout carries only the
  // deterministic report.
  std::cerr << "# replay: wall " << formatDouble(Wall, 3) << "s, "
            << uint64_t(perSecond(Report.OpsStreamed, Wall))
            << " ops/s, live window " << Report.PeakLiveWindow << " ids\n";
  if (Profile)
    Prof.printReport(std::cerr, Wall);

  if (Opts.getBool("json", false))
    Report.printJson(std::cout);
  else
    Report.printText(std::cout);

  std::string OutPath = Opts.getString("out", "");
  if (!OutPath.empty()) {
    if (!writeArtifact(Report, OutPath))
      return 1;
    std::cerr << "# report written to " << OutPath << "\n";
  }
  if (!TimelinePath.empty()) {
    if (!writeArtifact(Sampler.timeline(), TimelinePath))
      return 1;
    std::cerr << "# timeline written to " << TimelinePath << " ("
              << Sampler.timeline().size() << " points, stride "
              << Sampler.stride() << ")\n";
  }
  return 0;
}

/// replay on an event log (fuzz reproducer, simulate trace=, exact
/// witness): audits the recorded events and their every-prefix c-partial
/// budget, then re-executes the program behaviour through one policy
/// with the invariant oracle on.
int replayEventLog(const OptionParser &Opts, const std::string &TracePath,
                   std::istream &IS) {
  std::stringstream Buffer;
  Buffer << IS.rdbuf();
  const std::string Content = Buffer.str();

  // Reproducers written by `pcbound fuzz` carry their policy and quota in
  // a header comment; explicit options still win.
  std::string HeaderPolicy = "first-fit";
  std::string HeaderC;
  {
    const std::string Magic = "# pcbound-fuzz-repro";
    std::istringstream Lines(Content);
    std::string Line;
    while (std::getline(Lines, Line)) {
      if (Line.rfind(Magic, 0) != 0)
        continue;
      std::istringstream Fields(Line.substr(Magic.size()));
      std::string Field;
      while (Fields >> Field) {
        size_t Eq = Field.find('=');
        if (Eq == std::string::npos)
          continue;
        std::string Key = Field.substr(0, Eq);
        std::string Value = Field.substr(Eq + 1);
        if (Key == "policy")
          HeaderPolicy = Value;
        else if (Key == "c")
          HeaderC = Value;
      }
      break;
    }
  }
  std::string Policy = Opts.getString("policy", HeaderPolicy);
  if (!checkPolicy(Policy, /*LiveBound=*/pow2(12)))
    return 1;
  double C;
  if (Opts.has("c") || HeaderC.empty()) {
    C = getQuota(Opts, 50.0);
  } else {
    // The header's c= is the quota the recording policy's ledger
    // enforced: a quota denominator, or the policy's own fixed quota
    // (sliding-unlimited and the reallocation family record 0, unlimited).
    Heap Probe;
    auto Recorder =
        createManager(HeaderPolicy, Probe, 50.0, /*LiveBound=*/pow2(12));
    double Own = Recorder ? Recorder->ledger().quotaDenominator() : 50.0;
    if (!OptionParser::parseNumber(HeaderC, C) ||
        !(isQuotaDenominator(C) || C == Own)) {
      quotaError("c=" + HeaderC + " in the header of " + TracePath);
      return 1;
    }
  }

  EventLog Log;
  std::istringstream TraceIS(Content);
  std::string Error;
  if (!readEventLog(TraceIS, Log, &Error)) {
    std::cerr << "error: " << TracePath << ": " << Error << "\n";
    return 1;
  }

  EventAuditor Auditor(C);
  for (const HeapEvent &E : Log.events())
    Auditor.fold(E);
  const AuditReport &Audit = Auditor.report();
  std::cout << "trace: " << Log.size() << " events, "
            << Audit.NumAllocations << " allocs, " << Audit.NumFrees
            << " frees, " << Audit.NumMoves << " moves (recorded HS "
            << Audit.HighWaterMark << ")\n";

  int NumProblems = 0;
  if (!Audit.Consistent) {
    std::cout << "recorded events: INCONSISTENT (double free, overlap,"
              << " or move of a dead object)\n";
    ++NumProblems;
  }
  if (!Auditor.budgetHeld()) {
    std::cout << "recorded events: c-partial budget (c=" << C
              << ") violated on some prefix\n";
    ++NumProblems;
  }

  std::vector<TraceOp> Trace = Log.toTrace();
  std::string Why;
  if (!validateTrace(Trace, &Why)) {
    std::cerr << "error: " << TracePath << ": trace is not replayable ("
              << Why << ")\n";
    return 1;
  }
  DifferentialHarness::Options HO;
  HO.Policies = {Policy};
  HO.C = C;
  HO.ReplayCheckPolicy = Policy;
  DifferentialReport Rep =
      DifferentialHarness(HO).run(scheduleFromTrace(Trace, 0, "replay"));
  for (const Violation &V : Rep.allViolations()) {
    std::cout << "violation: " << V.describe() << "\n";
    ++NumProblems;
  }
  if (!Rep.Runs.empty()) {
    const HeapStats &S = Rep.Runs.front().Stats;
    std::cout << "replayed through " << Policy << " (c=" << C << "): HS "
              << S.HighWaterMark << " words, moved " << S.MovedWords
              << " in " << S.NumMoves << " moves\n";
  }
  std::cout << (NumProblems ? "replay: FAIL\n" : "replay: OK\n");
  return NumProblems ? 1 : 0;
}

int cmdReplay(const OptionParser &Opts) {
  std::string TracePath = Opts.getString("trace", "");
  if (TracePath.empty()) {
    std::cerr << "error: replay needs trace=FILE\n";
    return 1;
  }
  std::ifstream IS(TracePath, std::ios::binary);
  if (!IS) {
    std::cerr << "error: cannot read '" << TracePath << "'\n";
    return 1;
  }
  return isPcbtrace(IS) ? replayPcbtrace(Opts, TracePath, IS)
                        : replayEventLog(Opts, TracePath, IS);
}

int cmdServe(const OptionParser &Opts) {
  FleetOptions FO;
  FO.NumArenas = Opts.getUnsigned("arenas", 4);
  FO.NumSessions = 4096;
  if (FO.NumArenas == 0) {
    std::cerr << "error: arenas= must be positive\n";
    return 1;
  }
  if (!readFleetOptions(Opts, FO))
    return 1;

  Profiler Prof;
  if (Opts.getBool("profile", false))
    FO.Prof = &Prof;

  try {
    ServiceFleet Fleet(FO);
    Fleet.run();
    FleetReport R = Fleet.report();

    // Wall clock and scheduler observability are nondeterministic, so
    // they go to stderr; stdout carries only the deterministic report.
    double Wall = Fleet.wallSeconds();
    std::cerr << "# serve: wall " << formatDouble(Wall, 3) << "s, threads="
              << Fleet.threads() << ", slices=" << Fleet.slices()
              << ", steals=" << Fleet.steals() << ", "
              << uint64_t(perSecond(R.TotalSessions, Wall)) << " sessions/s\n";
    if (FO.Prof)
      Prof.printReport(std::cerr, Wall);

    if (Opts.getBool("json", false)) {
      R.printJson(std::cout);
    } else {
      R.printText(std::cout);
      // Controller totals are deterministic (each shard's gate is a pure
      // function of its fixed schedule), so they belong on stdout — but
      // only when a gate was actually requested, keeping the default
      // report byte-identical to earlier releases. JSON output stays
      // pure FleetReport either way.
      if (FO.Shard.Controller.Name != "fixed") {
        uint64_t Grants = 0, Denials = 0;
        for (unsigned A = 0; A != FO.NumArenas; ++A) {
          Grants += Fleet.shard(A).controller().grants();
          Denials += Fleet.shard(A).controller().denials();
        }
        std::cout << "controller " << FO.Shard.Controller.Name << ": "
                  << Grants << " grants, " << Denials << " denials\n";
      }
    }

    std::string OutPath = Opts.getString("out", "");
    if (!OutPath.empty()) {
      if (!writeArtifact(R, OutPath))
        return 1;
      std::cerr << "# report written to " << OutPath << "\n";
    }
    std::string TimelinePath = Opts.getString("timeline", "");
    if (!TimelinePath.empty()) {
      if (!writeArtifact(R.FleetTimeline, TimelinePath))
        return 1;
      std::cerr << "# fleet timeline written to " << TimelinePath << " ("
                << R.FleetTimeline.size() << " points)\n";
    }
    return R.clean() ? 0 : 1;
  } catch (const std::exception &Ex) {
    std::cerr << "error: " << Ex.what() << "\n";
    return 1;
  }
}

int cmdExact(const OptionParser &Opts) {
  ExactParams Limits;
  Limits.BudgetCap = Opts.getUInt("budget-cap", 0);
  Limits.NodeLimit = Opts.getUInt("node-limit", 0);
  Limits.MaxArena = Opts.getUnsigned("max-arena", 0);
  std::vector<ExactCell> Cells;
  unsigned Skipped = 0;
  std::string Error;
  if (!parseExactGrid(Opts, Limits, Cells, Skipped, Error)) {
    std::cerr << "error: " << Error << "\n";
    return 1;
  }

  Runner R = makeRunner(Opts);

  std::cout << "# exact: solving " << Cells.size() << " cells ("
            << Skipped << " out-of-domain skipped)\n";
  std::cerr << "# exact: threads=" << R.threads() << "\n";

  std::vector<ExactCertificate> Certs{Cells.size()};
  R.forEachCell(Cells.size(), [&](uint64_t I) {
    const ExactParams &P = Cells[size_t(I)].P;
    Certs[size_t(I)] = certifyCell(P, solveExact(P));
  });

  ResultSink Sink(certificateHeader());
  uint64_t NumOk = 0, NumStrict = 0, NumFailed = 0;
  for (size_t I = 0; I != Cells.size(); ++I) {
    const ExactCertificate &Cert = Certs[I];
    if (Cert.ok()) {
      ++NumOk;
      NumStrict += Cert.Strict;
    } else {
      ++NumFailed;
      std::cerr << "exact: certificate FAILED: " << Cert.describe() << "\n";
    }
    Sink.append(certificateRow(Cells[I], Cert));
  }

  // Ground truth must be monotone in the quota: a larger integer c (and
  // c = infinity above all of them) means strictly less compaction, so
  // the forced heap size can only grow. A violation convicts the solver,
  // not the bounds layer.
  unsigned NumMonotoneViolations = 0;
  std::map<std::pair<uint64_t, uint64_t>,
           std::vector<std::pair<uint64_t, uint64_t>>>
      ByCell; // (M, n) -> sorted (quota rank, exact)
  for (size_t I = 0; I != Cells.size(); ++I) {
    if (!Certs[I].Result.Solved)
      continue;
    uint64_t Rank = Cells[I].P.C == 0 ? UINT64_MAX : Cells[I].P.C;
    ByCell[{Cells[I].P.M, Cells[I].P.N}].push_back(
        {Rank, Certs[I].Result.ExactWords});
  }
  for (auto &[MN, Series] : ByCell) {
    std::sort(Series.begin(), Series.end());
    for (size_t I = 1; I < Series.size(); ++I)
      if (Series[I].second < Series[I - 1].second) {
        ++NumMonotoneViolations;
        std::cerr << "exact: non-monotone in c at M=" << MN.first
                  << " n=" << MN.second << ": exact dropped from "
                  << Series[I - 1].second << " to " << Series[I].second
                  << " as c grew\n";
      }
  }

  std::string WitnessDir = Opts.getString("witness-dir", "");
  if (!WitnessDir.empty()) {
    for (size_t I = 0; I != Cells.size(); ++I) {
      if (Certs[I].Result.Witness.empty())
        continue;
      const ExactParams &P = Cells[I].P;
      std::string Path = WitnessDir + "/exact-M" + std::to_string(P.M) +
                         "-n" + std::to_string(P.N) + "-c" +
                         Cells[I].CLabel + ".trace";
      std::ofstream OS(Path);
      if (!OS) {
        std::cerr << "error: cannot write witness '" << Path << "'\n";
        return 1;
      }
      OS << "# pcbound exact witness: M=" << P.M << " n=" << P.N
         << " c=" << Cells[I].CLabel << " proves HS >= "
         << Certs[I].Result.ExactWords << "\n";
      writeEventLog(OS, witnessToEventLog(Certs[I].Result.Witness));
    }
    std::cout << "# witness traces written to " << WitnessDir
              << "/ (replayable with pcbound replay)\n";
  }

  if (!Sink.emit(Opts))
    return 1;
  bool Failed = NumFailed != 0 || NumMonotoneViolations != 0;
  std::cout << "exact: " << (Failed ? "FAIL" : "OK") << " — " << NumOk
            << " of " << Cells.size() << " cells certified (" << NumStrict
            << " strictly separating Theorem 1 from Theorem 2)\n";
  return Failed ? 1 : 0;
}

} // namespace

int main(int argc, char **argv) {
  OptionParser Opts(argc, argv);
  if (Opts.positional().empty())
    return usage();
  const std::string &Command = Opts.positional()[0];
  if (Command == "bounds")
    return cmdBounds(Opts);
  if (Command == "plan")
    return cmdPlan(Opts);
  if (Command == "simulate")
    return cmdSimulate(Opts);
  if (Command == "replay")
    return cmdReplay(Opts);
  if (Command == "sweep")
    return cmdSweep(Opts);
  if (Command == "fuzz")
    return cmdFuzz(Opts);
  if (Command == "trace-record")
    return cmdTraceRecord(Opts);
  if (Command == "serve")
    return cmdServe(Opts);
  if (Command == "exact")
    return cmdExact(Opts);
  if (Command == "policies") {
    std::cout << "# manager policies\n";
    for (const std::string &Policy : allManagerPolicies())
      std::cout << Policy << "\n";
    std::cout << "# programs\n";
    for (const std::string &Name : allProgramNames())
      std::cout << Name << "\n";
    return 0;
  }
  return usage();
}
